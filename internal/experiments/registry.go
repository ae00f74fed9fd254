package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"aedbmls/internal/aedb"
	"aedbmls/internal/moo"
	"aedbmls/internal/report"
	"aedbmls/internal/study"
)

// Renderer is a printable experiment result.
type Renderer interface{ Render() string }

// Experiment is one Registry entry: the index ids it covers, the -only
// keys that select it, and its driver.
type Experiment struct {
	ID   string
	Keys []string
	Run  func(*Suite) (Renderer, error)
}

// Suite runs Registry entries under one Scale. It memoises the comparison
// RunSet of each density, so Fig. 6/7, Table IV, the timing comparison and
// A5 all read one set of runs. The zero value plus a Scale is ready to use.
type Suite struct {
	Scale Scale
	Log   Logf
	runs  map[int]*RunSet
}

// RunSet returns the density's comparison RunSet, running RunAll on first
// use.
func (s *Suite) RunSet(density int) (*RunSet, error) {
	if rs, ok := s.runs[density]; ok {
		return rs, nil
	}
	rs, err := RunAll(s.Scale, density, s.Log)
	if err != nil {
		return nil, err
	}
	if s.runs == nil {
		s.runs = make(map[int]*RunSet)
	}
	s.runs[density] = rs
	return rs, nil
}

// Run runs one entry, or refuses with an error wrapping study.ErrStop
// once Scale.Stop is closed.
func (s *Suite) Run(e Experiment) (Renderer, error) {
	select {
	case <-s.Scale.Stop:
		return nil, fmt.Errorf("experiments: %s not started: %w", e.ID, study.ErrStop)
	default:
	}
	return e.Run(s)
}

// ablationParams is the fixed AEDB configuration A4 and A6 evaluate.
var ablationParams = aedb.Params{MinDelay: 0.1, MaxDelay: 0.5, BorderThresholdDBm: -82, MarginDBm: 1, NeighborsThreshold: 12}

// Registry lists every experiment of the suite in print order, one entry
// per -only key group of the per-experiment index in cmd/README.md.
var Registry = []Experiment{
	{"E3–E4", []string{"fig2", "tab1", "sensitivity"}, func(s *Suite) (Renderer, error) {
		density := 300
		if len(s.Scale.Densities) == 1 {
			density = s.Scale.Densities[0]
		}
		return Sensitivity(s.Scale, density, s.Log)
	}},
	{"E5", []string{"config"}, func(s *Suite) (Renderer, error) { return ConfigAnalysis(s.Scale, s.Log) }},
	{"E6–E10", []string{"fig6", "fig7", "tab4", "timing"}, func(s *Suite) (Renderer, error) { return Comparison(s) }},
	{"A1–A2", []string{"ablation"}, func(s *Suite) (Renderer, error) {
		ar, err := ArchiveAblation(s.Scale, s.Log)
		if err != nil {
			return nil, err
		}
		pr, err := ParallelismAblation(s.Scale, nil, s.Log)
		if err != nil {
			return nil, err
		}
		return sections{ar, pr}, nil
	}},
	{"A3", []string{"memetic"}, func(s *Suite) (Renderer, error) { return MemeticCellDE(s.Scale, s.Log) }},
	{"A4", []string{"beacons"}, func(s *Suite) (Renderer, error) {
		return perDensity(s, func(d int) (Renderer, error) { return BeaconFidelity(s.Scale, d, ablationParams) })
	}},
	{"A5", []string{"spea2", "extended"}, func(s *Suite) (Renderer, error) {
		rs, err := s.RunSet(s.Scale.Densities[0])
		if err != nil {
			return nil, err
		}
		return ExtendedBaselines(s.Scale, rs, s.Log)
	}},
	{"A6", []string{"mobility"}, func(s *Suite) (Renderer, error) {
		return perDensity(s, func(d int) (Renderer, error) { return MobilityAblation(s.Scale, d, ablationParams) })
	}},
}

// Keys returns every -only key of the Registry, in registry order.
func Keys() []string {
	var keys []string
	for _, e := range Registry {
		keys = append(keys, e.Keys...)
	}
	return keys
}

// Select resolves a comma-separated -only list to Registry entries, in
// registry order. An empty list selects every entry; an unknown key is an
// error naming the valid ones.
func Select(only string) ([]Experiment, error) {
	if strings.TrimSpace(only) == "" {
		return Registry, nil
	}
	want := map[string]bool{}
	for _, k := range strings.Split(only, ",") {
		if k = strings.TrimSpace(k); k != "" && !slices.Contains(Keys(), k) {
			return nil, fmt.Errorf("experiments: unknown -only key %q (valid: %s)", k, strings.Join(Keys(), ", "))
		}
		want[k] = true
	}
	var out []Experiment
	for _, e := range Registry {
		if slices.ContainsFunc(e.Keys, func(k string) bool { return want[k] }) {
			out = append(out, e)
		}
	}
	return out, nil
}

// sections renders several results as one, separated by blank lines.
type sections []Renderer

// Render joins the sections' renderings.
func (s sections) Render() string {
	parts := make([]string, len(s))
	for i, r := range s {
		parts[i] = r.Render()
	}
	return strings.Join(parts, "\n")
}

// perDensity runs one driver per density of the scale.
func perDensity(s *Suite, run func(density int) (Renderer, error)) (Renderer, error) {
	var out sections
	for _, d := range s.Scale.Densities {
		r, err := run(d)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// ComparisonResult is E6–E10 over every density of the scale: the Fig. 6
// fronts, the Fig. 7 / Table IV indicator samples and the timing
// comparison, indexed like the densities and each derived from the
// Suite's one RunSet of that density.
type ComparisonResult struct {
	Scale   string
	Seed    uint64
	Fronts  []*FrontsResult
	Metrics []*MetricsResult
	Timing  []*TimingResult
}

// Comparison derives E6–E10 from the suite's RunSet of every density.
func Comparison(s *Suite) (*ComparisonResult, error) {
	res := &ComparisonResult{Scale: s.Scale.Name, Seed: s.Scale.Seed}
	for _, d := range s.Scale.Densities {
		rs, err := s.RunSet(d)
		if err != nil {
			return nil, err
		}
		res.Fronts = append(res.Fronts, BuildFronts(rs, 100))
		res.Metrics = append(res.Metrics, ComputeMetrics(rs))
		res.Timing = append(res.Timing, ComputeTiming(s.Scale, rs))
	}
	return res, nil
}

// Render prints Fig. 6, Fig. 7 and the timing comparison per density,
// then Table IV across the densities.
func (r *ComparisonResult) Render() string {
	var b strings.Builder
	for i := range r.Fronts {
		b.WriteString(r.Fronts[i].RenderFigure6() + "\n" + r.Metrics[i].RenderFigure7() + r.Timing[i].Render() + "\n")
	}
	b.WriteString(RenderTableIV(r.Metrics))
	return b.String()
}

// Save writes, per density, the figure6-<d>dev JSON bundle (both merged
// fronts, the indicator samples, the timing notes) and the two fronts as
// front-<d>dev-{reference,aedb-mls}.csv for external plotting.
func (r *ComparisonResult) Save(dir string) ([]string, error) {
	var paths []string
	for i, fr := range r.Fronts {
		tr := r.Timing[i]
		fronts := map[string][]*moo.Solution{"reference": fr.Reference, "aedb-mls": fr.MLS}
		b := &report.Bundle{
			Experiment: fmt.Sprintf("figure6-%ddev", fr.Density),
			Scale:      r.Scale,
			Seed:       r.Seed,
			Fronts:     map[string][]report.FrontRow{},
			Samples:    r.Metrics[i].Samples,
			Notes: map[string]string{
				"eval_ratio":            fmt.Sprintf("%.2f", tr.EvalRatio),
				"throughput_gain":       fmt.Sprintf("%.2f", tr.ThroughputGain),
				"projected_96w_speedup": fmt.Sprintf("%.0f", tr.ProjectedPaperSpeedup),
				"mls_dominates_ref":     fmt.Sprintf("%d", fr.RefDominatedByMLS),
				"ref_dominates_mls":     fmt.Sprintf("%d", fr.RefDominatingMLS),
			},
		}
		for name, front := range fronts {
			b.Fronts[name] = report.Rows(front)
		}
		path, err := report.SaveBundle(dir, b)
		if err != nil {
			return paths, err
		}
		paths = append(paths, path)
		for name, front := range fronts {
			path := filepath.Join(dir, fmt.Sprintf("front-%ddev-%s.csv", fr.Density, name))
			f, err := os.Create(path)
			if err != nil {
				return paths, err
			}
			err = report.WriteFrontCSV(f, front)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				return paths, err
			}
			paths = append(paths, path)
		}
	}
	return paths, nil
}

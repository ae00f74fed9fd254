package experiments

import (
	"fmt"
	"strings"

	"aedbmls/internal/aedb"
	"aedbmls/internal/archive"
	"aedbmls/internal/eval"
	"aedbmls/internal/indicators"
	"aedbmls/internal/manet"
	"aedbmls/internal/spea2"
	"aedbmls/internal/stats"
	"aedbmls/internal/textplot"
)

// ExtendedBaselinesResult adds SPEA2 (not part of the paper) to the
// algorithm comparison, checking that the paper's reference front is not
// an artifact of the particular MOEAs chosen: a third, independently
// designed MOEA should land in the same front region.
type ExtendedBaselinesResult struct {
	Density int
	// MedianHV per algorithm, against the combined reference of all four.
	MedianHV map[string]float64
	// FrontSizes are mean front sizes.
	FrontSizes map[string]float64
}

// AlgSPEA2 labels the extension baseline.
const AlgSPEA2 = "SPEA2"

// ExtendedBaselines runs all four algorithms on one density: CellDE,
// NSGA-II and AEDB-MLS through RunAll (so Scale.Stop and CheckpointDir
// apply to them as to the comparison suite), then Runs SPEA2 executions.
func ExtendedBaselines(sc Scale, density int, log Logf) (*ExtendedBaselinesResult, error) {
	rs, err := RunAll(sc, density, log)
	if err != nil {
		return nil, err
	}
	problem := sc.Problem(density)
	for run := 0; run < sc.Runs; run++ {
		scfg := spea2.DefaultConfig()
		scfg.PopSize = sc.NSGA.PopSize
		scfg.ArchiveSize = sc.NSGA.PopSize
		scfg.Evaluations = sc.NSGA.Evaluations
		scfg.Seed = sc.Seed + 1000*uint64(run) + 4
		scfg.Stop = sc.Stop
		sres, err := spea2.Optimize(problem, scfg)
		if err != nil {
			return nil, fmt.Errorf("experiments: extended: spea2: %w", err)
		}
		if sres.Interrupted {
			return nil, interruptedErr(AlgSPEA2, density, run)
		}
		rs.record(AlgSPEA2, sres.Front, sres.Duration, sres.Evaluations)
		log.printf("extended baselines: SPEA2 run %d/%d done", run+1, sc.Runs)
	}

	algs := append(append([]string(nil), Algorithms...), AlgSPEA2)
	all := archive.NewUnbounded()
	for _, alg := range algs {
		for _, front := range rs.Fronts[alg] {
			archive.AddAll(all, front)
		}
	}
	refPts := ObjectivePoints(all.Contents())
	res := &ExtendedBaselinesResult{
		Density:    density,
		MedianHV:   make(map[string]float64),
		FrontSizes: make(map[string]float64),
	}
	for _, alg := range algs {
		var hvs, sizes []float64
		for _, f := range rs.Fronts[alg] {
			hvs = append(hvs, indicators.HypervolumeNormalized(ObjectivePoints(f), refPts))
			sizes = append(sizes, float64(len(f)))
		}
		res.MedianHV[alg] = stats.Median(hvs)
		res.FrontSizes[alg] = stats.Mean(sizes)
	}
	return res, nil
}

// Render prints the four-way comparison.
func (r *ExtendedBaselinesResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Extension — SPEA2 as a fourth baseline, %d devices/km^2\n\n", r.Density)
	header := []string{"algorithm", "median HV", "mean front size"}
	var rows [][]string
	for _, alg := range []string{AlgCellDE, AlgNSGAII, AlgSPEA2, AlgMLS} {
		rows = append(rows, []string{
			alg, fmt.Sprintf("%.4f", r.MedianHV[alg]), fmt.Sprintf("%.1f", r.FrontSizes[alg]),
		})
	}
	b.WriteString(textplot.Table(header, rows))
	return b.String()
}

// BeaconFidelityResult compares the default instantaneous-beacon medium
// against full frame-level beacon contention (ablation A4 of the simulator
// substitution, see the per-experiment index in cmd/README.md): the AEDB
// metrics should be close,
// justifying the fast default.
type BeaconFidelityResult struct {
	Density            int
	Fast, Accurate     eval.Metrics
	CoverageDeltaPct   float64
	ForwardingDeltaPct float64
}

// BeaconFidelity runs the same configuration under both beacon models.
func BeaconFidelity(sc Scale, density int, params aedb.Params) (*BeaconFidelityResult, error) {
	nodes, ok := eval.DensityNodes[density]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown density %d", density)
	}
	fastCfg := manet.DefaultScenario(nodes)
	slowCfg := fastCfg
	slowCfg.FastBeacons = false

	fastProblem := eval.NewProblem(density, sc.Seed, append(sc.EvalOptions(), eval.WithConfig(fastCfg))...)
	slowProblem := eval.NewProblem(density, sc.Seed, append(sc.EvalOptions(), eval.WithConfig(slowCfg))...)

	res := &BeaconFidelityResult{Density: density}
	res.Fast = fastProblem.Simulate(params)
	res.Accurate = slowProblem.Simulate(params)
	if res.Accurate.Coverage > 0 {
		res.CoverageDeltaPct = 100 * (res.Fast.Coverage - res.Accurate.Coverage) / res.Accurate.Coverage
	}
	if res.Accurate.Forwardings > 0 {
		res.ForwardingDeltaPct = 100 * (res.Fast.Forwardings - res.Accurate.Forwardings) / res.Accurate.Forwardings
	}
	return res, nil
}

// Render prints the fidelity comparison.
func (r *BeaconFidelityResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation A4 — beacon fidelity, %d devices/km^2\n\n", r.Density)
	header := []string{"medium", "coverage", "forwardings", "energy(dBm)", "bt(s)"}
	rows := [][]string{
		{"fast beacons", fmt.Sprintf("%.2f", r.Fast.Coverage), fmt.Sprintf("%.2f", r.Fast.Forwardings),
			fmt.Sprintf("%.2f", r.Fast.EnergyDBmSum), fmt.Sprintf("%.3f", r.Fast.BroadcastTime)},
		{"frame-level", fmt.Sprintf("%.2f", r.Accurate.Coverage), fmt.Sprintf("%.2f", r.Accurate.Forwardings),
			fmt.Sprintf("%.2f", r.Accurate.EnergyDBmSum), fmt.Sprintf("%.3f", r.Accurate.BroadcastTime)},
	}
	b.WriteString(textplot.Table(header, rows))
	fmt.Fprintf(&b, "\ncoverage delta %.1f%%, forwardings delta %.1f%%\n",
		r.CoverageDeltaPct, r.ForwardingDeltaPct)
	return b.String()
}

package experiments

import (
	"fmt"
	"strings"
	"time"

	"aedbmls/internal/archive"
	"aedbmls/internal/cellde"
	"aedbmls/internal/core"
	"aedbmls/internal/indicators"
	"aedbmls/internal/stats"
	"aedbmls/internal/textplot"
)

// ArchiveAblationRow is one archive policy scored inside AEDB-MLS.
type ArchiveAblationRow struct {
	Policy    string
	MedianHV  float64
	FrontSize float64
}

// ArchiveAblationResult compares the AGA archive the paper chose against
// a crowding-distance archive and an unbounded archive (A1 in the per-experiment index of cmd/README.md).
type ArchiveAblationResult struct {
	Density int
	Rows    []ArchiveAblationRow
}

// ArchiveAblation runs AEDB-MLS under each archive policy.
func ArchiveAblation(sc Scale, log Logf) (*ArchiveAblationResult, error) {
	density := sc.Densities[0]
	problem := sc.Problem(density)
	policies := []struct {
		name string
		make func() archive.Interface
	}{
		{"aga", func() archive.Interface { return archive.NewAGA(sc.MLS.ArchiveCapacity, sc.MLS.GridDivisions) }},
		{"crowding", func() archive.Interface { return archive.NewCrowding(sc.MLS.ArchiveCapacity) }},
		{"unbounded", func() archive.Interface { return archive.NewUnbounded() }},
	}
	type runFront struct {
		policy int
		front  [][]float64
		size   int
	}
	var fronts []runFront
	all := archive.NewUnbounded()
	for pi, pol := range policies {
		for run := 0; run < sc.Runs; run++ {
			cfg := sc.MLS
			cfg.Seed = sc.Seed + uint64(1000*run) + uint64(pi)
			if len(cfg.Criteria) == 0 {
				cfg.Criteria = core.DefaultAEDBCriteria()
			}
			res, err := core.Optimize(problem, cfg, pol.make())
			if err != nil {
				return nil, fmt.Errorf("experiments: archive ablation: %w", err)
			}
			archive.AddAll(all, res.Front)
			fronts = append(fronts, runFront{policy: pi, front: ObjectivePoints(res.Front), size: len(res.Front)})
		}
		log.printf("archive ablation: %s done", pol.name)
	}
	refPts := ObjectivePoints(all.Contents())
	hvs := make([][]float64, len(policies))
	sizes := make([][]float64, len(policies))
	for _, rf := range fronts {
		hvs[rf.policy] = append(hvs[rf.policy], indicators.HypervolumeNormalized(rf.front, refPts))
		sizes[rf.policy] = append(sizes[rf.policy], float64(rf.size))
	}
	res := &ArchiveAblationResult{Density: density}
	for pi, pol := range policies {
		res.Rows = append(res.Rows, ArchiveAblationRow{
			Policy: pol.name, MedianHV: stats.Median(hvs[pi]), FrontSize: stats.Mean(sizes[pi]),
		})
	}
	return res, nil
}

// Render prints the archive ablation.
func (r *ArchiveAblationResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation A1 — archive policy inside AEDB-MLS, %d devices/km^2\n\n", r.Density)
	header := []string{"policy", "median HV", "mean front size"}
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{row.Policy, fmt.Sprintf("%.4f", row.MedianHV), fmt.Sprintf("%.1f", row.FrontSize)})
	}
	b.WriteString(textplot.Table(header, rows))
	return b.String()
}

// ParallelismRow is one population/worker layout of ablation A2.
type ParallelismRow struct {
	Populations, Workers int
	Duration             time.Duration
	Evals                int64
	Throughput           float64
}

// ParallelismAblationResult sweeps the process layout at a fixed total
// budget, demonstrating the scaling behaviour behind the paper's speedup
// claim (A2 in the per-experiment index of cmd/README.md).
type ParallelismAblationResult struct {
	Density int
	Rows    []ParallelismRow
}

// ParallelismAblation runs AEDB-MLS under several layouts with the same
// total evaluation budget.
func ParallelismAblation(sc Scale, layouts [][2]int, log Logf) (*ParallelismAblationResult, error) {
	if len(layouts) == 0 {
		layouts = [][2]int{{1, 1}, {1, 2}, {2, 2}, {2, 4}, {4, 4}}
	}
	density := sc.Densities[0]
	problem := sc.Problem(density)
	total := sc.MLSEvaluations()
	res := &ParallelismAblationResult{Density: density}
	for _, layout := range layouts {
		pops, workers := layout[0], layout[1]
		cfg := sc.MLS
		cfg.Populations = pops
		cfg.Workers = workers
		cfg.EvalsPerWorker = total / (pops * workers)
		if cfg.EvalsPerWorker < 2 {
			cfg.EvalsPerWorker = 2
		}
		if len(cfg.Criteria) == 0 {
			cfg.Criteria = core.DefaultAEDBCriteria()
		}
		cfg.Seed = sc.Seed + uint64(pops*100+workers)
		out, err := core.Optimize(problem, cfg, nil)
		if err != nil {
			return nil, fmt.Errorf("experiments: parallelism ablation: %w", err)
		}
		row := ParallelismRow{
			Populations: pops, Workers: workers,
			Duration: out.Duration, Evals: out.Evaluations,
		}
		if out.Duration > 0 {
			row.Throughput = float64(out.Evaluations) / out.Duration.Seconds()
		}
		res.Rows = append(res.Rows, row)
		log.printf("parallelism ablation: %dx%d done (%.1f evals/s)", pops, workers, row.Throughput)
	}
	return res, nil
}

// Render prints the parallelism ablation.
func (r *ParallelismAblationResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation A2 — parallel layout at fixed budget, %d devices/km^2\n\n", r.Density)
	header := []string{"populations", "workers/pop", "wall-clock", "evals", "evals/s"}
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{
			fmt.Sprintf("%d", row.Populations), fmt.Sprintf("%d", row.Workers),
			FormatDuration(row.Duration),
			fmt.Sprintf("%d", row.Evals), fmt.Sprintf("%.1f", row.Throughput),
		})
	}
	b.WriteString(textplot.Table(header, rows))
	return b.String()
}

// MemeticResult compares plain CellDE with the paper's future-work hybrid
// (CellDE + AEDB-MLS local search) at equal evaluation budgets
// (A3 in the per-experiment index of cmd/README.md).
type MemeticResult struct {
	Density                  int
	PlainHV, MemeticHV       []float64
	PlainMedian, MemeticHVMd float64
	Wilcoxon                 stats.WilcoxonResult
}

// MemeticCellDE runs the comparison.
func MemeticCellDE(sc Scale, log Logf) (*MemeticResult, error) {
	density := sc.Densities[0]
	problem := sc.Problem(density)
	all := archive.NewUnbounded()
	var plainFronts, memeticFronts [][][]float64
	for run := 0; run < sc.Runs; run++ {
		seed := sc.Seed + uint64(500*run)

		cfg := sc.CellDE
		cfg.Seed = seed
		plain, err := cellde.Optimize(problem, cfg)
		if err != nil {
			return nil, fmt.Errorf("experiments: memetic: plain run %d: %w", run, err)
		}
		archive.AddAll(all, plain.Front)
		plainFronts = append(plainFronts, ObjectivePoints(plain.Front))

		mcfg := cellde.Memetic(sc.CellDE, 2, sc.MLS.Alpha, core.DefaultAEDBCriteria())
		mcfg.Seed = seed
		mem, err := cellde.Optimize(problem, mcfg)
		if err != nil {
			return nil, fmt.Errorf("experiments: memetic: hybrid run %d: %w", run, err)
		}
		archive.AddAll(all, mem.Front)
		memeticFronts = append(memeticFronts, ObjectivePoints(mem.Front))
		log.printf("memetic: run %d/%d done", run+1, sc.Runs)
	}
	refPts := ObjectivePoints(all.Contents())
	res := &MemeticResult{Density: density}
	for _, f := range plainFronts {
		res.PlainHV = append(res.PlainHV, indicators.HypervolumeNormalized(f, refPts))
	}
	for _, f := range memeticFronts {
		res.MemeticHV = append(res.MemeticHV, indicators.HypervolumeNormalized(f, refPts))
	}
	res.PlainMedian = stats.Median(res.PlainHV)
	res.MemeticHVMd = stats.Median(res.MemeticHV)
	res.Wilcoxon = stats.Wilcoxon(res.MemeticHV, res.PlainHV)
	return res, nil
}

// Render prints the memetic comparison.
func (r *MemeticResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Future work A3 — CellDE vs memetic CellDE+MLS, %d devices/km^2\n\n", r.Density)
	fmt.Fprintf(&b, "median HV: plain=%.4f memetic=%.4f (Wilcoxon p=%.4f)\n",
		r.PlainMedian, r.MemeticHVMd, r.Wilcoxon.P)
	return b.String()
}

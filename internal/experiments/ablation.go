package experiments

import (
	"fmt"
	"strings"
	"time"

	"aedbmls/internal/archive"
	"aedbmls/internal/cellde"
	"aedbmls/internal/core"
	"aedbmls/internal/moo"
	"aedbmls/internal/stats"
	"aedbmls/internal/textplot"
)

// ArchiveAblation runs AEDB-MLS under each archive policy, comparing the
// AGA archive the paper chose against a crowding-distance archive and an
// unbounded archive (A1 in the per-experiment index of cmd/README.md).
func ArchiveAblation(sc Scale, log Logf) (*HVTable, error) {
	density := sc.Densities[0]
	problem := sc.Problem(density)
	names := []string{"aga", "crowding", "unbounded"}
	archives := []func() archive.Interface{
		func() archive.Interface { return archive.NewAGA(sc.MLS.ArchiveCapacity, sc.MLS.GridDivisions) },
		func() archive.Interface { return archive.NewCrowding(sc.MLS.ArchiveCapacity) },
		func() archive.Interface { return archive.NewUnbounded() },
	}
	fronts := make([][][]*moo.Solution, len(archives))
	for pi, newArchive := range archives {
		for run := 0; run < sc.Runs; run++ {
			res, err := core.Optimize(problem, sc.mlsConfig(sc.Seed+uint64(1000*run)+uint64(pi)), newArchive())
			if err != nil {
				return nil, fmt.Errorf("experiments: archive ablation: %w", err)
			}
			if res.Interrupted {
				return nil, interruptedErr("archive ablation ("+names[pi]+")", density, run)
			}
			fronts[pi] = append(fronts[pi], res.Front)
		}
		log.printf("archive ablation: %s done", names[pi])
	}
	return hvTable("Ablation A1 — archive policy inside AEDB-MLS", "policy", density, names, fronts), nil
}

// ParallelismRow is one population/worker layout of ablation A2. Evals
// and Throughput (evaluations per second) count AEDB-MLS budget units:
// a move that reproduces its worker's incumbent is charged without being
// simulated again (see core.Result), so the committee evaluations
// actually simulated can be fewer.
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
		cfg := sc.mlsConfig(sc.Seed + uint64(pops*100+workers))
		cfg.Populations = pops
		cfg.Workers = workers
		cfg.EvalsPerWorker = max(total/(pops*workers), 2)
		out, err := core.Optimize(problem, cfg, nil)
		if err != nil {
			return nil, fmt.Errorf("experiments: parallelism ablation: %w", err)
		}
		if out.Interrupted {
			return nil, interruptedErr(fmt.Sprintf("parallelism ablation (%dx%d)", pops, workers), density, 0)
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
	arms := []struct {
		name string
		cfg  cellde.Config
	}{
		{"plain", sc.CellDE},
		{"hybrid", cellde.Memetic(sc.CellDE, 2, sc.MLS.Alpha, core.DefaultAEDBCriteria())},
	}
	fronts := make([][][]*moo.Solution, len(arms))
	for run := 0; run < sc.Runs; run++ {
		for a, arm := range arms {
			cfg := arm.cfg
			cfg.Seed = sc.Seed + uint64(500*run)
			cfg.Stop = sc.Stop
			res, err := cellde.Optimize(problem, cfg)
			if err != nil {
				return nil, fmt.Errorf("experiments: memetic: %s run %d: %w", arm.name, run, err)
			}
			if res.Interrupted {
				return nil, interruptedErr("memetic ("+arm.name+")", density, run)
			}
			fronts[a] = append(fronts[a], res.Front)
		}
		log.printf("memetic: run %d/%d done", run+1, sc.Runs)
	}
	hvs, medians := medianHV(fronts...)
	res := &MemeticResult{
		Density: density,
		PlainHV: hvs[0], MemeticHV: hvs[1],
		PlainMedian: medians[0], MemeticHVMd: medians[1],
	}
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

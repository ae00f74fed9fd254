// Command aedb-experiments regenerates the paper's tables and figures
// (see the per-experiment index in DESIGN.md).
//
// Usage:
//
//	aedb-experiments [-scale tiny|small|paper] [-out dir] [-exact-physics]
//	                 [-fidelity off] [-promote-eps 0] [-only fig2,tab1,fig6,fig7,tab4,timing,config,ablation,memetic,beacons,mobility,spea2]
//	                 [-checkpoint-dir dir] [-checkpoint-every 1000]
//
// The default small scale keeps all structural ratios of the paper
// (30-run protocol shrunk to 5, AEDB-MLS at 2.4x the MOEA budget) and
// finishes in minutes; -scale paper executes the full protocol.
//
// With -checkpoint-dir every (algorithm, density, run) of the comparison
// suite checkpoints into its own file there; SIGINT/SIGTERM stop the
// suite at the next optimizer boundary after saving (a second signal
// exits immediately), and re-running with the same flags resumes —
// completed runs short-circuit from their Final checkpoints and the
// interrupted run continues bit-exactly.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"
	"time"

	"aedbmls/internal/aedb"
	"aedbmls/internal/cliutil"
	"aedbmls/internal/experiments"
	"aedbmls/internal/faultinject"
	"aedbmls/internal/moo"
	"aedbmls/internal/report"
)

func main() {
	cliutil.SetUsage("aedb-experiments",
		"Regenerate the paper's tables and figures (Fig. 2, Table I, Fig. 6/7,\n"+
			"Table IV, the timing comparison, the Sect. V configuration analysis and\n"+
			"the ablations) at tiny/small/paper scale; see DESIGN.md for the index.")
	scaleName := flag.String("scale", "small", "experimental scale: tiny, small or paper")
	only := flag.String("only", "", "comma-separated subset of experiments (default: all)")
	seed := flag.Uint64("seed", 0, "override the base seed (0 keeps the scale default)")
	outDir := flag.String("out", "", "directory for machine-readable bundles (JSON) and fronts (CSV); empty disables")
	evalFlags := cliutil.AddEvalFlags()
	checkpointDir := flag.String("checkpoint-dir", "", "directory for per-(algorithm,density,run) checkpoints; re-running resumes (empty disables)")
	checkpointEvery := flag.Int64("checkpoint-every", 1000, "evaluations between checkpoint saves")
	flag.Parse()
	if _, err := faultinject.ConfigureFromEnv(); err != nil {
		log.Fatal(err)
	}

	sc, err := experiments.ScaleByName(*scaleName)
	if err != nil {
		log.Fatal(err)
	}
	if *seed != 0 {
		sc.Seed = *seed
	}
	if sc.Settings, err = evalFlags.Build(); err != nil {
		log.Fatal(err)
	}
	if *checkpointDir != "" {
		if err := os.MkdirAll(*checkpointDir, 0o755); err != nil {
			log.Fatal(err)
		}
		sc.CheckpointDir = *checkpointDir
		sc.CheckpointEvery = *checkpointEvery
	}
	sc.Stop = cliutil.StopOnSignals()
	fail := func(err error) {
		if cliutil.IsStop(err) {
			fmt.Fprintln(os.Stderr, "interrupted: checkpoints saved; re-run with the same -checkpoint-dir to resume")
			os.Exit(130)
		}
		log.Fatal(err)
	}
	want := map[string]bool{}
	if *only != "" {
		for _, k := range strings.Split(*only, ",") {
			want[strings.TrimSpace(k)] = true
		}
	}
	selected := func(keys ...string) bool {
		if len(want) == 0 {
			return true
		}
		for _, k := range keys {
			if want[k] {
				return true
			}
		}
		return false
	}
	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "[%s] "+format+"\n",
			append([]any{time.Now().Format("15:04:05")}, args...)...)
	}

	fmt.Printf("=== aedbmls experiment suite (scale=%s, seed=%d) ===\n\n", sc.Name, sc.Seed)
	fmt.Printf("Table II (ns-3 configuration) and Table III (variable domains) are encoded in\n")
	fmt.Printf("internal/manet.DefaultScenario and internal/aedb.DefaultDomain; every run below uses them.\n\n")

	// E3/E4 — sensitivity analysis (Fig. 2, Table I).
	if selected("fig2", "tab1", "sensitivity") {
		density := 300
		if len(sc.Densities) == 1 {
			density = sc.Densities[0]
		}
		res, err := experiments.Sensitivity(sc, density, logf)
		if err != nil {
			fail(err)
		}
		fmt.Println(res.RenderFigure2())
		fmt.Println(res.RenderTableI())
		fmt.Println()
	}

	// E6-E10 — the three-algorithm comparison per density.
	if selected("fig6", "fig7", "tab4", "timing") {
		var metricResults []*experiments.MetricsResult
		for _, density := range sc.Densities {
			rs, err := experiments.RunAll(sc, density, logf)
			if err != nil {
				fail(err)
			}
			var fr *experiments.FrontsResult
			if selected("fig6") {
				fr = experiments.BuildFronts(rs, 100)
				fmt.Println(fr.RenderFigure6())
				fmt.Println()
			}
			mr := experiments.ComputeMetrics(rs)
			metricResults = append(metricResults, mr)
			if selected("fig7") {
				fmt.Println(mr.RenderFigure7())
			}
			tr := experiments.ComputeTiming(sc, rs)
			if selected("timing") {
				fmt.Println(tr.Render())
				fmt.Println()
			}
			if *outDir != "" {
				saveDensityBundle(*outDir, sc, density, fr, mr, tr, logf)
			}
		}
		if selected("tab4") {
			fmt.Println(experiments.RenderTableIV(metricResults))
		}
	}

	// E5 — Sect. V configuration analysis.
	if selected("config") {
		res, err := experiments.ConfigAnalysis(sc, logf)
		if err != nil {
			fail(err)
		}
		fmt.Println(res.Render())
		fmt.Println()
	}

	// A1/A2 — ablations.
	if selected("ablation") {
		ar, err := experiments.ArchiveAblation(sc, logf)
		if err != nil {
			fail(err)
		}
		fmt.Println(ar.Render())
		fmt.Println()
		pr, err := experiments.ParallelismAblation(sc, nil, logf)
		if err != nil {
			fail(err)
		}
		fmt.Println(pr.Render())
		fmt.Println()
	}

	// A3 — future-work memetic hybrid.
	if selected("memetic") {
		mr, err := experiments.MemeticCellDE(sc, logf)
		if err != nil {
			fail(err)
		}
		fmt.Println(mr.Render())
	}

	// A4 — beacon-fidelity ablation of the simulator substitution.
	if selected("beacons") {
		params := aedb.Params{MinDelay: 0.1, MaxDelay: 0.5, BorderThresholdDBm: -82, MarginDBm: 1, NeighborsThreshold: 12}
		for _, density := range sc.Densities {
			br, err := experiments.BeaconFidelity(sc, density, params)
			if err != nil {
				fail(err)
			}
			fmt.Println(br.Render())
			fmt.Println()
		}
	}

	// A6 — mobility-model ablation.
	if selected("mobility") {
		params := aedb.Params{MinDelay: 0.1, MaxDelay: 0.5, BorderThresholdDBm: -82, MarginDBm: 1, NeighborsThreshold: 12}
		for _, density := range sc.Densities {
			mres, err := experiments.MobilityAblation(sc, density, params)
			if err != nil {
				fail(err)
			}
			fmt.Println(mres.Render())
			fmt.Println()
		}
	}

	// A5 — SPEA2 as a fourth baseline (extension beyond the paper).
	if selected("spea2", "extended") {
		er, err := experiments.ExtendedBaselines(sc, sc.Densities[0], logf)
		if err != nil {
			fail(err)
		}
		fmt.Println(er.Render())
	}
}

// saveDensityBundle persists the per-density artifacts: a JSON bundle with
// both merged fronts, the indicator samples and the timing notes, plus the
// two fronts as standalone CSVs for external plotting.
func saveDensityBundle(dir string, sc experiments.Scale, density int,
	fr *experiments.FrontsResult, mr *experiments.MetricsResult, tr *experiments.TimingResult, logf experiments.Logf) {
	b := &report.Bundle{
		Experiment: fmt.Sprintf("figure6-%ddev", density),
		Scale:      sc.Name,
		Seed:       sc.Seed,
		Fronts:     map[string][]report.FrontRow{},
		Samples:    mr.Samples,
		Notes: map[string]string{
			"eval_ratio":            fmt.Sprintf("%.2f", tr.EvalRatio),
			"throughput_gain":       fmt.Sprintf("%.2f", tr.ThroughputGain),
			"projected_96w_speedup": fmt.Sprintf("%.0f", tr.ProjectedPaperSpeedup),
		},
	}
	if fr != nil {
		b.Fronts["reference"] = report.Rows(fr.Reference)
		b.Fronts["aedb-mls"] = report.Rows(fr.MLS)
		b.Notes["mls_dominates_ref"] = fmt.Sprintf("%d", fr.RefDominatedByMLS)
		b.Notes["ref_dominates_mls"] = fmt.Sprintf("%d", fr.RefDominatingMLS)
	}
	path, err := report.SaveBundle(dir, b)
	if err != nil {
		log.Fatal(err)
	}
	logf("saved %s", path)
	if fr != nil {
		for name, front := range map[string][]*moo.Solution{"reference": fr.Reference, "aedb-mls": fr.MLS} {
			csvPath := filepath.Join(dir, fmt.Sprintf("front-%ddev-%s.csv", density, name))
			f, err := os.Create(csvPath)
			if err != nil {
				log.Fatal(err)
			}
			if err := report.WriteFrontCSV(f, front); err != nil {
				log.Fatal(err)
			}
			if err := f.Close(); err != nil {
				log.Fatal(err)
			}
			logf("saved %s", csvPath)
		}
	}
}

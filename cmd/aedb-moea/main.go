// Command aedb-moea tunes the AEDB protocol with one of the reference
// MOEAs (NSGA-II, SPEA2 or CellDE) and prints the resulting Pareto front.
//
// Usage:
//
//	aedb-moea [-alg nsga2|spea2|cellde|cellde-mls] [-density 100] [-seed 1]
//	          [-pop 100] [-evals 10000] [-committee 10]
//	          [-fidelity off] [-promote-eps 0]
//	          [-checkpoint run.ckpt] [-resume run.ckpt] [-checkpoint-every 500]
//
// With -checkpoint the run saves crash-safe resumable state on a cadence
// and at completion, and SIGINT/SIGTERM stop it at the next generation
// boundary after saving (a second signal exits immediately). Resuming an
// interrupted run reproduces the uninterrupted front bit for bit.
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"aedbmls/internal/aedb"
	"aedbmls/internal/cellde"
	"aedbmls/internal/cliutil"
	"aedbmls/internal/core"
	"aedbmls/internal/eval"
	"aedbmls/internal/faultinject"
	"aedbmls/internal/nsga2"
	"aedbmls/internal/spea2"
	"aedbmls/internal/study"
	"aedbmls/internal/textplot"
)

func main() {
	cliutil.SetUsage("aedb-moea",
		"Tune the AEDB protocol with one of the paper's reference MOEAs (NSGA-II,\n"+
			"CellDE), the SPEA2 extension, or the future-work memetic hybrid, and\n"+
			"print the Pareto front — the comparison arms of Fig. 6 / Table IV.")
	alg := flag.String("alg", "nsga2", "algorithm: nsga2, spea2, cellde or cellde-mls (memetic hybrid)")
	density := flag.Int("density", 100, "network density in devices/km^2")
	seed := flag.Uint64("seed", 1, "random seed")
	pop := flag.Int("pop", 20, "population size (paper: 100)")
	evals := flag.Int("evals", 400, "evaluation budget (paper: 10000)")
	committee := flag.Int("committee", 10, "frozen networks per evaluation (paper: 10)")
	evalFlags := cliutil.AddEvalFlags()
	ckpt := cliutil.AddCheckpointFlags()
	flag.Parse()
	if _, err := faultinject.ConfigureFromEnv(); err != nil {
		log.Fatal(err)
	}
	ctrl, resume, err := ckpt.Build()
	if err != nil {
		log.Fatal(err)
	}
	stop := cliutil.StopOnSignals(ctrl.Enabled())

	settings, err := evalFlags.Build()
	if err != nil {
		log.Fatal(err)
	}
	problem := eval.NewProblem(*density, *seed, eval.WithCommittee(*committee), eval.WithSettings(settings))
	opts := study.Options{Checkpoint: ctrl, Resume: resume, Stop: stop}
	var res *study.Result
	switch *alg {
	case "nsga2":
		cfg := nsga2.DefaultConfig()
		cfg.PopSize, cfg.Evaluations, cfg.Seed, cfg.Options = *pop, *evals, *seed, opts
		res, err = nsga2.Optimize(problem, cfg)
	case "spea2":
		cfg := spea2.DefaultConfig()
		cfg.PopSize, cfg.ArchiveSize, cfg.Evaluations, cfg.Seed, cfg.Options = *pop, *pop, *evals, *seed, opts
		res, err = spea2.Optimize(problem, cfg)
	case "cellde", "cellde-mls":
		cfg := cellde.DefaultConfig()
		cfg.PopSize, cfg.Evaluations, cfg.Seed, cfg.Options = *pop, *evals, *seed, opts
		if *alg == "cellde-mls" {
			cfg = cellde.Memetic(cfg, 2, 0.2, core.DefaultAEDBCriteria())
		}
		res, err = cellde.Optimize(problem, cfg)
	default:
		log.Fatalf("unknown algorithm %q", *alg)
	}
	if err != nil {
		log.Fatal(err)
	}
	cliutil.ExitOnInterrupt(res.Interrupted, ctrl)

	fmt.Printf("%s on %s: %d evaluations in %s, front size %d\n\n",
		*alg, problem.Name(), res.Evaluations, res.Duration.Round(time.Millisecond), len(res.Front))
	header := []string{"energy(dBm)", "coverage", "forwards", "bt(s)", "minDelay", "maxDelay", "border", "margin", "neighThr"}
	var rows [][]string
	for _, s := range res.Front {
		m, _ := eval.MetricsOf(s)
		p := aedb.FromVector(s.X)
		rows = append(rows, []string{
			fmt.Sprintf("%.2f", m.EnergyDBmSum), fmt.Sprintf("%.1f", m.Coverage),
			fmt.Sprintf("%.1f", m.Forwardings), fmt.Sprintf("%.3f", m.BroadcastTime),
			fmt.Sprintf("%.3f", p.MinDelay), fmt.Sprintf("%.3f", p.MaxDelay),
			fmt.Sprintf("%.1f", p.BorderThresholdDBm), fmt.Sprintf("%.2f", p.MarginDBm),
			fmt.Sprintf("%.1f", p.NeighborsThreshold),
		})
	}
	fmt.Print(textplot.Table(header, rows))
}

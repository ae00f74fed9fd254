// Command aedb-moea tunes the AEDB protocol with one of the reference
// MOEAs (NSGA-II, SPEA2 or CellDE) and prints the resulting Pareto front.
//
// Usage:
//
//	aedb-moea [-alg nsga2|spea2|cellde|cellde-mls] [-density 100] [-seed 1]
//	          [-pop 100] [-evals 10000] [-committee 10] [-exact-physics]
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
	"aedbmls/internal/moo"
	"aedbmls/internal/nsga2"
	"aedbmls/internal/spea2"
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
	stop := cliutil.StopOnSignals()

	settings, err := evalFlags.Build()
	if err != nil {
		log.Fatal(err)
	}
	problem := eval.NewProblem(*density, *seed, eval.WithCommittee(*committee), eval.WithSettings(settings))
	var (
		front       []*moo.Solution
		spent       int64
		duration    time.Duration
		interrupted bool
	)
	switch *alg {
	case "nsga2":
		cfg := nsga2.DefaultConfig()
		cfg.PopSize = *pop
		cfg.Evaluations = *evals
		cfg.Seed = *seed
		cfg.Checkpoint, cfg.Resume, cfg.Stop = ctrl, resume, stop
		res, err := nsga2.Optimize(problem, cfg)
		if err != nil {
			log.Fatal(err)
		}
		front, spent, duration, interrupted = res.Front, res.Evaluations, res.Duration, res.Interrupted
	case "spea2":
		cfg := spea2.DefaultConfig()
		cfg.PopSize = *pop
		cfg.ArchiveSize = *pop
		cfg.Evaluations = *evals
		cfg.Seed = *seed
		cfg.Checkpoint, cfg.Resume, cfg.Stop = ctrl, resume, stop
		res, err := spea2.Optimize(problem, cfg)
		if err != nil {
			log.Fatal(err)
		}
		front, spent, duration, interrupted = res.Front, res.Evaluations, res.Duration, res.Interrupted
	case "cellde", "cellde-mls":
		cfg := cellde.DefaultConfig()
		cfg.PopSize = *pop
		cfg.Evaluations = *evals
		cfg.Seed = *seed
		if *alg == "cellde-mls" {
			cfg = cellde.Memetic(cfg, 2, 0.2, core.DefaultAEDBCriteria())
		}
		cfg.Checkpoint, cfg.Resume, cfg.Stop = ctrl, resume, stop
		res, err := cellde.Optimize(problem, cfg)
		if err != nil {
			log.Fatal(err)
		}
		front, spent, duration, interrupted = res.Front, res.Evaluations, res.Duration, res.Interrupted
	default:
		log.Fatalf("unknown algorithm %q", *alg)
	}
	cliutil.ExitOnInterrupt(interrupted, ctrl)

	fmt.Printf("%s on %s: %d evaluations in %s, front size %d\n\n",
		*alg, problem.Name(), spent, duration.Round(time.Millisecond), len(front))
	header := []string{"energy(dBm)", "coverage", "forwards", "bt(s)", "minDelay", "maxDelay", "border", "margin", "neighThr"}
	var rows [][]string
	for _, s := range front {
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

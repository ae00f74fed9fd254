// Command aedb-mls tunes the AEDB protocol with the paper's parallel
// multi-objective local search and prints the resulting Pareto front.
//
// Usage:
//
//	aedb-mls [-density 100] [-seed 1] [-pops 8] [-workers 12]
//	         [-evals 250] [-reset 50] [-alpha 0.2] [-committee 10]
//	         [-neighborhood 1] [-fidelity off] [-promote-eps 0]
//	         [-checkpoint run.ckpt] [-resume run.ckpt] [-checkpoint-every 500]
//
// With -checkpoint the run saves crash-safe resumable state on a cadence
// and at completion, and SIGINT/SIGTERM stop it at the next boundary
// after saving (a second signal exits immediately). A checkpointed or
// resumed run executes on the deterministic sequential engine, so
// resuming an interrupted run reproduces the uninterrupted front bit for
// bit.
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"aedbmls/internal/aedb"
	"aedbmls/internal/cliutil"
	"aedbmls/internal/core"
	"aedbmls/internal/eval"
	"aedbmls/internal/faultinject"
	"aedbmls/internal/textplot"
)

func main() {
	cliutil.SetUsage("aedb-mls",
		"Tune the AEDB protocol with the paper's parallel multi-objective local\n"+
			"search (AEDB-MLS, Sect. IV) and print the Pareto front of protocol\n"+
			"configurations for one density. Same-seed parallel runs legitimately\n"+
			"differ (workers race on the shared archive, as in the paper).")
	density := flag.Int("density", 100, "network density in devices/km^2")
	seed := flag.Uint64("seed", 1, "random seed")
	pops := flag.Int("pops", 4, "distributed populations (paper: 8)")
	workers := flag.Int("workers", 3, "local-search threads per population (paper: 12)")
	evals := flag.Int("evals", 50, "evaluations per thread (paper: 250)")
	reset := flag.Int("reset", 15, "iterations between population resets (paper: 50)")
	alpha := flag.Float64("alpha", 0.2, "BLX-alpha perturbation magnitude (paper: 0.2)")
	committee := flag.Int("committee", 10, "frozen networks per evaluation (paper: 10)")
	neighborhood := flag.Int("neighborhood", 1, "candidate moves batched per local-search iteration (1 = paper's step)")
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
	cfg := core.DefaultConfig()
	cfg.Populations = *pops
	cfg.Workers = *workers
	cfg.EvalsPerWorker = *evals
	cfg.ResetPeriod = *reset
	cfg.Alpha = *alpha
	cfg.NeighborhoodSize = *neighborhood
	cfg.Seed = *seed
	cfg.Criteria = core.DefaultAEDBCriteria()
	cfg.Checkpoint = ctrl
	cfg.Resume = resume
	cfg.Stop = stop

	fmt.Printf("AEDB-MLS on %s: %d pops x %d workers x %d evals (%d total)\n",
		problem.Name(), *pops, *workers, *evals, *pops**workers**evals)
	res, err := core.Optimize(problem, cfg, nil)
	if err != nil {
		log.Fatal(err)
	}
	cliutil.ExitOnInterrupt(res.Interrupted, ctrl)
	fmt.Printf("done in %s: %d evaluations, %d accepted moves, %d resets, front size %d\n\n",
		res.Duration.Round(time.Millisecond), res.Evaluations, res.Accepted, res.Resets, len(res.Front))

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

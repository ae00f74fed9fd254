// Command aedb-experiments regenerates the paper's tables and figures
// (see the per-experiment index in cmd/README.md).
//
// Usage:
//
//	aedb-experiments [-scale tiny|small|paper] [-out dir]
//	                 [-fidelity off] [-promote-eps 0] [-only fig2,tab1,sensitivity,config,fig6,fig7,tab4,timing,ablation,memetic,beacons,spea2,extended,mobility]
//	                 [-checkpoint-dir dir] [-checkpoint-every 1000]
//
// The program is one loop over experiments.Registry; -only selects
// entries by key (an unknown key is refused), and the comparison suite's
// runs of each density are shared by Fig. 6/7, Table IV, the timing
// comparison and the SPEA2 extension.
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
	"strings"
	"time"

	"aedbmls/internal/cliutil"
	"aedbmls/internal/experiments"
	"aedbmls/internal/faultinject"
)

func main() {
	cliutil.SetUsage("aedb-experiments",
		"Regenerate the paper's tables and figures (Fig. 2, Table I, Fig. 6/7,\n"+
			"Table IV, the timing comparison, the Sect. V configuration analysis and\n"+
			"the ablations) at tiny/small/paper scale; see cmd/README.md for the index.")
	scaleName := flag.String("scale", "small", "experimental scale: tiny, small or paper")
	only := flag.String("only", "", "comma-separated subset of experiments (default: all): "+strings.Join(experiments.Keys(), ","))
	seed := flag.Uint64("seed", 0, "override the base seed (0 keeps the scale default)")
	outDir := flag.String("out", "", "directory for machine-readable bundles (JSON) and fronts (CSV); empty disables")
	evalFlags := cliutil.AddEvalFlags()
	checkpointDir := flag.String("checkpoint-dir", "", "directory for per-(algorithm,density,run) checkpoints; re-running resumes (empty disables)")
	checkpointEvery := flag.Int64("checkpoint-every", 1000, "evaluations between checkpoint saves")
	flag.Parse()
	if _, err := faultinject.ConfigureFromEnv(); err != nil {
		log.Fatal(err)
	}
	selected, err := experiments.Select(*only)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
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
	sc.Stop = cliutil.StopOnSignals(*checkpointDir != "")
	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "[%s] "+format+"\n",
			append([]any{time.Now().Format("15:04:05")}, args...)...)
	}

	fmt.Printf("=== aedbmls experiment suite (scale=%s, seed=%d) ===\n\n", sc.Name, sc.Seed)
	fmt.Printf("Table II (ns-3 configuration) and Table III (variable domains) are encoded in\n")
	fmt.Printf("internal/manet.DefaultScenario and internal/aedb.DefaultDomain; every run below uses them.\n\n")

	suite := &experiments.Suite{Scale: sc, Log: logf}
	for _, e := range selected {
		res, err := suite.Run(e)
		if cliutil.IsStop(err) {
			fmt.Fprintln(os.Stderr, interruptMessage(*checkpointDir))
			os.Exit(130)
		}
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(res.Render())
		if s, ok := res.(saver); ok && *outDir != "" {
			paths, err := s.Save(*outDir)
			if err != nil {
				log.Fatal(err)
			}
			for _, p := range paths {
				logf("saved %s", p)
			}
		}
	}
}

// interruptMessage is what a stopped suite prints: the resume hint only
// when -checkpoint-dir saved something to resume from.
func interruptMessage(checkpointDir string) string {
	if checkpointDir == "" {
		return "interrupted: no -checkpoint-dir was set, so nothing was saved"
	}
	return "interrupted: checkpoints saved; re-run with the same -checkpoint-dir to resume"
}

// saver is a result that also writes machine-readable artifacts (JSON
// bundles, CSV fronts) under -out; Save returns the written paths.
type saver interface {
	Save(dir string) ([]string, error)
}

package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"aedbmls/internal/benchproblems"
	"aedbmls/internal/eval"
	"aedbmls/internal/moo"
)

// updateGoldenFronts regenerates the round-robin trajectory pin:
//
//	go test ./internal/core -run TestGoldenFronts -update
//
// Regeneration is a deliberate act: any change to the Fig. 3 step, the
// RNG split order or the archive's sampling stream fails the test until
// the pin is re-recorded and the change justified in review.
var updateGoldenFronts = flag.Bool("update", false, "rewrite testdata/golden_fronts.json from the current engine")

const goldenFrontsPath = "testdata/golden_fronts.json"

// goldenRun is one pinned OptimizeSequential configuration.
type goldenRun struct {
	name    string
	problem func() moo.Problem
	cfg     Config
}

func goldenRuns() []goldenRun {
	var runs []goldenRun
	for _, pb := range []struct {
		name    string
		problem func() moo.Problem
	}{
		{"zdt1-5", func() moo.Problem { return benchproblems.ZDT1(5) }},
		{"cschaffer", func() moo.Problem { return benchproblems.ConstrainedSchaffer() }},
	} {
		for _, hood := range []int{0, 1, 4} {
			for seed := uint64(1); seed <= 3; seed++ {
				cfg := TestConfig()
				cfg.Populations, cfg.Workers, cfg.EvalsPerWorker = 3, 4, 60
				cfg.ResetPeriod = 7
				cfg.NeighborhoodSize = hood
				cfg.Seed = seed
				runs = append(runs, goldenRun{
					name:    fmt.Sprintf("%s/hood%d/seed%d", pb.name, hood, seed),
					problem: pb.problem,
					cfg:     cfg,
				})
			}
		}
	}
	for _, hood := range []int{1, 3} {
		cfg := TestConfig()
		cfg.Populations, cfg.Workers, cfg.EvalsPerWorker = 3, 4, 60
		cfg.ResetPeriod = 7
		cfg.NeighborhoodSize = hood
		cfg.Criteria = DefaultAEDBCriteria()
		runs = append(runs, goldenRun{
			name:    fmt.Sprintf("aedb-d100-c2/hood%d", hood),
			problem: func() moo.Problem { return eval.NewProblem(100, 1, eval.WithCommittee(2)) },
			cfg:     cfg,
		})
	}
	return runs
}

// goldenFront is the recorded outcome of one run: a SHA-256 over the
// front's X and F vectors as hex floats (bit-exact, order included) plus
// the run's counters.
type goldenFront struct {
	FrontSHA256 string `json:"front_sha256"`
	FrontSize   int    `json:"front_size"`
	Evaluations int64  `json:"evaluations"`
	Accepted    int64  `json:"accepted"`
	Resets      int64  `json:"resets"`
}

type goldenFrontsFile struct {
	Comment string                 `json:"comment"`
	Runs    map[string]goldenFront `json:"runs"`
}

func recordFront(res *Result) goldenFront {
	var b strings.Builder
	for _, s := range res.Front {
		for _, v := range s.X {
			b.WriteString(strconv.FormatFloat(v, 'x', -1, 64))
			b.WriteByte(' ')
		}
		b.WriteByte('|')
		for _, v := range s.F {
			b.WriteString(strconv.FormatFloat(v, 'x', -1, 64))
			b.WriteByte(' ')
		}
		b.WriteByte('\n')
	}
	sum := sha256.Sum256([]byte(b.String()))
	return goldenFront{
		FrontSHA256: hex.EncodeToString(sum[:]),
		FrontSize:   len(res.Front),
		Evaluations: res.Evaluations,
		Accepted:    res.Accepted,
		Resets:      res.Resets,
	}
}

// TestGoldenFronts pins the round-robin AEDB-MLS trajectory bit for bit:
// every committed run must be reproduced exactly by OptimizeSequential,
// at GOMAXPROCS 1 and 4 (the batched committee evaluation of the AEDB
// problem fans out across cores, which must not change a bit).
func TestGoldenFronts(t *testing.T) {
	if *updateGoldenFronts {
		file := goldenFrontsFile{
			Comment: "Bit-exact OptimizeSequential outcomes: SHA-256 of the sorted front's X|F hex floats plus counters. " +
				"Regenerate deliberately with: go test ./internal/core -run TestGoldenFronts -update",
			Runs: map[string]goldenFront{},
		}
		for _, r := range goldenRuns() {
			res, err := OptimizeSequential(r.problem(), r.cfg, nil)
			if err != nil {
				t.Fatalf("%s: %v", r.name, err)
			}
			file.Runs[r.name] = recordFront(res)
		}
		raw, err := json.MarshalIndent(file, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenFrontsPath, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(goldenFrontsPath)
	if err != nil {
		t.Fatalf("golden fronts missing (generate with -update): %v", err)
	}
	var file goldenFrontsFile
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatalf("corrupt golden fronts: %v", err)
	}
	runs := goldenRuns()
	if len(file.Runs) != len(runs) {
		t.Fatalf("golden file has %d runs, test defines %d", len(file.Runs), len(runs))
	}
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("gomaxprocs%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			for _, r := range runs {
				want, ok := file.Runs[r.name]
				if !ok {
					t.Fatalf("%s: not in golden file", r.name)
				}
				res, err := OptimizeSequential(r.problem(), r.cfg, nil)
				if err != nil {
					t.Fatalf("%s: %v", r.name, err)
				}
				if got := recordFront(res); got != want {
					t.Errorf("%s drifted:\n got  %+v\n want %+v", r.name, got, want)
				}
			}
		})
	}
}

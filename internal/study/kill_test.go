package study_test

import (
	"errors"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"syscall"
	"testing"

	"aedbmls/internal/benchproblems"
	"aedbmls/internal/cellde"
	"aedbmls/internal/core"
	"aedbmls/internal/faultinject"
	"aedbmls/internal/moo"
	"aedbmls/internal/nsga2"
	"aedbmls/internal/spea2"
	"aedbmls/internal/study"
)

// The kill/resume equivalence tests are the honest version of the
// checkpoint property: instead of a cooperative AfterSave interruption,
// the checkpointed study runs in a subprocess that faultinject SIGKILLs
// inside study.Save's crash window (temp file written, rename not yet
// issued). The parent then verifies the process really died of SIGKILL,
// loads whatever checkpoint survived on disk, resumes it in-process, and
// requires the final front to be bit-identical to an uninterrupted golden
// run.

const (
	helperEnv = "AEDB_KILL_HELPER" // a checkpointedStudies key
	ckptEnv   = "AEDB_KILL_CKPT"   // checkpoint path handed to the child
)

// killOutcome is what the wall compares: the driver's result plus the
// algorithm's own counters (AEDB-MLS: accepted moves and resets).
type killOutcome struct {
	*study.Result
	counters []int64
}

// checkpointedStudies are the studies the tests below interrupt and
// resume, each with its checkpoint cadence in evaluations.
var checkpointedStudies = map[string]struct {
	every int64
	run   func(p moo.Problem, o study.Options) (killOutcome, error)
}{
	"mls": {40, func(p moo.Problem, o study.Options) (killOutcome, error) {
		cfg := core.TestConfig()
		cfg.Seed, cfg.Options = 424242, o
		res, err := core.OptimizeSequential(p, cfg, nil)
		if err != nil {
			return killOutcome{}, err
		}
		return killOutcome{&res.Result, []int64{res.Accepted, res.Resets}}, nil
	}},
	"nsga2": {60, func(p moo.Problem, o study.Options) (killOutcome, error) {
		cfg := nsga2.TestConfig()
		cfg.Seed, cfg.Options = 434343, o
		res, err := nsga2.Optimize(p, cfg)
		return killOutcome{Result: res}, err
	}},
	"spea2": {60, func(p moo.Problem, o study.Options) (killOutcome, error) {
		cfg := spea2.TestConfig()
		cfg.Seed, cfg.Options = 444444, o
		res, err := spea2.Optimize(p, cfg)
		return killOutcome{Result: res}, err
	}},
	"cellde": {40, func(p moo.Problem, o study.Options) (killOutcome, error) {
		cfg := cellde.TestConfig()
		cfg.Seed, cfg.Options = 454545, o
		res, err := cellde.Optimize(p, cfg)
		return killOutcome{Result: res}, err
	}},
}

// TestHelperKillRun is not a test of its own: it is the subprocess body
// for TestKillResumeEquivalence. Armed through AEDB_FAULTS, it runs a
// checkpointed study and is SIGKILLed mid-save; reaching the end means the
// kill never fired, which the parent detects through the clean exit.
func TestHelperKillRun(t *testing.T) {
	alg := os.Getenv(helperEnv)
	if alg == "" {
		t.Skip("subprocess helper for TestKillResumeEquivalence")
	}
	if _, err := faultinject.ConfigureFromEnv(); err != nil {
		t.Fatal(err)
	}
	k, ok := checkpointedStudies[alg]
	if !ok {
		t.Fatalf("unknown helper algorithm %q", alg)
	}
	ctrl := &study.Controller{Path: os.Getenv(ckptEnv), Every: k.every}
	if _, err := k.run(benchproblems.ZDT1(6), study.Options{Checkpoint: ctrl}); err != nil {
		t.Fatal(err)
	}
}

// killCheckpointedRun executes the helper subprocess with a kill rule
// armed on the second checkpoint save and asserts it died of SIGKILL.
func killCheckpointedRun(t *testing.T, alg, ckpt string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=TestHelperKillRun$")
	cmd.Env = append(os.Environ(),
		helperEnv+"="+alg,
		ckptEnv+"="+ckpt,
		faultinject.EnvVar+"=site=study.save,kind=kill,after=2")
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("helper exited cleanly; the armed kill never fired:\n%s", out)
	}
	var ee *exec.ExitError
	if !errors.As(err, &ee) {
		t.Fatalf("running helper: %v\n%s", err, out)
	}
	ws, ok := ee.Sys().(syscall.WaitStatus)
	if !ok || !ws.Signaled() || ws.Signal() != syscall.SIGKILL {
		t.Fatalf("helper did not die of SIGKILL: %v\n%s", err, out)
	}
}

// loadSurvivor loads the checkpoint that survived the crash and asserts it
// is a mid-run (non-Final) boundary, so the resume below genuinely replays
// work rather than short-circuiting.
func loadSurvivor(t *testing.T, ckpt string) *study.Checkpoint {
	t.Helper()
	cp, err := study.Load(ckpt)
	if err != nil {
		t.Fatalf("no usable checkpoint survived the kill: %v", err)
	}
	if cp.Final {
		t.Fatal("surviving checkpoint is Final; the kill fired too late to exercise resume")
	}
	return cp
}

func sameFronts(t *testing.T, want, got []*moo.Solution) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("front sizes differ: %d vs %d", len(want), len(got))
	}
	for i := range want {
		for j := range want[i].X {
			if math.Float64bits(want[i].X[j]) != math.Float64bits(got[i].X[j]) {
				t.Fatalf("solution %d: X[%d] = %v vs %v", i, j, want[i].X[j], got[i].X[j])
			}
		}
		for j := range want[i].F {
			if math.Float64bits(want[i].F[j]) != math.Float64bits(got[i].F[j]) {
				t.Fatalf("solution %d: F[%d] = %v vs %v", i, j, want[i].F[j], got[i].F[j])
			}
		}
	}
}

// TestKillResumeEquivalence is the hard checkpoint property: a study
// SIGKILLed mid-run and resumed from its surviving checkpoint produces a
// final front and population bit-identical to the uninterrupted golden
// run, with the same counters — for the round-robin MLS and for each
// MOEA.
func TestKillResumeEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess kill/resume test")
	}
	p := benchproblems.ZDT1(6)
	for _, alg := range []string{"mls", "nsga2", "spea2", "cellde"} {
		t.Run(alg, func(t *testing.T) {
			k := checkpointedStudies[alg]
			golden, err := k.run(p, study.Options{})
			if err != nil {
				t.Fatal(err)
			}
			ckpt := filepath.Join(t.TempDir(), alg+".ckpt")
			killCheckpointedRun(t, alg, ckpt)
			res, err := k.run(p, study.Options{Resume: loadSurvivor(t, ckpt)})
			if err != nil {
				t.Fatal(err)
			}
			sameFronts(t, golden.Front, res.Front)
			sameFronts(t, golden.Population, res.Population)
			if res.Evaluations != golden.Evaluations || res.Iterations != golden.Iterations ||
				!slices.Equal(res.counters, golden.counters) {
				t.Fatalf("counters diverged: resumed %d/%d/%v, golden %d/%d/%v",
					res.Evaluations, res.Iterations, res.counters,
					golden.Evaluations, golden.Iterations, golden.counters)
			}
		})
	}
}

// TestResumeRefusesEmptyPopulation: a checkpoint that passes its checks —
// valid checksum, matching fingerprint — but holds no member to select
// from is refused with an error instead of panicking in the first step.
func TestResumeRefusesEmptyPopulation(t *testing.T) {
	p := benchproblems.ZDT1(6)
	for _, tc := range []struct {
		name, alg string
		empty     func(*study.Checkpoint)
	}{
		{"mls", "mls", func(cp *study.Checkpoint) { cp.Workers = nil }},
		{"nsga2", "nsga2", func(cp *study.Checkpoint) { cp.Population = nil }},
		// A field NSGA-II does not read does not count as a population.
		{"nsga2-elite-only", "nsga2", func(cp *study.Checkpoint) { cp.Population, cp.Elite = nil, cp.Population }},
		{"spea2", "spea2", func(cp *study.Checkpoint) { cp.Population, cp.Elite = nil, nil }},
		{"cellde", "cellde", func(cp *study.Checkpoint) { cp.Grid = nil }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			alg, empty := tc.alg, tc.empty
			k := checkpointedStudies[alg]
			path := filepath.Join(t.TempDir(), alg+".ckpt")
			ctrl := &study.Controller{Path: path, Every: k.every, AfterSave: func(*study.Checkpoint) error {
				return study.ErrStop
			}}
			if _, err := k.run(p, study.Options{Checkpoint: ctrl}); err != nil {
				t.Fatal(err)
			}
			cp, err := study.Load(path)
			if err != nil {
				t.Fatal(err)
			}
			empty(cp)
			if err := study.Save(path, cp); err != nil {
				t.Fatal(err)
			}
			if cp, err = study.Load(path); err != nil {
				t.Fatal(err)
			}
			if _, err := k.run(p, study.Options{Resume: cp}); err == nil {
				t.Fatal("resumed a checkpoint with an empty population")
			}
		})
	}
}

package cellde

import (
	"math"
	"path/filepath"
	"testing"

	"aedbmls/internal/benchproblems"
	"aedbmls/internal/moo"
	"aedbmls/internal/study"
)

func sameSolutions(t *testing.T, want, got []*moo.Solution) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("sizes differ: %d vs %d", len(want), len(got))
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

// TestCheckpointResumeEquivalence: a CellDE run interrupted at a sweep
// boundary and resumed from the checkpoint reproduces the uninterrupted
// grid and front bit for bit (the external crowding archive rides along
// in the checkpoint via archive.CaptureState).
func TestCheckpointResumeEquivalence(t *testing.T) {
	p := benchproblems.ZDT1(8)
	cfg := TestConfig()
	cfg.Seed = 51

	golden, err := Optimize(p, cfg)
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "cellde.ckpt")
	icfg := cfg
	icfg.Checkpoint = &study.Controller{Path: path, Every: 40, AfterSave: func(cp *study.Checkpoint) error {
		if cp.Final {
			return nil
		}
		return study.ErrStop
	}}
	ires, err := Optimize(p, icfg)
	if err != nil {
		t.Fatal(err)
	}
	if !ires.Interrupted || ires.Evaluations >= golden.Evaluations {
		t.Fatalf("interruption did not happen mid-run: interrupted=%v evals=%d", ires.Interrupted, ires.Evaluations)
	}

	cp, err := study.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	rcfg := cfg
	rcfg.Resume = cp
	rres, err := Optimize(p, rcfg)
	if err != nil {
		t.Fatal(err)
	}
	sameSolutions(t, golden.Population, rres.Population)
	sameSolutions(t, golden.Front, rres.Front)
	if rres.Evaluations != golden.Evaluations || rres.Iterations != golden.Iterations {
		t.Fatalf("counters diverged: {%d %d} vs {%d %d}",
			rres.Evaluations, rres.Iterations, golden.Evaluations, golden.Iterations)
	}
}

// TestCheckpointResumeEquivalenceMemetic runs the same property through
// the memetic variant, which routes extra randomness through
// core.ImproveBatch on the shared stream.
func TestCheckpointResumeEquivalenceMemetic(t *testing.T) {
	p := benchproblems.ZDT1(8)
	cfg := Memetic(TestConfig(), 3, 0.2, nil)
	cfg.Seed = 52

	golden, err := Optimize(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "cellde.ckpt")
	icfg := cfg
	icfg.Checkpoint = &study.Controller{Path: path, Every: 40, AfterSave: func(cp *study.Checkpoint) error {
		if cp.Final {
			return nil
		}
		return study.ErrStop
	}}
	ires, err := Optimize(p, icfg)
	if err != nil {
		t.Fatal(err)
	}
	if !ires.Interrupted {
		t.Fatal("memetic run was not interrupted")
	}
	cp, err := study.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	rcfg := cfg
	rcfg.Resume = cp
	rres, err := Optimize(p, rcfg)
	if err != nil {
		t.Fatal(err)
	}
	sameSolutions(t, golden.Front, rres.Front)
}

// TestCheckpointFinalShortCircuit: resuming a Final checkpoint reassembles
// the finished result without spending evaluations.
func TestCheckpointFinalShortCircuit(t *testing.T) {
	p := benchproblems.ZDT1(8)
	cfg := TestConfig()
	cfg.Seed = 53

	path := filepath.Join(t.TempDir(), "cellde.ckpt")
	ccfg := cfg
	ccfg.Checkpoint = &study.Controller{Path: path}
	golden, err := Optimize(p, ccfg)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := study.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !cp.Final {
		t.Fatal("completed run did not write a Final checkpoint")
	}
	rcfg := cfg
	rcfg.Resume = cp
	rres, err := Optimize(p, rcfg)
	if err != nil {
		t.Fatal(err)
	}
	sameSolutions(t, golden.Front, rres.Front)
}

// TestResumeRefusesMismatchedStudy: fingerprints gate the resume.
func TestResumeRefusesMismatchedStudy(t *testing.T) {
	p := benchproblems.ZDT1(8)
	cfg := TestConfig()
	path := filepath.Join(t.TempDir(), "cellde.ckpt")
	ccfg := cfg
	ccfg.Checkpoint = &study.Controller{Path: path}
	if _, err := Optimize(p, ccfg); err != nil {
		t.Fatal(err)
	}
	cp, err := study.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	other := cfg
	other.Seed++
	other.Resume = cp
	if _, err := Optimize(p, other); err == nil {
		t.Fatal("resume accepted a foreign checkpoint")
	}
}

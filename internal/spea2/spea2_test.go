package spea2

import (
	"math"
	"testing"

	"aedbmls/internal/benchproblems"
	"aedbmls/internal/indicators"
	"aedbmls/internal/moo"
)

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := DefaultConfig()
	bad.PopSize = 2
	if bad.Validate() == nil {
		t.Error("tiny population accepted")
	}
	bad = DefaultConfig()
	bad.Evaluations = 10
	if bad.Validate() == nil {
		t.Error("budget below population accepted")
	}
}

func TestOptimizeZDT1Converges(t *testing.T) {
	p := benchproblems.ZDT1(6)
	cfg := Config{PopSize: 40, ArchiveSize: 40, Evaluations: 4000, Pc: 0.9, EtaC: 20, EtaM: 20, Seed: 1}
	res, err := Optimize(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Front) == 0 {
		t.Fatal("empty front")
	}
	var pts [][]float64
	for _, s := range res.Front {
		pts = append(pts, s.F)
	}
	igd := indicators.IGD(pts, benchproblems.ZDT1Front(101))
	if igd > 0.08 {
		t.Fatalf("IGD = %v, want < 0.08 after 4000 evaluations", igd)
	}
}

func TestBudgetRespected(t *testing.T) {
	p := benchproblems.Fonseca(3)
	cfg := TestConfig()
	cfg.Seed = 2
	res, err := Optimize(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Evaluations > int64(cfg.Evaluations) {
		t.Fatalf("overspent: %d of %d", res.Evaluations, cfg.Evaluations)
	}
	if len(res.Population) > cfg.ArchiveSize {
		t.Fatalf("archive %d exceeds cap %d", len(res.Population), cfg.ArchiveSize)
	}
}

func TestDeterministic(t *testing.T) {
	p := benchproblems.Schaffer()
	cfg := TestConfig()
	cfg.Seed = 3
	r1, _ := Optimize(p, cfg)
	r2, _ := Optimize(p, cfg)
	if len(r1.Front) != len(r2.Front) {
		t.Fatalf("front sizes differ: %d vs %d", len(r1.Front), len(r2.Front))
	}
	for i := range r1.Front {
		if !moo.EqualF(r1.Front[i], r2.Front[i]) {
			t.Fatal("same-seed runs diverged")
		}
	}
}

func TestConstrainedFrontFeasible(t *testing.T) {
	p := benchproblems.ConstrainedSchaffer()
	cfg := TestConfig()
	cfg.Seed = 4
	res, err := Optimize(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.Front {
		if !s.Feasible() {
			t.Fatalf("infeasible front member %v", s)
		}
		if s.X[0] < 0.5-1e-9 {
			t.Fatalf("constraint violated: x=%v", s.X[0])
		}
	}
}

func TestFitnessOfNonDominatedBelowOne(t *testing.T) {
	mk := func(f0, f1 float64) *moo.Solution { return &moo.Solution{F: []float64{f0, f1}} }
	sols := []*moo.Solution{
		mk(0, 1), mk(0.5, 0.5), mk(1, 0), // non-dominated
		mk(2, 2), // dominated by all three
	}
	fit := fitnessOf(sols)
	for i := 0; i < 3; i++ {
		if fit[i] >= 1 {
			t.Fatalf("non-dominated solution %d has fitness %v >= 1", i, fit[i])
		}
	}
	if fit[3] < 1 {
		t.Fatalf("dominated solution has fitness %v < 1", fit[3])
	}
	// The dominated one accumulates the strengths of its 3 dominators,
	// each dominating exactly 1 solution: raw fitness 3.
	if fit[3] < 3 || fit[3] >= 4 {
		t.Fatalf("raw fitness wrong: %v, want in [3, 4)", fit[3])
	}
}

func TestTruncationKeepsSpread(t *testing.T) {
	// A clustered group plus isolated extremes: truncation removes from
	// the cluster first.
	var sols []*moo.Solution
	sols = append(sols, &moo.Solution{F: []float64{0, 1}})
	sols = append(sols, &moo.Solution{F: []float64{1, 0}})
	for i := 0; i < 8; i++ {
		x := 0.5 + 0.001*float64(i)
		sols = append(sols, &moo.Solution{F: []float64{x, 1 - x}})
	}
	out := truncate(sols, 4)
	if len(out) != 4 {
		t.Fatalf("size = %d", len(out))
	}
	hasLeft, hasRight := false, false
	for _, s := range out {
		if s.F[0] == 0 {
			hasLeft = true
		}
		if s.F[1] == 0 {
			hasRight = true
		}
	}
	if !hasLeft || !hasRight {
		t.Fatal("truncation removed extreme solutions")
	}
}

func TestEnvironmentalSelectionTopUp(t *testing.T) {
	mk := func(f0, f1 float64) *moo.Solution { return &moo.Solution{F: []float64{f0, f1}} }
	union := []*moo.Solution{
		mk(0, 1), mk(1, 0), // non-dominated
		mk(2, 2), mk(3, 3), mk(4, 4), // chain of dominated
	}
	fit := fitnessOf(union)
	out := environmentalSelection(union, fit, 3)
	if len(out) != 3 {
		t.Fatalf("size = %d", len(out))
	}
	// The best dominated (2,2) fills the third slot.
	found := false
	for _, s := range out {
		if s.F[0] == 2 {
			found = true
		}
		if s.F[0] == 4 {
			t.Fatal("worst dominated solution selected")
		}
	}
	if !found {
		t.Fatal("top-up skipped the best dominated solution")
	}
}

func TestLexLess(t *testing.T) {
	if !lexLess([]float64{1, 5}, []float64{2, 0}) {
		t.Error("first-component comparison failed")
	}
	if !lexLess([]float64{1, 2}, []float64{1, 3}) {
		t.Error("tie-break comparison failed")
	}
	if lexLess([]float64{1, 3}, []float64{1, 2}) {
		t.Error("inverse tie-break wrong")
	}
	if !lexLess([]float64{1}, []float64{1, 0}) {
		t.Error("shorter vector should compare less")
	}
}

func TestFrontQualityVsDiversity(t *testing.T) {
	// SPEA2's k-NN density must keep the ZDT2 concave front covered.
	p := benchproblems.ZDT2(6)
	cfg := Config{PopSize: 40, ArchiveSize: 40, Evaluations: 4000, Pc: 0.9, EtaC: 20, EtaM: 20, Seed: 5}
	res, err := Optimize(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	minF0, maxF0 := math.Inf(1), math.Inf(-1)
	for _, s := range res.Front {
		minF0 = math.Min(minF0, s.F[0])
		maxF0 = math.Max(maxF0, s.F[0])
	}
	if maxF0-minF0 < 0.6 {
		t.Fatalf("front span = %v, want broad coverage", maxF0-minF0)
	}
}

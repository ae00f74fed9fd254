package nsga2

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
	bad.PopSize = 3
	if bad.Validate() == nil {
		t.Error("pop 3 accepted")
	}
	bad = DefaultConfig()
	bad.PopSize = 21
	if bad.Validate() == nil {
		t.Error("odd pop accepted")
	}
	bad = DefaultConfig()
	bad.Evaluations = 10
	if bad.Validate() == nil {
		t.Error("budget below pop accepted")
	}
}

func TestDefaultConfigMatchesPaper(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.PopSize != 100 || cfg.Evaluations != 10000 {
		t.Fatalf("paper budget wrong: %+v", cfg)
	}
}

func TestOptimizeZDT1Converges(t *testing.T) {
	p := benchproblems.ZDT1(6)
	cfg := Config{PopSize: 40, Evaluations: 4000, Pc: 0.9, EtaC: 20, EtaM: 20, Seed: 1}
	res, err := Optimize(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Front) == 0 {
		t.Fatal("empty front")
	}
	if res.Evaluations > int64(cfg.Evaluations) {
		t.Fatalf("overspent: %d > %d", res.Evaluations, cfg.Evaluations)
	}
	// Convergence: IGD to the true front must be small (raw units; the
	// ZDT1 front spans [0,1]^2).
	var pts [][]float64
	for _, s := range res.Front {
		pts = append(pts, s.F)
	}
	igd := indicators.IGD(pts, benchproblems.ZDT1Front(101))
	if igd > 0.05 {
		t.Fatalf("IGD = %v, want < 0.05 after 4000 evaluations", igd)
	}
}

func TestOptimizeConstrainedFrontFeasible(t *testing.T) {
	p := benchproblems.ConstrainedSchaffer()
	cfg := TestConfig()
	cfg.Evaluations = 600
	cfg.Seed = 2
	res, err := Optimize(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Front) == 0 {
		t.Fatal("empty front")
	}
	for _, s := range res.Front {
		if !s.Feasible() {
			t.Fatalf("infeasible front member %v", s)
		}
		if s.X[0] < 0.5-1e-9 {
			t.Fatalf("front member violates constraint: x=%v", s.X[0])
		}
	}
}

func TestOptimizeDeterministic(t *testing.T) {
	p := benchproblems.Schaffer()
	cfg := TestConfig()
	cfg.Seed = 3
	r1, err := Optimize(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Optimize(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Front) != len(r2.Front) {
		t.Fatalf("front sizes differ: %d vs %d", len(r1.Front), len(r2.Front))
	}
	for i := range r1.Front {
		if !moo.EqualF(r1.Front[i], r2.Front[i]) {
			t.Fatal("same-seed runs diverged")
		}
	}
}

func TestSeedsProduceDifferentRuns(t *testing.T) {
	p := benchproblems.ZDT1(4)
	cfg := TestConfig()
	cfg.Seed = 4
	r1, _ := Optimize(p, cfg)
	cfg.Seed = 5
	r2, _ := Optimize(p, cfg)
	same := len(r1.Front) == len(r2.Front)
	if same {
		for i := range r1.Front {
			if !moo.EqualF(r1.Front[i], r2.Front[i]) {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical fronts")
	}
}

func TestEnvironmentalSelection(t *testing.T) {
	mk := func(f0, f1 float64) *moo.Solution {
		return &moo.Solution{F: []float64{f0, f1}}
	}
	// Front 0: three points; front 1: two dominated points.
	merged := []*moo.Solution{
		mk(0, 1), mk(0.5, 0.5), mk(1, 0),
		mk(2, 2), mk(3, 3),
	}
	out := environmentalSelection(merged, 3)
	if len(out) != 3 {
		t.Fatalf("selected %d, want 3", len(out))
	}
	for _, s := range out {
		if s.F[0] > 1 {
			t.Fatal("dominated solution selected ahead of front 0")
		}
	}
	// Truncation keeps extremes: pick 2 of front 0.
	out = environmentalSelection(merged[:3], 2)
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
		t.Fatalf("crowding truncation lost an extreme: %v", out)
	}
}

func TestPopulationSizeStable(t *testing.T) {
	p := benchproblems.Fonseca(3)
	cfg := TestConfig()
	cfg.Seed = 6
	res, err := Optimize(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Population) != cfg.PopSize {
		t.Fatalf("final population %d, want %d", len(res.Population), cfg.PopSize)
	}
	if res.Iterations < 2 {
		t.Fatalf("generations = %d", res.Iterations)
	}
}

func TestFrontSpreadOnZDT3(t *testing.T) {
	// ZDT3 has a disconnected front; NSGA-II should populate several
	// disconnected regions (f0 clusters).
	p := benchproblems.ZDT3(6)
	cfg := Config{PopSize: 40, Evaluations: 4000, Pc: 0.9, EtaC: 20, EtaM: 20, Seed: 7}
	res, err := Optimize(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	minF0, maxF0 := math.Inf(1), math.Inf(-1)
	for _, s := range res.Front {
		minF0 = math.Min(minF0, s.F[0])
		maxF0 = math.Max(maxF0, s.F[0])
	}
	if maxF0-minF0 < 0.5 {
		t.Fatalf("front collapsed: f0 span = %v", maxF0-minF0)
	}
}

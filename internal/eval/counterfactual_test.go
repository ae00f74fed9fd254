package eval

import (
	"math"
	"testing"

	"aedbmls/internal/aedb"
	"aedbmls/internal/manet"
)

// metricsBits compares two Metrics values bit-for-bit (stricter than ==,
// which would conflate 0 and -0).
func metricsBits(t *testing.T, name string, got, want Metrics) {
	t.Helper()
	pairs := [][2]float64{
		{got.EnergyDBmSum, want.EnergyDBmSum},
		{got.Coverage, want.Coverage},
		{got.Forwardings, want.Forwardings},
		{got.BroadcastTime, want.BroadcastTime},
		{got.EnergyMJ, want.EnergyMJ},
		{got.Collisions, want.Collisions},
	}
	for i, p := range pairs {
		if math.Float64bits(p[0]) != math.Float64bits(p[1]) {
			t.Errorf("%s: metrics field %d not bit-identical: got %v (%#x), want %v (%#x)",
				name, i, p[0], math.Float64bits(p[0]), p[1], math.Float64bits(p[1]))
		}
	}
}

// TestCounterfactualBitIdenticalToFreshSimulation is the acceptance wall
// of the counterfactual replayer: for every golden-corpus (density,
// seed) pair, re-scoring scenario 0 under a perturbed gene vector must
// reproduce — bit for bit — a fresh full simulation of that perturbed
// candidate on the same scenario (manet.New + full Run, no snapshot, no
// tape, no quiescence early-stop). Fast beacons replay the tape; the
// frame-level rows (FastBeacons off, no tape) run the restored beacons
// live, and both stop at quiescence.
func TestCounterfactualBitIdenticalToFreshSimulation(t *testing.T) {
	// A perturbation off both golden parameter vectors: shorter delays,
	// shifted border, larger margin.
	perturbed := aedb.FromVector([]float64{0.07, 0.61, -82.5, 1.4, 13})
	for _, fast := range []bool{true, false} {
		for _, density := range []int{100, 200, 300} {
			for seed := uint64(1); seed <= 4; seed++ {
				cfg := manet.DefaultScenario(DensityNodes[density])
				cfg.FastBeacons = fast
				p := NewProblem(density, seed, WithCommittee(1), WithConfig(cfg))
				cf, err := p.CounterfactualScenario(0)
				if err != nil {
					t.Fatalf("fast=%v d%d seed %d: %v", fast, density, seed, err)
				}
				got := cf.Score(perturbed)

				sc := p.scenarios[0]
				net, err := manet.New(p.cfg, sc.seed, aedb.New(perturbed))
				if err != nil {
					t.Fatalf("fast=%v d%d seed %d: fresh build: %v", fast, density, seed, err)
				}
				st := net.StartBroadcast(sc.source, p.cfg.WarmupTime)
				net.Run()
				want := scenarioTerm(st, net)

				metricsBits(t, t.Name(), got, want)
				if t.Failed() {
					t.Fatalf("fast=%v d%d seed %d: counterfactual replay diverged from fresh simulation", fast, density, seed)
				}
			}
		}
	}
}

// TestCounterfactualScoreIsRepeatable guards the replay substrate
// against cross-call state leaks: scoring the same params twice on one
// Counterfactual must be bit-identical.
func TestCounterfactualScoreIsRepeatable(t *testing.T) {
	p := NewProblem(100, 3, WithCommittee(1))
	cf, err := p.CounterfactualScenario(0)
	if err != nil {
		t.Fatal(err)
	}
	params := aedb.FromVector([]float64{0.1, 0.5, -80, 1, 10})
	metricsBits(t, t.Name(), cf.Score(params), cf.Score(params))
}

// TestCounterfactualStripsHooks: a config carrying trace hooks (the shape
// aedb-sim -trace produces) must not leak them into replays, and must
// still be buildable.
func TestCounterfactualStripsHooks(t *testing.T) {
	cfg := manet.DefaultScenario(25)
	fired := false
	cfg.OnDecision = func(manet.Decision) { fired = true }
	cfg.OnDataTx = func(int, int, float64, float64) { fired = true }
	cf, err := NewCounterfactual(cfg, 11, 0)
	if err != nil {
		t.Fatal(err)
	}
	cf.Score(aedb.FromVector([]float64{0.1, 0.5, -80, 1, 10}))
	if fired {
		t.Fatal("counterfactual replay invoked a hook from the recording config")
	}
}

// TestCounterfactualRejectsBadInput covers the refusal paths.
func TestCounterfactualRejectsBadInput(t *testing.T) {
	cfg := manet.DefaultScenario(10)
	if _, err := NewCounterfactual(cfg, 1, 10); err == nil {
		t.Fatal("out-of-range source accepted")
	}
	if _, err := NewCounterfactual(cfg, 1, -1); err == nil {
		t.Fatal("negative source accepted")
	}
	p := NewProblem(100, 1, WithCommittee(2))
	if _, err := p.CounterfactualScenario(2); err == nil {
		t.Fatal("out-of-committee scenario accepted")
	}
}

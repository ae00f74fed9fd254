package cellde

import (
	"testing"

	"aedbmls/internal/benchproblems"
	"aedbmls/internal/moo"
)

// batchCapable upgrades a problem to moo.BatchProblem by delegation.
type batchCapable struct {
	moo.Problem
	batches int
}

func (b *batchCapable) EvaluateBatch(xs [][]float64) []moo.BatchResult {
	b.batches++
	out := make([]moo.BatchResult, len(xs))
	for i, x := range xs {
		f, v, aux := b.Evaluate(x)
		out[i] = moo.BatchResult{F: f, Violation: v, Aux: aux}
	}
	return out
}

// TestBatchEvaluationEquivalence: the batched initial grid must be
// behaviour-neutral for a full CellDE run (the asynchronous sweeps are
// sequential by design and shared between both runs).
func TestBatchEvaluationEquivalence(t *testing.T) {
	cfg := TestConfig()
	cfg.Seed = 3
	plain, err := Optimize(benchproblems.ZDT1(6), cfg)
	if err != nil {
		t.Fatal(err)
	}
	wrapped := &batchCapable{Problem: benchproblems.ZDT1(6)}
	batched, err := Optimize(wrapped, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Evaluations != batched.Evaluations || plain.Iterations != batched.Iterations {
		t.Fatalf("budgets diverge: %d/%d sweeps vs %d/%d", plain.Evaluations, plain.Iterations, batched.Evaluations, batched.Iterations)
	}
	for i := range plain.Population {
		if !moo.EqualF(plain.Population[i], batched.Population[i]) {
			t.Fatalf("grid cell %d differs", i)
		}
	}
	if wrapped.batches != 1 {
		t.Fatalf("batch calls = %d, want exactly 1 (the initial grid)", wrapped.batches)
	}
}

// TestMemeticLocalSearchBatch: the memetic hybrid with batched local
// search spends the same budget shape and still returns a feasible,
// sorted front.
func TestMemeticLocalSearchBatch(t *testing.T) {
	cfg := Memetic(TestConfig(), 4, 0.2, nil)
	cfg.LocalSearchBatch = 4
	cfg.Seed = 11
	res, err := Optimize(&batchCapable{Problem: benchproblems.ZDT1(5)}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Evaluations < int64(cfg.PopSize) {
		t.Fatalf("suspicious evaluation count %d", res.Evaluations)
	}
	if len(res.Front) == 0 {
		t.Fatal("empty front")
	}
	for _, s := range res.Front {
		if !s.Feasible() {
			t.Fatal("infeasible front member")
		}
	}
}

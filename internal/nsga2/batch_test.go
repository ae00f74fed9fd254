package nsga2

import (
	"testing"

	"aedbmls/internal/benchproblems"
	"aedbmls/internal/moo"
)

// batchCapable upgrades a problem to moo.BatchProblem by delegation,
// counting batch traffic.
type batchCapable struct {
	moo.Problem
	batches, vectors int
}

func (b *batchCapable) EvaluateBatch(xs [][]float64) []moo.BatchResult {
	b.batches++
	b.vectors += len(xs)
	out := make([]moo.BatchResult, len(xs))
	for i, x := range xs {
		f, v, aux := b.Evaluate(x)
		out[i] = moo.BatchResult{F: f, Violation: v, Aux: aux}
	}
	return out
}

// TestBatchEvaluationEquivalence: NSGA-II run on a batch-capable problem
// must reproduce the plain run exactly — whole populations and offspring
// generations are evaluated together, and that must be behaviour-neutral.
func TestBatchEvaluationEquivalence(t *testing.T) {
	cfg := TestConfig()
	cfg.Seed = 7
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
		t.Fatalf("budgets diverge: %d/%d vs %d/%d gens",
			plain.Evaluations, plain.Iterations, batched.Evaluations, batched.Iterations)
	}
	if len(plain.Population) != len(batched.Population) {
		t.Fatalf("population sizes %d vs %d", len(plain.Population), len(batched.Population))
	}
	for i := range plain.Population {
		if !moo.EqualF(plain.Population[i], batched.Population[i]) {
			t.Fatalf("population member %d differs", i)
		}
	}
	// One batch per generation plus the initial population.
	if want := int(plain.Iterations) + 1; wrapped.batches != want {
		t.Fatalf("batch calls = %d, want %d", wrapped.batches, want)
	}
	if wrapped.vectors != int(plain.Evaluations) {
		t.Fatalf("batched vectors = %d, want %d", wrapped.vectors, plain.Evaluations)
	}
}

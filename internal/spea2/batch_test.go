package spea2

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

// TestBatchEvaluationEquivalence: SPEA2 on a batch-capable problem must
// reproduce the plain run exactly.
func TestBatchEvaluationEquivalence(t *testing.T) {
	cfg := TestConfig()
	cfg.Seed = 13
	plain, err := Optimize(benchproblems.ZDT1(6), cfg)
	if err != nil {
		t.Fatal(err)
	}
	wrapped := &batchCapable{Problem: benchproblems.ZDT1(6)}
	batched, err := Optimize(wrapped, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Evaluations != batched.Evaluations {
		t.Fatalf("evaluation counts %d vs %d", plain.Evaluations, batched.Evaluations)
	}
	if len(plain.Population) != len(batched.Population) {
		t.Fatalf("archive sizes %d vs %d", len(plain.Population), len(batched.Population))
	}
	for i := range plain.Population {
		if !moo.EqualF(plain.Population[i], batched.Population[i]) {
			t.Fatalf("archive member %d differs", i)
		}
	}
	if wrapped.batches == 0 {
		t.Fatal("batch path never used")
	}
}

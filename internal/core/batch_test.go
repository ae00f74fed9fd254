package core

import (
	"sync/atomic"
	"testing"

	"aedbmls/internal/benchproblems"
	"aedbmls/internal/moo"
	"aedbmls/internal/operators"
	"aedbmls/internal/rng"
)

// batchCapable upgrades any problem to a moo.BatchProblem whose batch
// path trivially delegates to Evaluate, plus a call counter — enough to
// verify that routing through the batch API never changes results. The
// counters are atomic because threaded Optimize workers batch
// concurrently.
type batchCapable struct {
	moo.Problem
	batches atomic.Int64
	vectors atomic.Int64
}

func (b *batchCapable) EvaluateBatch(xs [][]float64) []moo.BatchResult {
	b.batches.Add(1)
	b.vectors.Add(int64(len(xs)))
	out := make([]moo.BatchResult, len(xs))
	for i, x := range xs {
		f, v, aux := b.Evaluate(x)
		out[i] = moo.BatchResult{F: f, Violation: v, Aux: aux}
	}
	return out
}

func assertFrontsEqual(t *testing.T, name string, a, b *Result) {
	t.Helper()
	if len(a.Front) != len(b.Front) {
		t.Fatalf("%s: front sizes %d vs %d", name, len(a.Front), len(b.Front))
	}
	for i := range a.Front {
		if !moo.EqualF(a.Front[i], b.Front[i]) {
			t.Fatalf("%s: front member %d differs", name, i)
		}
	}
	if a.Evaluations != b.Evaluations {
		t.Fatalf("%s: evaluation counts %d vs %d", name, a.Evaluations, b.Evaluations)
	}
}

// TestSequentialMatchesParallelSingleWorkerBatched extends the
// single-worker equivalence to the batched neighborhood step: with one
// population and one worker, the threaded and round-robin executions must
// agree exactly for any NeighborhoodSize, on a batch-capable problem.
func TestSequentialMatchesParallelSingleWorkerBatched(t *testing.T) {
	for _, k := range []int{2, 4, 7} {
		p := &batchCapable{Problem: benchproblems.ZDT1(4)}
		cfg := TestConfig()
		cfg.Populations = 1
		cfg.Workers = 1
		cfg.EvalsPerWorker = 90
		cfg.NeighborhoodSize = k
		cfg.Seed = 21
		seq, err := OptimizeSequential(p, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		par, err := Optimize(p, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		assertFrontsEqual(t, "seq-vs-par", seq, par)
		if p.batches.Load() == 0 {
			t.Fatal("neighborhood step never used the batch path")
		}
	}
}

// TestBatchRoutingDoesNotChangeResults: the same configuration optimised
// on a plain problem and on its batch-capable twin must produce identical
// fronts — EvaluateAll routing is behaviour-neutral.
func TestBatchRoutingDoesNotChangeResults(t *testing.T) {
	cfg := TestConfig()
	cfg.NeighborhoodSize = 3
	cfg.EvalsPerWorker = 30
	cfg.Seed = 77
	plain, err := OptimizeSequential(benchproblems.ZDT1(5), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	batched, err := OptimizeSequential(&batchCapable{Problem: benchproblems.ZDT1(5)}, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	assertFrontsEqual(t, "plain-vs-batched", plain, batched)
}

// TestNeighborhoodBudgetRespected: the batched step clamps its last
// neighborhood so the per-worker budget is met exactly, never exceeded.
func TestNeighborhoodBudgetRespected(t *testing.T) {
	cfg := TestConfig()
	cfg.NeighborhoodSize = 7 // does not divide the budget
	cfg.EvalsPerWorker = 25
	cfg.Seed = 5
	res, err := Optimize(&batchCapable{Problem: benchproblems.ZDT1(4)}, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	budget := int64(cfg.Populations * cfg.Workers * cfg.EvalsPerWorker)
	if res.Evaluations != budget {
		t.Fatalf("evaluations = %d, want exactly %d", res.Evaluations, budget)
	}
}

// TestNeighborhoodSizeValidation: negative sizes are rejected, zero and
// one behave like the paper's single-candidate step.
func TestNeighborhoodSizeValidation(t *testing.T) {
	cfg := TestConfig()
	cfg.NeighborhoodSize = -1
	if err := cfg.Validate(); err == nil {
		t.Fatal("negative NeighborhoodSize accepted")
	}
	for _, k := range []int{0, 1} {
		cfg := TestConfig()
		cfg.NeighborhoodSize = k
		cfg.Seed = 31
		a, err := OptimizeSequential(benchproblems.ZDT1(4), cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		base := TestConfig()
		base.Seed = 31
		b, err := OptimizeSequential(benchproblems.ZDT1(4), base, nil)
		if err != nil {
			t.Fatal(err)
		}
		assertFrontsEqual(t, "degenerate-neighborhood", a, b)
	}
}

// TestImproveBatchMatchesImprove: with batch size one every move perturbs
// the previous accepted solution — exactly the draws and acceptance of the
// hand-rolled chained improvement below — and larger batches still spend
// the same budget and only ever return feasible improvements.
func TestImproveBatchMatchesImprove(t *testing.T) {
	p := benchproblems.ZDT1(4)
	lo, hi := p.Bounds()
	start := moo.NewSolution(p, []float64{0.5, 0.5, 0.5, 0.5})
	pop := []*moo.Solution{moo.NewSolution(p, append([]float64(nil), lo...))}
	crits := PerDimensionCriteria(p.Dim())

	r := rng.New(3)
	want := start
	for i := 0; i < 12; i++ {
		ref := pop[r.Intn(len(pop))]
		crit := crits[r.Intn(len(crits))]
		cand := moo.NewSolution(p, operators.PerturbBLX(want.X, ref.X, crit.Params, 0.2, lo, hi, r))
		if cand.Feasible() && !moo.Dominates(want, cand) {
			want = cand
		}
	}
	got, spent := ImproveBatch(p, start, pop, 12, 1, 0.2, nil, rng.New(3))
	if spent != 12 {
		t.Fatalf("spent = %d, want 12", spent)
	}
	if !moo.EqualF(want, got) {
		t.Fatalf("batch=1 diverged from the chained search: %v vs %v", want, got)
	}

	c, spentC := ImproveBatch(&batchCapable{Problem: p}, start, pop, 12, 5, 0.2, nil, rng.New(3))
	if spentC != 12 {
		t.Fatalf("batched spend = %d, want 12", spentC)
	}
	if moo.Dominates(start, c) {
		t.Fatal("ImproveBatch returned a solution dominated by its start")
	}
}

package core

import (
	"sync/atomic"
	"testing"

	"aedbmls/internal/archive"
	"aedbmls/internal/benchproblems"
	"aedbmls/internal/moo"
)

// countingProblem counts the Evaluate calls that reach the wrapped
// problem.
type countingProblem struct {
	moo.Problem
	calls atomic.Int64
}

func (c *countingProblem) Evaluate(x []float64) ([]float64, float64, any) {
	c.calls.Add(1)
	return c.Problem.Evaluate(x)
}

// TestIncumbentMoveIsNotReevaluated: with one population of one worker
// the reference is always the worker itself, so every BLX move
// reproduces the incumbent. The step charges each to the budget but the
// problem sees only initialise's evaluation, and the run's outcome
// equals that of an unwrapped run.
func TestIncumbentMoveIsNotReevaluated(t *testing.T) {
	cfg := TestConfig()
	cfg.Populations, cfg.Workers, cfg.EvalsPerWorker = 1, 1, 60
	cfg.Seed = 9
	for name, run := range map[string]func(moo.Problem, Config, archive.Interface) (*Result, error){
		"sequential": OptimizeSequential,
		"threaded":   Optimize,
	} {
		p := &countingProblem{Problem: benchproblems.ZDT1(5)}
		got, err := run(p, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		want, err := run(benchproblems.ZDT1(5), cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		// ZDT1 is unconstrained: initialise's first draw is its start.
		if n := p.calls.Load(); n != 1 {
			t.Errorf("%s: problem evaluated %d times, want 1 (initialise only)", name, n)
		}
		if got.Evaluations != int64(cfg.EvalsPerWorker) {
			t.Errorf("%s: Evaluations = %d, want the budget %d", name, got.Evaluations, cfg.EvalsPerWorker)
		}
		if got.Accepted != int64(cfg.EvalsPerWorker-1) {
			t.Errorf("%s: Accepted = %d, want every one of the %d moves", name, got.Accepted, cfg.EvalsPerWorker-1)
		}
		if got.Accepted != want.Accepted || got.Resets != want.Resets {
			t.Errorf("%s: accepted/resets %d/%d, unwrapped run %d/%d", name, got.Accepted, got.Resets, want.Accepted, want.Resets)
		}
		assertFrontsEqual(t, name, got, want)
	}
}

// TestIncumbentReuseGoldenCallCount pins how many of the golden
// zdt1-5/hood0/seed1 run's 720 evaluations reach the problem.
func TestIncumbentReuseGoldenCallCount(t *testing.T) {
	for _, r := range goldenRuns() {
		if r.name != "zdt1-5/hood0/seed1" {
			continue
		}
		p := &countingProblem{Problem: r.problem()}
		res, err := OptimizeSequential(p, r.cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Evaluations != 720 || p.calls.Load() != 499 {
			t.Fatalf("%d evaluations, %d problem calls; want 720 and 499", res.Evaluations, p.calls.Load())
		}
		return
	}
	t.Fatal("golden run zdt1-5/hood0/seed1 not defined")
}

// TestIncumbentMovesStillBatched: a batched step evaluates every
// candidate, incumbent copies included, through EvaluateBatch, where a
// screening ladder may judge the batch as a whole.
func TestIncumbentMovesStillBatched(t *testing.T) {
	cfg := TestConfig()
	cfg.Populations, cfg.Workers = 1, 1
	cfg.EvalsPerWorker = 41 // initialise's draw, then ten full batches
	cfg.NeighborhoodSize = 4
	cfg.Seed = 9
	inner := &countingProblem{Problem: benchproblems.ZDT1(5)}
	p := &batchCapable{Problem: inner}
	res, err := OptimizeSequential(p, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Evaluations != 41 || p.vectors.Load() != 40 || p.batches.Load() != 10 {
		t.Fatalf("%d evaluations, %d vectors in %d batches; want 41, 40 and 10",
			res.Evaluations, p.vectors.Load(), p.batches.Load())
	}
	if n := inner.calls.Load(); n != 41 {
		t.Fatalf("problem evaluated %d times, want 41", n)
	}
}

// TestIncumbentMoveEvaluatedAfterStop: once a stop is requested the
// problem may abandon an evaluation, so an incumbent copy goes to the
// problem as before.
func TestIncumbentMoveEvaluatedAfterStop(t *testing.T) {
	cfg := TestConfig()
	cfg.Populations, cfg.Workers = 1, 1
	p := &countingProblem{Problem: benchproblems.ZDT1(5)}
	e, err := newEngine(p, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	w, pop := e.pops[0][0], e.pops[0]
	if !e.initialise(w) {
		t.Fatal("no feasible start")
	}
	e.step(w, pop)
	if n := p.calls.Load(); n != 1 {
		t.Fatalf("incumbent move evaluated before the stop: %d calls, want 1", n)
	}
	stop := make(chan struct{})
	close(stop)
	e.cfg.Stop = stop
	e.step(w, pop)
	if n := p.calls.Load(); n != 2 {
		t.Fatalf("after the stop the incumbent move made %d calls in all, want 2", n)
	}
	if w.spent != 3 || e.evals.Load() != 3 {
		t.Fatalf("spent %d, evals %d; want 3 and 3", w.spent, e.evals.Load())
	}
}

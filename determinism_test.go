// End-to-end determinism of the tuned stack: the round-robin execution
// must be bit-reproducible for a fixed seed with every combination of the
// evaluation engines — batched neighborhoods, committees spread over any
// number of cores — enabled or disabled. This is the e2e harness pinning the
// equivalence contracts of internal/eval and internal/core at the public
// API.
package aedbmls

import (
	"runtime"
	"testing"
)

func assertSameResult(t *testing.T, name string, a, b *Result) {
	t.Helper()
	if a.Evaluations != b.Evaluations {
		t.Fatalf("%s: evaluation counts %d vs %d", name, a.Evaluations, b.Evaluations)
	}
	if len(a.Configs) != len(b.Configs) {
		t.Fatalf("%s: front sizes %d vs %d", name, len(a.Configs), len(b.Configs))
	}
	for i := range a.Configs {
		if a.Configs[i] != b.Configs[i] {
			t.Fatalf("%s: front row %d differs:\n%+v\n%+v", name, i, a.Configs[i], b.Configs[i])
		}
	}
}

// withProcs runs f at the given GOMAXPROCS, which sets how many cores the
// evaluation engine's cell scheduler spreads a committee over.
func withProcs(procs int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	f()
}

// TestTuneDeterministicAcrossEngines: with Deterministic execution, the
// number of cores the committees spread over must not change the tuned
// front at all, and repeated runs must be identical.
func TestTuneDeterministicAcrossEngines(t *testing.T) {
	base := tinyTuneConfig()
	base.Deterministic = true
	var want *Result
	var err error
	withProcs(1, func() { want, err = Tune(base) })
	if err != nil {
		t.Fatal(err)
	}
	for name, procs := range map[string]int{"repeat": 1, "procs-2": 2, "procs-4": 4} {
		var got *Result
		withProcs(procs, func() { got, err = Tune(base) })
		if err != nil {
			t.Fatal(err)
		}
		assertSameResult(t, name, want, got)
	}
}

// TestTuneBatchedNeighborhoodDeterministic: the batched local search is a
// different (batch-size-dependent) walk, so its front legitimately
// differs from the single-candidate one — but it must be reproducible
// run-to-run and invariant under the number of cores the evaluation
// engine spreads its cells over, which only reschedules bit-identical
// work.
func TestTuneBatchedNeighborhoodDeterministic(t *testing.T) {
	cfg := tinyTuneConfig()
	cfg.Deterministic = true
	cfg.NeighborhoodSize = 4
	r1, err := Tune(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Tune(cfg)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, "repeat", r1, r2)

	var r3 *Result
	withProcs(3, func() { r3, err = Tune(cfg) })
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, "parallel-engines", r1, r3)
}

// TestTuneThreadedWithEnginesRuns: the threaded execution with all
// engines enabled, on more cores than workers, completes and produces a
// plausible feasible front (its schedule-dependent content cannot be
// pinned).
func TestTuneThreadedWithEnginesRuns(t *testing.T) {
	cfg := tinyTuneConfig()
	cfg.NeighborhoodSize = 3
	var res *Result
	var err error
	withProcs(4, func() { res, err = Tune(cfg) })
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Configs) == 0 {
		t.Fatal("empty front")
	}
	budget := int64(cfg.Populations * cfg.Workers * cfg.EvalsPerWorker)
	if res.Evaluations != budget {
		t.Fatalf("evaluations = %d, want %d", res.Evaluations, budget)
	}
}

// End-to-end determinism of the tuned stack: the round-robin execution
// must be bit-reproducible for a fixed seed with every combination of the
// new evaluation engines — batched neighborhoods, committee-parallel
// evaluation — enabled or disabled. This is the e2e harness pinning the
// equivalence contracts of internal/eval and internal/core at the public
// API.
package aedbmls

import "testing"

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

// TestTuneDeterministicAcrossEngines: with Deterministic execution, the
// committee-parallel evaluation path must not change the tuned front at
// all, and repeated runs of every engine combination must be identical.
func TestTuneDeterministicAcrossEngines(t *testing.T) {
	base := tinyTuneConfig()
	base.Deterministic = true
	want, err := Tune(base)
	if err != nil {
		t.Fatal(err)
	}
	for name, mutate := range map[string]func(*Config){
		"repeat":             func(*Config) {},
		"scenario-workers":   func(c *Config) { c.ScenarioWorkers = 4 },
		"scenario-workers-2": func(c *Config) { c.ScenarioWorkers = 2 },
	} {
		cfg := base
		mutate(&cfg)
		got, err := Tune(cfg)
		if err != nil {
			t.Fatal(err)
		}
		assertSameResult(t, name, want, got)
	}
}

// TestTuneBatchedNeighborhoodDeterministic: the batched local search is a
// different (batch-size-dependent) walk, so its front legitimately
// differs from the single-candidate one — but it must be reproducible
// run-to-run and invariant under the evaluation engine's worker knobs,
// which only reschedule bit-identical work.
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

	cfg.ScenarioWorkers = 3
	r3, err := Tune(cfg)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, "parallel-engines", r1, r3)
}

// TestTuneThreadedWithEnginesRuns: the threaded execution with all
// engines enabled completes and produces a plausible feasible front (its
// schedule-dependent content cannot be pinned).
func TestTuneThreadedWithEnginesRuns(t *testing.T) {
	cfg := tinyTuneConfig()
	cfg.NeighborhoodSize = 3
	cfg.ScenarioWorkers = 2
	res, err := Tune(cfg)
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

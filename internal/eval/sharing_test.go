package eval

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strconv"
	"sync"
	"testing"

	"aedbmls/internal/aedb"
)

// loadGoldenEntries reads the committed golden-metrics corpus (shared
// with TestGoldenMetrics).
func loadGoldenEntries(t *testing.T) []goldenEntry {
	t.Helper()
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("golden corpus missing (generate with -update): %v", err)
	}
	var file goldenFile
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatalf("corrupt golden corpus: %v", err)
	}
	return file.Entries
}

// assertGoldenMetrics requires the simulated metrics to match the given
// recorded arm bit-for-bit on every field.
func assertGoldenMetrics(t *testing.T, name string, want goldenMetrics, m Metrics) {
	t.Helper()
	got := metricsFields(m)
	for field, wantHex := range want.Hex {
		w, err := strconv.ParseFloat(wantHex, 64)
		if err != nil {
			t.Fatalf("%s: bad hex float %q: %v", name, wantHex, err)
		}
		if gv := got[field]; gv != w || math.Signbit(gv) != math.Signbit(w) {
			t.Errorf("%s: %s drifted: got %s (%v), want %s (%v)",
				name, field, strconv.FormatFloat(gv, 'x', -1, 64), gv, wantHex, w)
		}
	}
}

// TestGoldenMetricsOptOutMatrix replays the golden corpus under EVERY
// value of the layer mask (8: warm start, shared store, arenas) crossed
// with the reference path, the exact-physics arm and the
// fidelity ladder, so no combination can drift numerically unnoticed:
// whatever subset of the caches, fast paths and physics arms a Problem
// ends up on, the metrics must still be the committed bit-exact ones for
// that physics arm. Arm names spell out the other three layers; arms
// with warm start off, where no snapshot exists for those layers to act
// on, carry a "cold/" prefix. Under -short the corpus is thinned to one
// seed per density (the full matrix runs in the regular suite).
func TestGoldenMetricsOptOutMatrix(t *testing.T) {
	entries := loadGoldenEntries(t)
	if testing.Short() {
		var thin []goldenEntry
		seen := map[int]bool{}
		for _, e := range entries {
			if !seen[e.Density] {
				seen[e.Density] = true
				thin = append(thin, e)
			}
		}
		entries = thin
	}
	for _, ladder := range []bool{false, true} {
		for m := 0; m <= int(allLayers); m++ {
			mask := layers(m)
			on := func(l layers) bool { return mask&l != 0 }
			for _, ref := range []bool{false, true} {
				for _, exact := range []bool{false, true} {
					combo := fmt.Sprintf("ladder=%v/shared=%v/arena=%v/ref=%v/exact=%v",
						ladder, on(layerShared), on(layerArenas), ref, exact)
					if !on(layerWarmStart) {
						combo = "cold/" + combo
					}
					s := Settings{ExactPhysics: exact}
					if ladder {
						// The ladder is a batch-triage policy: the serial
						// Simulate/Evaluate path must stay bit-identical
						// with the harshest rung on.
						s.Fidelity, s.PromoteEps = Fidelity{Committee: 1, Horizon: 0.5}, 0.01
					}
					for _, e := range entries {
						name := fmt.Sprintf("%s d%d/seed%d", combo, e.Density, e.Seed)
						m := simulateCase(e.goldenCase, withLayers(mask), WithSettings(s), WithReferencePath(ref))
						assertGoldenMetrics(t, name, e.want(exact), m)
					}
				}
			}
		}
	}
}

// TestGoldenMetricsLadderPromotion pins the other half of the ladder's
// exactness contract: a candidate PROMOTED through the screening rung
// (here guaranteed — a fresh Problem's reference front is empty, so the
// gate promotes everything) must come back with full-fidelity metrics
// bit-identical to the committed golden corpus and to a direct serial
// Evaluate on a ladder-free Problem.
func TestGoldenMetricsLadderPromotion(t *testing.T) {
	entries := loadGoldenEntries(t)
	if testing.Short() && len(entries) > 3 {
		entries = entries[:3]
	}
	for _, e := range entries {
		name := fmt.Sprintf("d%d/seed%d", e.Density, e.Seed)
		p := NewProblem(e.Density, e.Seed, WithCommittee(goldenCommittee),
			WithFidelity(Fidelity{Committee: 1, Horizon: 0.5}))
		out := p.EvaluateBatch([][]float64{e.Params})
		r := out[0]
		if r.Screened || r.Stopped {
			t.Fatalf("%s: empty-front candidate not promoted: %+v", name, r)
		}
		m, ok := r.Aux.(Metrics)
		if !ok {
			t.Fatalf("%s: promoted result carries no Metrics", name)
		}
		assertGoldenMetrics(t, "promoted "+name, e.want(false), m)
		f, viol, _ := NewProblem(e.Density, e.Seed, WithCommittee(goldenCommittee)).Evaluate(e.Params)
		for k := range f {
			if f[k] != r.F[k] {
				t.Fatalf("%s: promoted F[%d]=%x, serial Evaluate %x", name, k, r.F[k], f[k])
			}
		}
		if viol != r.Violation {
			t.Fatalf("%s: promoted violation %x, serial %x", name, r.Violation, viol)
		}
		h := p.Health()
		if h.ScreenEvals != 1 || h.Promoted != 1 || h.FullEvals != 1 || h.Screened != 0 {
			t.Fatalf("%s: ladder counters %+v", name, h)
		}
	}
}

// stateOf returns the resolved state of p's scenario i (nil before its
// first use).
func stateOf(p *Problem, i int) *child { return p.states[i].Load() }

// inStore reports whether the entry behind p's scenario i is the store's
// current entry for its key.
func inStore(p *Problem, i int) bool {
	e := stateOf(p, i).parent
	store.mu.Lock()
	defer store.mu.Unlock()
	el, ok := store.entries[e.key]
	return ok && el.Value.(*entry) == e
}

// storeLen returns the number of entries in the store.
func storeLen() int {
	store.mu.Lock()
	defer store.mu.Unlock()
	if len(store.entries) != store.lru.Len() {
		panic("scenario store map and LRU list disagree")
	}
	return len(store.entries)
}

// TestSharedTapesOneRecordingPerScenario pins the sharing itself, not
// just its numerics: two default-configured Problems over the same
// (seed, density) must end up replaying the SAME masked snapshot and the
// SAME tape object per scenario (one process-wide entry), two densities
// of one seed must share the parent recording through masked derivation,
// and the layerShared opt-out must build privately.
func TestSharedTapesOneRecordingPerScenario(t *testing.T) {
	const seed = 98765
	x := aedb.Params{MinDelay: 0.1, MaxDelay: 0.4, BorderThresholdDBm: -81, MarginDBm: 1, NeighborsThreshold: 12}.Vector()
	force := func(p *Problem) {
		if _, _, aux := p.Evaluate(x); aux == nil {
			t.Fatal("evaluation returned no metrics")
		}
	}
	p1 := NewProblem(100, seed, WithCommittee(2))
	p2 := NewProblem(100, seed, WithCommittee(2))
	force(p1)
	force(p2)
	for i := range p1.states {
		a, b := stateOf(p1, i), stateOf(p2, i)
		ta, tb := a.beaconTape(), b.beaconTape()
		if ta == nil || tb == nil {
			t.Fatalf("scenario %d: tape not built (%p, %p)", i, ta, tb)
		}
		if ta != tb {
			t.Fatalf("scenario %d: same-density Problems recorded separate tapes", i)
		}
		if a.snapshot() == nil || a.snapshot() != b.snapshot() {
			t.Fatalf("scenario %d: same-density Problems masked separate snapshots", i)
		}
		if ta.NumNodes() != p1.Nodes() {
			t.Fatalf("scenario %d: tape for %d nodes serving a %d-node problem", i, ta.NumNodes(), p1.Nodes())
		}
	}
	// Opt-out: a private recording and snapshot, not the shared ones.
	p3 := NewProblem(100, seed, WithCommittee(2), without(layerShared))
	force(p3)
	for i := range p3.states {
		c := stateOf(p3, i)
		if c.beaconTape() == stateOf(p1, i).beaconTape() || c.snapshot() == stateOf(p1, i).snapshot() {
			t.Fatalf("scenario %d: opted-out Problem replays the shared state", i)
		}
		if inStore(p3, i) {
			t.Fatalf("scenario %d: private entry entered the store", i)
		}
	}
	// Cross-density: the d300 problem replays the parent recording the
	// d100 mask was derived from (same scenario seeds, same store key).
	p4 := NewProblem(300, seed, WithCommittee(2))
	force(p4)
	for i := range p4.states {
		tape := stateOf(p4, i).beaconTape()
		if tape == nil {
			t.Fatalf("scenario %d: d300 tape not built", i)
		}
		if tape.NumNodes() != p4.Nodes() {
			t.Fatalf("scenario %d: d300 tape has %d nodes, want %d", i, tape.NumNodes(), p4.Nodes())
		}
		parent := stateOf(p1, i).parent
		if stateOf(p4, i).parent != parent {
			t.Fatalf("scenario %d: d100 and d300 problems resolved separate entries", i)
		}
		if pt, err := parent.beaconTape(); err != nil || pt != tape {
			t.Fatalf("scenario %d: d300 problem does not replay the parent recording (%v)", i, err)
		}
	}
}

// TestScenarioStoreEvictsLeastRecentlyResolved pins the store's one cap:
// the store never holds more entries than the cap, past it the least
// recently resolved entry leaves, a Problem holding an evicted entry
// still evaluates bit-identically to an unshared Problem, and the next
// request for the evicted scenario builds one fresh entry that new
// Problems share again.
func TestScenarioStoreEvictsLeastRecentlyResolved(t *testing.T) {
	const limit = 2
	prev := setStoreLimit(limit)
	t.Cleanup(func() { setStoreLimit(prev) })
	xs := neighborhood(3, 23)
	// One single-scenario Problem per seed: limit+2 scenarios.
	seeds := []uint64{31337001, 31337002, 31337003, 31337004}
	resolve := func(seed uint64) *Problem {
		p := NewProblem(100, seed, WithCommittee(1))
		p.Evaluate(xs[0])
		if n := storeLen(); n > limit {
			t.Fatalf("store holds %d entries, cap %d", n, limit)
		}
		return p
	}
	a := resolve(seeds[0])
	b := resolve(seeds[1])
	if a2 := resolve(seeds[0]); stateOf(a2, 0) != stateOf(a, 0) {
		t.Fatal("a re-resolved scenario did not share its entry")
	}
	c := resolve(seeds[2])
	if inStore(b, 0) || !inStore(a, 0) || !inStore(c, 0) {
		t.Fatalf("cap overflow did not evict the least recently resolved entry (a %v, b %v, c %v)",
			inStore(a, 0), inStore(b, 0), inStore(c, 0))
	}
	resolve(seeds[3])
	if inStore(a, 0) || !inStore(c, 0) {
		t.Fatal("second overflow did not evict the least recently resolved entry")
	}

	// The evicted entry still serves the Problem that holds it.
	iso := NewProblem(100, seeds[1], WithCommittee(1), WithoutSharedCaches)
	for j, r := range b.EvaluateBatch(xs) {
		_, _, aux := iso.Evaluate(xs[j])
		if r.Aux.(Metrics) != aux.(Metrics) {
			t.Fatalf("vector %d: evicted entry diverged from the unshared problem: %+v != %+v", j, r.Aux, aux)
		}
	}

	// A fresh request builds one new entry, shared by every new Problem.
	b1 := resolve(seeds[1])
	b2 := resolve(seeds[1])
	if stateOf(b1, 0) != stateOf(b2, 0) || !inStore(b1, 0) {
		t.Fatal("re-requested scenario is not shared through the store")
	}
	if stateOf(b1, 0).parent == stateOf(b, 0).parent {
		t.Fatal("re-requested scenario got the evicted entry back")
	}
}

// TestCrossProblemSharedCachesBitIdentical is the cross-Problem
// determinism gate of the scenario store: N Problems built and evaluated
// CONCURRENTLY over the same scenario configuration — so first-use tape
// recordings, masked derivations and warm-up builds race in the store —
// must produce metrics bit-identical to isolated Problems (sharing
// disabled) evaluated serially. The second run lowers the cap below the
// working set, so entries are evicted while other Problems resolve and
// build them. Run under -race this doubles as the data-race detector for
// the store.
func TestCrossProblemSharedCachesBitIdentical(t *testing.T) {
	for _, tc := range []struct {
		name  string
		seed  uint64
		limit int
	}{{"cap", 1357911, storeCap}, {"evicting", 1357913, 2}} {
		t.Run(tc.name, func(t *testing.T) {
			prev := setStoreLimit(tc.limit)
			defer setStoreLimit(prev)
			crossProblemBitIdentical(t, tc.seed)
		})
	}
}

func crossProblemBitIdentical(t *testing.T, seed uint64) {
	xs := neighborhood(3, 17)
	densities := []int{100, 200, 300}
	want := map[int][]Metrics{}
	for _, d := range densities {
		iso := NewProblem(d, seed, WithCommittee(3), WithoutSharedCaches)
		ms := make([]Metrics, len(xs))
		for j, x := range xs {
			_, _, aux := iso.Evaluate(x)
			ms[j] = aux.(Metrics)
		}
		want[d] = ms
	}

	const rounds = 3 // N = 9 concurrent Problems, three per density
	var wg sync.WaitGroup
	errs := make(chan string, rounds*len(densities))
	for r := 0; r < rounds; r++ {
		for _, d := range densities {
			wg.Add(1)
			go func(d int) {
				defer wg.Done()
				p := NewProblem(d, seed, WithCommittee(3))
				for j, x := range xs {
					_, _, aux := p.Evaluate(x)
					if aux.(Metrics) != want[d][j] {
						errs <- fmt.Sprintf("density %d vector %d: shared-store metrics diverged from isolated problem", d, j)
						return
					}
				}
				if err := p.WarmStartError(); err != nil {
					errs <- err.Error()
				}
			}(d)
		}
	}
	wg.Wait()
	close(errs)
	if msg, ok := <-errs; ok {
		t.Fatal(msg)
	}
}

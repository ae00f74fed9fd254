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
// value of the layer mask (16: warm start, shared warm-ups, shared tapes,
// arenas) crossed with the reference path, the exact-physics arm and the
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
					combo := fmt.Sprintf("ladder=%v/tapes=%v/warmups=%v/arena=%v/ref=%v/exact=%v",
						ladder, on(layerSharedTapes), on(layerSharedWarmups), on(layerArenas), ref, exact)
					if !on(layerWarmStart) {
						combo = "cold/" + combo
					}
					s := Settings{ReferencePath: ref, ExactPhysics: exact}
					if ladder {
						// The ladder is a batch-triage policy: the serial
						// Simulate/Evaluate path must stay bit-identical
						// with the harshest rung on.
						s.Fidelity, s.PromoteEps = Fidelity{Committee: 1, Horizon: 0.5}, 0.01
					}
					for _, e := range entries {
						name := fmt.Sprintf("%s d%d/seed%d", combo, e.Density, e.Seed)
						m := simulateCase(e.goldenCase, withLayers(mask), WithSettings(s))
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

// TestSharedTapesOneRecordingPerScenario pins the sharing itself, not
// just its numerics: two default-configured Problems over the same
// (seed, density) must end up replaying the SAME tape object per
// scenario (one process-wide recording), two densities of one seed must
// share the parent recording through masked derivation, and the
// layerSharedTapes opt-out must record privately.
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
	for i := range p1.tapes {
		ta, tb := p1.tapes[i].tape, p2.tapes[i].tape
		if ta == nil || tb == nil {
			t.Fatalf("scenario %d: tape not built (%p, %p)", i, ta, tb)
		}
		if ta != tb {
			t.Fatalf("scenario %d: same-density Problems recorded separate tapes", i)
		}
		if ta.NumNodes() != p1.Nodes() {
			t.Fatalf("scenario %d: tape for %d nodes serving a %d-node problem", i, ta.NumNodes(), p1.Nodes())
		}
	}
	// Opt-out: a private recording, not the shared one.
	p3 := NewProblem(100, seed, WithCommittee(2), without(layerSharedTapes))
	force(p3)
	for i := range p3.tapes {
		if p3.tapes[i].tape == p1.tapes[i].tape {
			t.Fatalf("scenario %d: opted-out Problem replays the shared tape", i)
		}
	}
	// Cross-density: the d300 problem replays the parent recording the
	// d100 mask was derived from (same scenario seeds, same cache key up
	// to node count).
	p4 := NewProblem(300, seed, WithCommittee(2))
	force(p4)
	for i := range p4.tapes {
		tape := p4.tapes[i].tape
		if tape == nil {
			t.Fatalf("scenario %d: d300 tape not built", i)
		}
		if tape.NumNodes() != p4.Nodes() {
			t.Fatalf("scenario %d: d300 tape has %d nodes, want %d", i, tape.NumNodes(), p4.Nodes())
		}
		key, ok := sharedCfgKeyOf(p4.cfg)
		if !ok {
			t.Fatal("default config not share-eligible")
		}
		parent, err := sharedTape(key, p4.cfg, p4.scenarios[i].seed, maskParentNodes)
		if err != nil {
			t.Fatalf("scenario %d: parent tape lookup: %v", i, err)
		}
		if parent != tape {
			t.Fatalf("scenario %d: d300 problem does not replay the cached parent recording", i)
		}
	}
}

// TestSharedTapeCacheFullNotMemoized: a transient cache-capacity refusal
// must degrade to local recording WITHOUT freezing the error into a
// capped slot — once capacity is back, later Problems over the same
// scenario share again.
func TestSharedTapeCacheFullNotMemoized(t *testing.T) {
	const seed = 31337001
	x := aedb.Params{MinDelay: 0.1, MaxDelay: 0.4, BorderThresholdDBm: -81, MarginDBm: 1, NeighborsThreshold: 12}.Vector()
	// Inflate the entry counter so the child slot is created but its
	// recursive parent lookup hits the cap (count == max-1 at the child
	// check, == max at the parent check).
	inflate := int64(maxSharedTapes-1) - sharedTapeCount.Load()
	sharedTapeCount.Add(inflate)
	p := NewProblem(100, seed, WithCommittee(1))
	p.Evaluate(x)
	local := p.tapes[0].tape
	if local == nil {
		t.Fatal("cap-full fallback did not record a local tape")
	}
	key, ok := sharedCfgKeyOf(p.cfg)
	if !ok {
		t.Fatal("default config not share-eligible")
	}
	childKey := tapeKey{cfg: key, seed: p.scenarios[0].seed, nodes: p.cfg.NumNodes}
	if _, held := sharedTapeCache.Load(childKey); held {
		t.Fatal("transient cache-full error memoized into a capped slot")
	}
	if got := sharedTapeCount.Load(); got != int64(maxSharedTapes-1) {
		t.Fatalf("slot release leaked the entry count: %d, want %d", got, maxSharedTapes-1)
	}
	sharedTapeCount.Add(-inflate)
	// Capacity restored: the same scenario shares again.
	p2 := NewProblem(100, seed, WithCommittee(1))
	p3 := NewProblem(100, seed, WithCommittee(1))
	p2.Evaluate(x)
	p3.Evaluate(x)
	if p2.tapes[0].tape == nil || p2.tapes[0].tape != p3.tapes[0].tape {
		t.Fatal("sharing did not resume after capacity returned")
	}
	if p2.tapes[0].tape == local {
		t.Fatal("shared slot served the private fallback recording")
	}
}

// TestCrossProblemSharedCachesBitIdentical is the cross-Problem
// determinism gate of the process-wide caches: N Problems built and
// evaluated CONCURRENTLY over the same scenario configuration — so
// first-use tape recordings, masked derivations and warm-up builds race
// on the shared caches — must produce metrics bit-identical to isolated
// Problems (sharing disabled) evaluated serially. Run under -race this
// doubles as the data-race detector for the shared tape cache.
func TestCrossProblemSharedCachesBitIdentical(t *testing.T) {
	const seed = 1357911
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
						errs <- fmt.Sprintf("density %d vector %d: shared-cache metrics diverged from isolated problem", d, j)
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

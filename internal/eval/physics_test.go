package eval

import (
	"fmt"
	"math"
	"testing"
)

// TestKernelPhysicsMatchesExactOnGoldenCorpus is the end-to-end half of
// the kernel's differential wall (radio.FuzzKernelVsReference is the
// per-call half): across the whole golden corpus, the fused-kernel arm
// and the exact-physics arm must agree EXACTLY on every discrete metric
// — coverage, forwardings, collisions and broadcast time, none of which
// may move on a last-bit rounding difference of a reception power — and
// within a tight relative bound on the two continuous energy sums, which
// accumulate the ULP-level differences of the adapted transmission
// powers.
func TestKernelPhysicsMatchesExactOnGoldenCorpus(t *testing.T) {
	entries := loadGoldenEntries(t)
	const relTol = 1e-9
	for _, e := range entries {
		name := fmt.Sprintf("d%d/seed%d", e.Density, e.Seed)
		kern := simulateCase(e.goldenCase)
		exact := simulateCase(e.goldenCase, exactArm)
		if kern.Coverage != exact.Coverage {
			t.Errorf("%s: coverage diverged across physics arms: kernel %v, exact %v", name, kern.Coverage, exact.Coverage)
		}
		if kern.Forwardings != exact.Forwardings {
			t.Errorf("%s: forwardings diverged across physics arms: kernel %v, exact %v", name, kern.Forwardings, exact.Forwardings)
		}
		if kern.Collisions != exact.Collisions {
			t.Errorf("%s: collisions diverged across physics arms: kernel %v, exact %v", name, kern.Collisions, exact.Collisions)
		}
		if kern.BroadcastTime != exact.BroadcastTime {
			t.Errorf("%s: broadcast time diverged across physics arms: kernel %v, exact %v", name, kern.BroadcastTime, exact.BroadcastTime)
		}
		for field, pair := range map[string][2]float64{
			"energy_dbm_sum": {kern.EnergyDBmSum, exact.EnergyDBmSum},
			"energy_mj":      {kern.EnergyMJ, exact.EnergyMJ},
		} {
			scale := math.Max(math.Abs(pair[1]), 1)
			if diff := math.Abs(pair[0] - pair[1]); diff > relTol*scale {
				t.Errorf("%s: %s drifted beyond the rounding band: kernel %v, exact %v (diff %g)",
					name, field, pair[0], pair[1], diff)
			}
		}
	}
}

// TestExactPhysicsSeparatesSharedCaches pins the fingerprint rule: the
// two physics arms must never share a beacon tape or a warm-up snapshot
// — a tape records pre-converted reception powers, so serving one arm's
// recording to the other would silently mix kernels.
func TestExactPhysicsSeparatesSharedCaches(t *testing.T) {
	const seed = 424242
	x := []float64{0.1, 0.5, -80, 1, 10}
	pk := NewProblem(100, seed, WithCommittee(1))
	pe := NewProblem(100, seed, WithCommittee(1), exactArm)
	if !pe.cfg.ExactPhysics || pk.cfg.ExactPhysics {
		t.Fatal("the exact arm did not reach the scenario config")
	}
	pk.Evaluate(x)
	pe.Evaluate(x)
	ck, ce := stateOf(pk, 0), stateOf(pe, 0)
	tk, te := ck.beaconTape(), ce.beaconTape()
	if tk == nil || te == nil {
		t.Fatalf("tapes not built (%p, %p)", tk, te)
	}
	if tk == te {
		t.Fatal("fused-kernel and exact-physics Problems share one beacon tape")
	}
	if ck.snapshot() == ce.snapshot() {
		t.Fatal("fused-kernel and exact-physics Problems share one warm-up snapshot")
	}
	// Within one arm the store still shares.
	pe2 := NewProblem(100, seed, WithCommittee(1), exactArm)
	pe2.Evaluate(x)
	if c := stateOf(pe2, 0); c.beaconTape() != te || c.snapshot() != ce.snapshot() {
		t.Fatal("same-arm Problems no longer share the scenario store")
	}
}

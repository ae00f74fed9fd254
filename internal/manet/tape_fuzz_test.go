package manet

import (
	"fmt"
	"math"
	"testing"
)

// rowBits is one neighbor-table row, floats as bits so a comparison is
// bit-exact, with its kind (measured on a frame or converted).
type rowBits struct {
	id            int32
	hasRx         bool
	rx, lastHeard uint64
}

// bitsOf renders table rows as rowBits.
func bitsOf(es []nbrRec) []rowBits {
	var out []rowBits
	for _, e := range es {
		out = append(out, rowBits{id: e.id, hasRx: e.hasRx, rx: math.Float64bits(e.rx), lastHeard: math.Float64bits(e.lastHeard)})
	}
	return out
}

// tapeUpserts decodes receiver i's rows the way syncTape does.
func tapeUpserts(tp *BeaconTape, i int) []rowBits {
	return bitsOf(tp.appendTable(nil, i))
}

// sameRows fails unless two tables hold the same rows in the same order.
func sameRows(t *testing.T, label string, got, want []rowBits) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows != %d", label, len(got), len(want))
	}
	for j := range got {
		if got[j] != want[j] {
			t.Fatalf("%s row %d: %+v != %+v", label, j, got[j], want[j])
		}
	}
}

// FuzzTapeMask pins the cross-density tape-sharing contract: over random
// (density, seed, cut-time, parent-surplus) inputs, the tape derived from
// a strictly larger parent recording by BeaconTape.Mask must be
// EVENT-FOR-EVENT identical — same stripped schedule, same per-receiver
// upsert sequences with the same senders, timestamps and pre-converted
// powers — to a tape recorded from scratch at the masked size, and
// replaying the
// masked tape must reproduce the from-scratch simulation bit-identically
// on every broadcast metric. It also exercises the refusal preconditions:
// mask sizes outside [1, NumNodes] are rejected, and replaying a tape into
// a snapshot of a different node count (a config mismatch: the tape
// records a different scenario) must refuse.
func FuzzTapeMask(f *testing.F) {
	f.Add(uint8(8), uint64(1), uint8(10), uint8(4))
	f.Add(uint8(20), uint64(42), uint8(30), uint8(1))
	f.Add(uint8(3), uint64(7), uint8(5), uint8(11))
	f.Add(uint8(14), uint64(99), uint8(59), uint8(7))
	f.Add(uint8(23), uint64(20130520), uint8(33), uint8(2))
	f.Fuzz(func(t *testing.T, nodesRaw uint8, seed uint64, cutRaw, extraRaw uint8) {
		nodes := 2 + int(nodesRaw%24)      // 2..25 nodes
		extra := 1 + int(extraRaw%12)      // parent strictly larger by 1..12
		cut := 0.5 + float64(cutRaw%60)/10 // 0.5..6.4 s warm-up
		cfg := DefaultScenario(nodes)
		cfg.WarmupTime = cut
		cfg.EndTime = cut + 4
		source := int(seed % uint64(nodes))

		pcfg := cfg
		pcfg.NumNodes = nodes + extra
		parent, err := BuildSnapshot(pcfg, seed, cut)
		if err != nil {
			t.Fatalf("BuildSnapshot(parent): %v", err)
		}
		parentTape, err := parent.RecordBeaconTape(cfg.EndTime)
		if err != nil {
			t.Fatalf("RecordBeaconTape(parent): %v", err)
		}
		masked, err := parentTape.Mask(nodes)
		if err != nil {
			t.Fatalf("Mask(%d of %d): %v", nodes, parentTape.NumNodes(), err)
		}

		child, err := BuildSnapshot(cfg, seed, cut)
		if err != nil {
			t.Fatalf("BuildSnapshot(child): %v", err)
		}
		direct, err := child.RecordBeaconTape(cfg.EndTime)
		if err != nil {
			t.Fatalf("RecordBeaconTape(child): %v", err)
		}

		// Event-for-event identity of the derived and the from-scratch
		// tape: the recorded interval, the beacon-stripped schedule, and
		// every receiver's upsert sequence as replay decodes it (the raw
		// beacon indices differ: the masked tape indexes its parent's
		// beacon table).
		if masked.until != direct.until {
			t.Fatalf("until %v != %v", masked.until, direct.until)
		}
		if masked.NumNodes() != direct.NumNodes() {
			t.Fatalf("node count %d != %d", masked.NumNodes(), direct.NumNodes())
		}
		if len(masked.events) != len(direct.events) {
			t.Fatalf("schedule length %d != %d", len(masked.events), len(direct.events))
		}
		for i := range masked.events {
			if masked.events[i] != direct.events[i] {
				t.Fatalf("schedule event %d: %+v != %+v", i, masked.events[i], direct.events[i])
			}
		}
		for id := range masked.NumNodes() {
			sameRows(t, fmt.Sprintf("node %d upserts", id), tapeUpserts(masked, id), tapeUpserts(direct, id))
		}

		// Replay equivalence: the masked tape driving the full default
		// engine (replay + quiescence) against a from-scratch full run.
		wantSt, wantNet := runScratch(t, cfg, seed, source)
		rNet, rSt := child.InstantiateReplayInto(nil, newForwardOnce, source, cut, masked)
		rNet.RunToQuiescence()
		assertSameBroadcast(t, "masked-replay", wantSt, wantNet, rSt, rNet)

		// Masking to the full recorded size is the identity.
		if same, err := parentTape.Mask(parentTape.NumNodes()); err != nil || same != parentTape {
			t.Fatalf("full-size mask: tape %p err %v, want identity", same, err)
		}
		// Refusal: mask sizes outside [1, NumNodes].
		if _, err := parentTape.Mask(0); err == nil {
			t.Fatal("Mask(0) succeeded")
		}
		if _, err := parentTape.Mask(parentTape.NumNodes() + 1); err == nil {
			t.Fatal("oversized mask succeeded")
		}
		// Refusal: a tape of the wrong node count records a different
		// scenario, so replaying it into this snapshot must refuse.
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("replaying a %d-node tape into a %d-node snapshot did not refuse",
						parentTape.NumNodes(), nodes)
				}
			}()
			child.InstantiateReplayInto(nil, newForwardOnce, source, cut, parentTape)
		}()
	})
}

// FuzzSnapshotMask pins the packed snapshot tables: over random (parent
// size, mask size, seed, cut time, beacon medium) inputs, the neighbor
// tables a snapshot decodes must equal, row for row (sender, power bits,
// timestamp bits, kind, order), the live tables of the network it was taken
// from, with every deferred power conversion performed; both readers (the
// eager instantiation and tape replay's lazy materialisation) must decode
// exactly those rows; and with fast beacons the tables of parent.Mask(k)
// must equal those of BuildSnapshot at k nodes. Frame-level snapshots
// must refuse to mask.
func FuzzSnapshotMask(f *testing.F) {
	f.Add(uint8(30), uint8(10), uint64(1), uint8(10), false)
	f.Add(uint8(12), uint8(12), uint64(42), uint8(30), false)
	f.Add(uint8(40), uint8(1), uint64(7), uint8(5), false)
	f.Add(uint8(20), uint8(7), uint64(99), uint8(59), true)
	f.Add(uint8(75), uint8(25), uint64(20130520), uint8(33), false)
	f.Fuzz(func(t *testing.T, nodesRaw, kRaw uint8, seed uint64, cutRaw uint8, frames bool) {
		n := 2 + int(nodesRaw%79)          // 2..80 nodes
		k := 1 + int(kRaw)%n               // 1..n
		cut := 0.5 + float64(cutRaw%60)/10 // 0.5..6.4 s warm-up
		cfg := DefaultScenario(n)
		cfg.FastBeacons = !frames
		cfg.WarmupTime = cut
		cfg.EndTime = cut + 4

		live, err := New(cfg, seed, nil)
		if err != nil {
			t.Fatal(err)
		}
		live.Sim.RunBefore(cut)
		snap, err := live.Snapshot()
		if err != nil {
			t.Fatalf("Snapshot: %v", err)
		}
		inst, _ := snap.InstantiateReplayInto(nil, nil, 0, cut, nil)
		for i, node := range live.Nodes {
			want := append([]nbrRec(nil), node.neighbors...)
			for j := range want {
				if e := &want[j]; !e.hasRx && !e.rxValid {
					e.rx = live.kern.RxPower2(cfg.DefaultTxPowerDBm, e.d2)
				}
			}
			sameRows(t, fmt.Sprintf("node %d snapshot", i), bitsOf(snap.nbrs.appendTable(nil, i)), bitsOf(want))
			sameRows(t, fmt.Sprintf("node %d instantiated", i), bitsOf(inst.Nodes[i].neighbors), bitsOf(want))
		}

		if frames {
			if k < n {
				if _, err := snap.Mask(k); err == nil {
					t.Fatalf("frame-level snapshot masked to %d of %d nodes", k, n)
				}
			}
			return
		}
		masked, err := snap.Mask(k)
		if err != nil {
			t.Fatalf("Mask(%d of %d): %v", k, n, err)
		}
		kcfg := cfg
		kcfg.NumNodes = k
		direct, err := BuildSnapshot(kcfg, seed, cut)
		if err != nil {
			t.Fatalf("BuildSnapshot(%d): %v", k, err)
		}
		tape, err := masked.RecordBeaconTape(cfg.EndTime)
		if err != nil {
			t.Fatalf("RecordBeaconTape: %v", err)
		}
		replay, _ := masked.InstantiateReplayInto(nil, nil, 0, cut, tape)
		for i := range k {
			want := bitsOf(direct.nbrs.appendTable(nil, i))
			sameRows(t, fmt.Sprintf("node %d masked", i), bitsOf(masked.nbrs.appendTable(nil, i)), want)
			node := replay.Nodes[i]
			node.materialise()
			sameRows(t, fmt.Sprintf("node %d materialised", i), bitsOf(node.neighbors), want)
		}
	})
}

package manet

import (
	"math"
	"testing"
)

// tapeUpsert is one decoded tape row, floats as bits so a comparison is
// bit-exact.
type tapeUpsert struct {
	id            int32
	rx, lastHeard uint64
}

// tapeUpserts decodes receiver i's rows the way syncTape does.
func tapeUpserts(tp *BeaconTape, i int) []tapeUpsert {
	var out []tapeUpsert
	for r := tp.start[i]; r < tp.start[i+1]; r++ {
		e := tp.row(r)
		out = append(out, tapeUpsert{id: e.id, rx: math.Float64bits(e.rx), lastHeard: math.Float64bits(e.lastHeard)})
	}
	return out
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
			m, d := tapeUpserts(masked, id), tapeUpserts(direct, id)
			if len(m) != len(d) {
				t.Fatalf("node %d: %d upserts != %d", id, len(m), len(d))
			}
			for j := range m {
				if m[j] != d[j] {
					t.Fatalf("node %d upsert %d: %+v != %+v", id, j, m[j], d[j])
				}
			}
		}

		// Replay equivalence: the masked tape driving the full default
		// engine (replay + quiescence) against a from-scratch full run.
		wantSt, wantNet := runScratch(t, cfg, seed, source)
		rNet, rSt := child.InstantiateReplay(newForwardOnce, source, cut, masked)
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
			child.InstantiateReplay(newForwardOnce, source, cut, parentTape)
		}()
	})
}

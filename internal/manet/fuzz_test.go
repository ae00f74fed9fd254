package manet

import "testing"

// assertSameBroadcast requires two simulations of one scenario to agree
// bit-for-bit on every broadcast metric input: the stats collector fields
// and the collision counter. This is the equivalence the snapshot, mask
// and tape-replay paths all promise.
func assertSameBroadcast(t *testing.T, label string, wantSt *BroadcastStats, wantNet *Network, gotSt *BroadcastStats, gotNet *Network) {
	t.Helper()
	if gotSt.SentAt != wantSt.SentAt || gotSt.Forwards != wantSt.Forwards ||
		gotSt.SourceSends != wantSt.SourceSends ||
		gotSt.TxPowerSumDBm != wantSt.TxPowerSumDBm ||
		gotSt.TxEnergyMJ != wantSt.TxEnergyMJ || gotSt.LastRx != wantSt.LastRx {
		t.Fatalf("%s: stats diverged:\nwant %+v\ngot  %+v", label, wantSt, gotSt)
	}
	if gotSt.Coverage() != wantSt.Coverage() {
		t.Fatalf("%s: coverage %d != %d", label, gotSt.Coverage(), wantSt.Coverage())
	}
	wantSt.EachFirstRx(func(id int, at float64) {
		if got, ok := gotSt.FirstRxAt(id); !ok || got != at {
			t.Fatalf("%s: node %d first reception %v != %v", label, id, got, at)
		}
	})
	if gotNet.Collisions != wantNet.Collisions {
		t.Fatalf("%s: collisions %d != %d", label, gotNet.Collisions, wantNet.Collisions)
	}
}

// FuzzSnapshotRoundTrip drives the warm-start machinery over random
// (density, seed, cut-time) inputs and requires that every derived
// execution — snapshot instantiation, node-masked instantiation from a
// strictly larger parent, and beacon-tape replay with quiescence early
// stop — reproduces the from-scratch simulation bit-identically on every
// broadcast metric. It also exercises the refusal precondition: while a
// live closure event or data frame exists, the network must refuse to
// snapshot.
func FuzzSnapshotRoundTrip(f *testing.F) {
	f.Add(uint8(8), uint64(1), uint8(10), uint8(4))
	f.Add(uint8(20), uint64(42), uint8(30), uint8(0))
	f.Add(uint8(3), uint64(7), uint8(5), uint8(12))
	f.Add(uint8(14), uint64(99), uint8(59), uint8(7))
	f.Add(uint8(23), uint64(20130520), uint8(33), uint8(11))
	f.Fuzz(func(t *testing.T, nodesRaw uint8, seed uint64, cutRaw, extraRaw uint8) {
		nodes := 2 + int(nodesRaw%24)      // 2..25 nodes
		extra := int(extraRaw % 12)        // parent holds up to 11 masked nodes
		cut := 0.5 + float64(cutRaw%60)/10 // 0.5..6.4 s warm-up
		cfg := DefaultScenario(nodes)
		cfg.WarmupTime = cut
		cfg.EndTime = cut + 4
		source := int(seed % uint64(nodes))

		wantSt, wantNet := runScratch(t, cfg, seed, source)

		// Unmasked: snapshot at the cut, instantiate, run the full tail.
		snap, err := BuildSnapshot(cfg, seed, cut)
		if err != nil {
			t.Fatalf("BuildSnapshot: %v", err)
		}
		gotNet, gotSt := snap.InstantiateReplayInto(nil, newForwardOnce, source, cut, nil)
		gotNet.Run()
		assertSameBroadcast(t, "warm", wantSt, wantNet, gotSt, gotNet)

		// Masked: the same scenario derived from a strictly larger parent
		// population by node masking.
		pcfg := cfg
		pcfg.NumNodes = nodes + extra
		parent, err := BuildSnapshot(pcfg, seed, cut)
		if err != nil {
			t.Fatalf("BuildSnapshot(parent): %v", err)
		}
		masked, err := parent.Mask(nodes)
		if err != nil {
			t.Fatalf("Mask(%d of %d): %v", nodes, pcfg.NumNodes, err)
		}
		mNet, mSt := masked.InstantiateReplayInto(nil, newForwardOnce, source, cut, nil)
		mNet.Run()
		assertSameBroadcast(t, "masked", wantSt, wantNet, mSt, mNet)

		// Tape replay + quiescence from the masked snapshot: the full
		// default evaluation engine.
		tape, err := masked.RecordBeaconTape(cfg.EndTime)
		if err != nil {
			t.Fatalf("RecordBeaconTape: %v", err)
		}
		rNet, rSt := masked.InstantiateReplayInto(nil, newForwardOnce, source, cut, tape)
		rNet.RunToQuiescence()
		assertSameBroadcast(t, "replay", wantSt, wantNet, rSt, rNet)

		// Refusal precondition: step a live broadcast and require Snapshot
		// to refuse at every instant a closure or data frame is live.
		refNet, err := New(cfg, seed, newForwardOnce)
		if err != nil {
			t.Fatal(err)
		}
		refNet.Sim.RunBefore(cut)
		// Warm-up holds no origination, timers or data frames: snapshot
		// legal here.
		if _, err := refNet.Snapshot(); err != nil {
			t.Fatalf("snapshot refused at the warm-up cut: %v", err)
		}
		// The scheduled origination is itself pending protocol code.
		refNet.StartBroadcast(source, cut)
		for checks := 0; checks < 25; checks++ {
			if refNet.pendingOrig > 0 || refNet.liveTimers > 0 || refNet.dataInFlight > 0 {
				if _, err := refNet.Snapshot(); err == nil {
					t.Fatalf("snapshot succeeded with %d pending originations, %d armed timers and %d data frames in flight",
						refNet.pendingOrig, refNet.liveTimers, refNet.dataInFlight)
				}
			}
			if !refNet.Sim.StepUntil(cfg.EndTime) {
				break
			}
		}
	})
}

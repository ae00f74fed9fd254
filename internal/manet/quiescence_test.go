package manet

import "testing"

// TestRunToQuiescenceMetricsIdentical is the contract behind the batched
// evaluation engine: stopping at broadcast quiescence leaves every
// broadcast statistic (and the collision counter) bit-identical to a full
// run, for both beacon media.
func TestRunToQuiescenceMetricsIdentical(t *testing.T) {
	for _, fast := range []bool{true, false} {
		name := "fast-beacons"
		if !fast {
			name = "frame-beacons"
		}
		t.Run(name, func(t *testing.T) {
			for seed := uint64(1); seed <= 5; seed++ {
				cfg := DefaultScenario(30)
				cfg.FastBeacons = fast
				full, fullNet := runScratch(t, cfg, seed, 0)

				net, err := New(cfg, seed, newForwardOnce)
				if err != nil {
					t.Fatal(err)
				}
				early := net.StartBroadcast(0, cfg.WarmupTime)
				net.RunToQuiescence()
				if !net.Quiescent() && net.Sim.Pending() > 0 {
					t.Fatalf("seed %d: run stopped non-quiescent with events pending", seed)
				}
				assertStatsIdentical(t, name, full, early, fullNet, net)
				if fullNet.Collisions != net.Collisions {
					t.Errorf("seed %d: collisions %d vs %d", seed, fullNet.Collisions, net.Collisions)
				}
				if net.Sim.Fired() >= fullNet.Sim.Fired() {
					t.Errorf("seed %d: quiescent run fired %d events, full run %d — early stop never engaged",
						seed, net.Sim.Fired(), fullNet.Sim.Fired())
				}
			}
		})
	}
}

// TestRunToQuiescenceFromSnapshot covers the path the evaluation engine
// actually takes: instantiate from a warm snapshot, run to quiescence,
// compare against the full from-scratch run.
func TestRunToQuiescenceFromSnapshot(t *testing.T) {
	cfg := DefaultScenario(30)
	for seed := uint64(1); seed <= 3; seed++ {
		full, fullNet := runScratch(t, cfg, seed, 2)
		snap, err := BuildSnapshot(cfg, seed, cfg.WarmupTime)
		if err != nil {
			t.Fatal(err)
		}
		net, st := snap.InstantiateReplayInto(nil, newForwardOnce, 2, cfg.WarmupTime, nil)
		net.RunToQuiescence()
		assertStatsIdentical(t, "snapshot-quiescent", full, st, fullNet, net)
		if fullNet.Collisions != net.Collisions {
			t.Errorf("seed %d: collisions %d vs %d", seed, fullNet.Collisions, net.Collisions)
		}
	}
}

// TestBeaconTapeReplayIdentical: a tape-replay simulation (beacon events
// stripped, tables served lazily from the recorded tape) must reproduce
// every broadcast statistic of the full from-scratch run bit-for-bit —
// with and without the quiescence early stop.
func TestBeaconTapeReplayIdentical(t *testing.T) {
	cfg := DefaultScenario(30)
	for seed := uint64(1); seed <= 5; seed++ {
		full, fullNet := runScratch(t, cfg, seed, 1)
		snap, err := BuildSnapshot(cfg, seed, cfg.WarmupTime)
		if err != nil {
			t.Fatal(err)
		}
		tape, err := snap.RecordBeaconTape(cfg.EndTime)
		if err != nil {
			t.Fatal(err)
		}
		if tape.Upserts() == 0 {
			t.Fatal("tape recorded no beacon upserts")
		}

		net, st := snap.InstantiateReplayInto(nil, newForwardOnce, 1, cfg.WarmupTime, tape)
		net.Run()
		assertStatsIdentical(t, "tape-full", full, st, fullNet, net)

		qnet, qst := snap.InstantiateReplayInto(nil, newForwardOnce, 1, cfg.WarmupTime, tape)
		qnet.RunToQuiescence()
		assertStatsIdentical(t, "tape-quiescent", full, qst, fullNet, qnet)
		if fullNet.Collisions != qnet.Collisions {
			t.Errorf("seed %d: collisions %d vs %d", seed, fullNet.Collisions, qnet.Collisions)
		}
	}
}

// TestBeaconTapeRequiresFastBeacons: the frame-level beacon medium
// contends with data frames, so tapes must refuse it.
func TestBeaconTapeRequiresFastBeacons(t *testing.T) {
	cfg := DefaultScenario(10)
	cfg.FastBeacons = false
	snap, err := BuildSnapshot(cfg, 3, cfg.WarmupTime)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := snap.RecordBeaconTape(cfg.EndTime); err == nil {
		t.Fatal("RecordBeaconTape accepted frame-level beacons")
	}
}

// TestDataInFlightBalanced: after any complete run the in-flight data
// counter must return to zero, or quiescence detection would be unsound.
func TestDataInFlightBalanced(t *testing.T) {
	cfg := DefaultScenario(40)
	net, err := New(cfg, 9, newForwardOnce)
	if err != nil {
		t.Fatal(err)
	}
	net.StartBroadcast(0, cfg.WarmupTime)
	net.Run()
	if net.dataInFlight != 0 {
		t.Fatalf("dataInFlight = %d after a full run, want 0", net.dataInFlight)
	}
	if !net.Quiescent() {
		t.Fatal("fully-run network not quiescent")
	}
}

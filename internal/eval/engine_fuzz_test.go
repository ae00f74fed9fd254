package eval

import (
	"testing"

	"aedbmls/internal/aedb"
	"aedbmls/internal/geom"
	"aedbmls/internal/manet"
)

// FuzzEngineEquivalence holds every engine arm to the Metrics bits of a
// from-scratch simulation (manet.New and a full Run) across the scenario
// space, not only on the default scenario family. It fuzzes the node
// count, the area, the mobility seed, the speed bounds (up to 60 m/s,
// against Table II's 2), the change and beacon intervals, the neighbor
// timeout, the warm-up time, the beacon medium, the source node and the
// AEDB vector. Each input runs these arms:
//
//   - a snapshot instantiated with neither arena nor tape, and with an
//     arena reused across every input (and so across network shapes);
//   - with fast beacons, tape replay with and without that arena, and the
//     child masked from a strictly larger parent with and without its
//     masked tape;
//   - every one of those, and the from-scratch run itself, under both stop
//     rules: the full tail and the quiescent stop;
//   - Counterfactual.Score;
//   - a one-scenario Problem.Simulate on the default engine and on the
//     reference path. Fast-beacon configs of at most maskParentNodes
//     nodes resolve through the shared store (a child masked from its
//     75-node parent); frame-level and larger configs are refused by it.
//
// The raw inputs map into bounded ranges; a config Validate rejects
// (inverted speed bounds) must be refused by manet.New and
// NewCounterfactual too. The seed corpus holds the default family and
// TestSnapshotOriginationFiresFirstAtCut's cases (internal/manet): a
// mobility change exactly at the warm-up cut, once as the first change
// and once after earlier ones.
func FuzzEngineEquivalence(f *testing.F) {
	// Fuzzed configs fill the store with 75-node parents; keep only a few.
	defer setStoreLimit(setStoreLimit(8))
	// nodes, side, seed, vmin, vmax, change, beacon, timeout, warm, fast,
	// source, extra, genes. The mappings are in the target below.
	f.Add(uint8(23), uint8(100), uint64(1), uint8(0), uint8(8), uint8(39), uint8(3), uint8(5), uint8(60), true, uint8(4), uint8(2), uint64(0x8040c0ff20))
	f.Add(uint8(48), uint8(100), uint64(7), uint8(0), uint8(8), uint8(39), uint8(3), uint8(5), uint8(60), false, uint8(9), uint8(5), uint64(0x1020304050))
	f.Add(uint8(73), uint8(100), uint64(3), uint8(0), uint8(8), uint8(39), uint8(3), uint8(5), uint8(60), true, uint8(70), uint8(11), uint64(0xffeeddccbb))
	// TestSnapshotOriginationFiresFirstAtCut: three nodes, source 1, seed
	// 5, a 30 s cut, changes every 10 s (one at the cut) or every 30 s
	// (the first at the cut); then the same at 60 m/s.
	f.Add(uint8(1), uint8(0), uint64(5), uint8(0), uint8(8), uint8(19), uint8(3), uint8(5), uint8(60), true, uint8(1), uint8(3), uint64(0x8080808080))
	f.Add(uint8(1), uint8(0), uint64(5), uint8(0), uint8(8), uint8(59), uint8(3), uint8(5), uint8(60), true, uint8(1), uint8(3), uint64(0x8080808080))
	f.Add(uint8(1), uint8(0), uint64(5), uint8(0), uint8(255), uint8(19), uint8(3), uint8(5), uint8(60), false, uint8(1), uint8(3), uint64(0x8080808080))
	// Fast nodes, short intervals, a short warm-up; a share-refused
	// 80-node network; inverted speed bounds, which Validate rejects.
	f.Add(uint8(30), uint8(40), uint64(99), uint8(100), uint8(230), uint8(4), uint8(1), uint8(2), uint8(7), true, uint8(17), uint8(7), uint64(0x33aa55cc11))
	f.Add(uint8(78), uint8(150), uint64(20130520), uint8(10), uint8(200), uint8(15), uint8(7), uint8(9), uint8(20), true, uint8(0), uint8(1), uint64(0x0102030405))
	f.Add(uint8(10), uint8(100), uint64(2), uint8(9), uint8(8), uint8(39), uint8(3), uint8(5), uint8(60), true, uint8(0), uint8(0), uint64(0))
	arena := manet.NewArena()
	lo, hi := aedb.DefaultDomain().Bounds()
	f.Fuzz(func(t *testing.T, nodesRaw, sideRaw uint8, seed uint64, vminRaw, vmaxRaw, changeRaw, beaconRaw, timeoutRaw, warmRaw uint8, fast bool, sourceRaw, extraRaw uint8, genes uint64) {
		nodes := 2 + int(nodesRaw%79) // 2..80
		cfg := manet.DefaultScenario(nodes)
		cfg.Area = geom.Square(100 + 4*float64(sideRaw)) // 100..1120 m
		cfg.SpeedMin = 60 * float64(vminRaw) / 255       // 0..60 m/s
		cfg.SpeedMax = 60 * float64(vmaxRaw) / 255
		cfg.ChangeInterval = 0.5 * float64(1+changeRaw%80)   // 0.5..40 s
		cfg.BeaconInterval = 0.25 * float64(1+beaconRaw%16)  // 0.25..4 s
		cfg.NeighborTimeout = 0.5 * float64(1+timeoutRaw%16) // 0.5..8 s
		cfg.WarmupTime = 0.5 * float64(warmRaw%61)           // 0..30 s
		cfg.EndTime = cfg.WarmupTime + 10
		cfg.FastBeacons = fast
		source := int(sourceRaw) % nodes
		x := make([]float64, aedb.NumParams)
		for k := range x {
			x[k] = lo[k] + (hi[k]-lo[k])*float64(uint8(genes>>(8*k)))/255
		}
		params := aedb.FromVector(x)
		factory := aedb.New(params)

		if err := cfg.Validate(); err != nil {
			if _, err := manet.New(cfg, seed, nil); err == nil {
				t.Fatal("manet.New accepted a config Validate rejects")
			}
			if _, err := NewCounterfactual(cfg, seed, source); err == nil {
				t.Fatal("NewCounterfactual accepted a config Validate rejects")
			}
			return
		}

		scratch := func(quiescent bool) Metrics {
			net, err := manet.New(cfg, seed, factory)
			if err != nil {
				t.Fatalf("manet.New: %v", err)
			}
			st := net.StartBroadcast(source, cfg.WarmupTime)
			runEngine(net, quiescent)
			return scenarioTerm(st, net)
		}
		want := scratch(false)
		metricsBits(t, "scratch/quiescent", scratch(true), want)

		snap, err := manet.BuildSnapshot(cfg, seed, cfg.WarmupTime)
		if err != nil {
			t.Fatalf("BuildSnapshot: %v", err)
		}
		type arm struct {
			name  string
			snap  *manet.Snapshot
			arena *manet.Arena
			tape  *manet.BeaconTape
		}
		arms := []arm{{"snapshot", snap, nil, nil}, {"snapshot+arena", snap, arena, nil}}
		if fast {
			tape, err := snap.RecordBeaconTape(cfg.EndTime)
			if err != nil {
				t.Fatalf("RecordBeaconTape: %v", err)
			}
			pcfg := cfg
			pcfg.NumNodes = nodes + 1 + int(extraRaw%12)
			parent, err := manet.BuildSnapshot(pcfg, seed, cfg.WarmupTime)
			if err != nil {
				t.Fatalf("BuildSnapshot(parent): %v", err)
			}
			ptape, err := parent.RecordBeaconTape(cfg.EndTime)
			if err != nil {
				t.Fatalf("RecordBeaconTape(parent): %v", err)
			}
			child, err := parent.Mask(nodes)
			if err != nil {
				t.Fatalf("Mask: %v", err)
			}
			ctape, err := ptape.Mask(nodes)
			if err != nil {
				t.Fatalf("BeaconTape.Mask: %v", err)
			}
			arms = append(arms,
				arm{"tape", snap, nil, tape},
				arm{"tape+arena", snap, arena, tape},
				arm{"masked", child, nil, nil},
				arm{"masked+tape+arena", child, arena, ctape})
		}
		for _, a := range arms {
			for _, quiescent := range []bool{false, true} {
				net, st := a.snap.InstantiateReplayInto(a.arena, factory, source, cfg.WarmupTime, a.tape)
				runEngine(net, quiescent)
				label := a.name + "/full"
				if quiescent {
					label = a.name + "/quiescent"
				}
				metricsBits(t, label, scenarioTerm(st, net), want)
			}
		}

		cf, err := NewCounterfactual(cfg, seed, source)
		if err != nil {
			t.Fatalf("NewCounterfactual: %v", err)
		}
		metricsBits(t, "counterfactual", cf.Score(params), want)

		for _, reference := range []bool{false, true} {
			p := NewProblem(100, 0, WithConfig(cfg), WithCommittee(1), WithReferencePath(reference))
			// Pin the one committee scenario to the fuzzed one.
			p.scenarios[0] = scenario{seed: seed, source: source}
			label := "problem"
			if reference {
				label = "problem/reference"
			}
			metricsBits(t, label, p.Simulate(params), want)
			if err := p.WarmStartError(); err != nil {
				t.Errorf("%s: %v", label, err)
			}
		}
		if t.Failed() {
			t.Fatalf("engine arms diverged on %+v, seed %d, source %d, params %+v", cfg, seed, source, params)
		}
	})
}

// runEngine runs a network to its end under one of the two stop rules:
// the full tail, or the quiescent stop.
func runEngine(net *manet.Network, quiescent bool) {
	if quiescent {
		net.RunToQuiescence()
	} else {
		net.Run()
	}
}

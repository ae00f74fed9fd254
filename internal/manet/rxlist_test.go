package manet

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"aedbmls/internal/geom"
	"aedbmls/internal/mobility"
	"aedbmls/internal/radio"
	"aedbmls/internal/rng"
)

// probeStep is the sampling interval of the receiver-list probes.
const probeStep = 0.1

// probePowers are the transmission powers the probes query: the default
// power (the widest reach a data frame can have), adapted powers in
// between, and the floor.
func probePowers(cfg Config) []float64 {
	return []float64{cfg.DefaultTxPowerDBm, cfg.DefaultTxPowerDBm - 3, cfg.DefaultTxPowerDBm - 12, radio.MinTxPowerDBm}
}

// admitted returns the in-range set transmitFrame would gather for a
// transmission of sender at power right now, through whatever source the
// network uses (receiver list or grid) — or through the grid when useGrid
// is set.
func admitted(net *Network, sender int, power float64, useGrid bool) []int32 {
	saved := net.rxLists
	if useGrid {
		net.rxLists = nil
	}
	cut := net.kern.CutoffD2(power, net.Cfg.SensitivityDBm)
	ids, _ := net.inRange(sender, net.positionOf(net.Nodes[sender]), cut)
	net.rxLists = saved
	return slices.Clone(ids)
}

// probeAdmissions replays snap with tape (no protocol) and, every
// probeStep from the broadcast start (cfg.WarmupTime) through cfg.EndTime, records for every
// sender and probe power the set the lists admit, asserting it equals the
// grid's. The returned sets, keyed by (time, sender, power), let callers
// compare two replays of the same scenario.
func probeAdmissions(t *testing.T, label string, snap *Snapshot, tape *BeaconTape) map[string][]int32 {
	t.Helper()
	net, _ := snap.InstantiateReplayInto(nil, nil, 0, snap.Now(), tape)
	cfg := net.Cfg
	got := make(map[string][]int32)
	probe := func() {
		now := net.Sim.Now()
		for sender := range net.Nodes {
			for _, p := range probePowers(cfg) {
				lists := admitted(net, sender, p, false)
				grid := admitted(net, sender, p, true)
				if !slices.Equal(lists, grid) {
					t.Fatalf("%s: t=%.3f sender %d power %.2f: lists admit %v, grid admits %v", label, now, sender, p, lists, grid)
				}
				got[fmt.Sprintf("%.6f/%d/%.2f", now, sender, p)] = lists
			}
		}
	}
	for k := 0; ; k++ {
		at := cfg.WarmupTime + float64(k)*probeStep
		if at > cfg.EndTime {
			at = cfg.EndTime
		}
		net.Sim.RunUntil(at)
		probe()
		if at == cfg.EndTime {
			break
		}
	}
	return got
}

// stripConfig is a fast-moving scenario on a long, narrow arena: nodes
// bounce off the long edges every few seconds, and the lists stay much
// shorter than the population along the long axis.
func stripConfig(n int, makeMob func(id int, r *rng.Rand) mobility.Model) Config {
	cfg := DefaultScenario(n)
	cfg.Area = geom.Rect{MaxX: 1500, MaxY: 40}
	cfg.SpeedMin, cfg.SpeedMax = 5, 10
	cfg.WarmupTime, cfg.EndTime = 5, 12
	cfg.MakeMobility = makeMob
	return cfg
}

func TestReceiverListsAdmitExactlyTheGridSet(t *testing.T) {
	area := geom.Rect{MaxX: 1500, MaxY: 40}
	cases := []struct {
		name string
		mob  func(id int, r *rng.Rand) mobility.Model
	}{
		{"RandomWalk", nil},
		{"RandomWaypoint", func(_ int, r *rng.Rand) mobility.Model {
			return mobility.NewRandomWaypoint(area, 5, 10, 0.5, r)
		}},
		{"Static", func(_ int, r *rng.Rand) mobility.Model {
			return &mobility.Static{P: geom.Vec2{X: r.Range(0, area.MaxX), Y: r.Range(0, area.MaxY)}}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := stripConfig(60, tc.mob)
			for seed := uint64(1); seed <= 3; seed++ {
				snap, err := BuildSnapshot(cfg, seed, cfg.WarmupTime)
				if err != nil {
					t.Fatal(err)
				}
				if snap.rx == nil {
					t.Fatal("bounded-speed scenario built no receiver lists")
				}
				shorter := false
				for i := range snap.NumNodes() {
					if int(snap.rx.off[i+1]-snap.rx.off[i]) < snap.NumNodes()-1 {
						shorter = true
					}
				}
				if !shorter {
					t.Fatal("every list holds the whole population: the probe cannot tell lists from a full scan")
				}
				tape, err := snap.RecordBeaconTape(cfg.EndTime)
				if err != nil {
					t.Fatal(err)
				}
				probeAdmissions(t, fmt.Sprintf("%s seed %d", tc.name, seed), snap, tape)
			}
		})
	}
}

// TestReceiverListsSurviveEdgeReflections pins that the walkers of the
// strip scenario (seed 1, probed above) really do reflect off the arena
// edges during the replay window, so the list property covers reflected
// trajectories.
func TestReceiverListsSurviveEdgeReflections(t *testing.T) {
	cfg := stripConfig(60, nil)
	snap, err := BuildSnapshot(cfg, 1, cfg.WarmupTime)
	if err != nil {
		t.Fatal(err)
	}
	tape, err := snap.RecordBeaconTape(cfg.EndTime)
	if err != nil {
		t.Fatal(err)
	}
	net, _ := snap.InstantiateReplayInto(nil, nil, 0, snap.Now(), tape)
	prevY := make([]float64, len(net.Nodes))
	prevDY := make([]float64, len(net.Nodes))
	reflections := 0
	for k := 0; ; k++ {
		at := math.Min(snap.Now()+float64(k)*probeStep, cfg.EndTime)
		net.Sim.RunUntil(at)
		for i, n := range net.Nodes {
			y := n.Position().Y
			dy := y - prevY[i]
			if k > 1 && dy*prevDY[i] < 0 {
				reflections++
			}
			prevY[i], prevDY[i] = y, dy
		}
		if at == cfg.EndTime {
			break
		}
	}
	if reflections == 0 {
		t.Fatal("no node reflected off an arena edge during the replay window")
	}
}

func TestReceiverListsMaskedMatchDirect(t *testing.T) {
	parentCfg := DefaultScenario(75)
	for seed := uint64(1); seed <= 2; seed++ {
		parent, err := BuildSnapshot(parentCfg, seed, parentCfg.WarmupTime)
		if err != nil {
			t.Fatal(err)
		}
		parentTape, err := parent.RecordBeaconTape(parentCfg.EndTime)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{25, 50} {
			cfg := DefaultScenario(k)
			direct, err := BuildSnapshot(cfg, seed, cfg.WarmupTime)
			if err != nil {
				t.Fatal(err)
			}
			directTape, err := direct.RecordBeaconTape(cfg.EndTime)
			if err != nil {
				t.Fatal(err)
			}
			masked, err := parent.Mask(k)
			if err != nil {
				t.Fatal(err)
			}
			maskedTape, err := parentTape.Mask(k)
			if err != nil {
				t.Fatal(err)
			}
			if masked.rx == nil || direct.rx == nil {
				t.Fatalf("k=%d: missing receiver lists (masked %v, direct %v)", k, masked.rx != nil, direct.rx != nil)
			}
			label := fmt.Sprintf("seed %d k=%d", seed, k)
			want := probeAdmissions(t, label+" direct", direct, directTape)
			got := probeAdmissions(t, label+" masked", masked, maskedTape)
			if len(got) != len(want) {
				t.Fatalf("%s: %d masked probes vs %d direct", label, len(got), len(want))
			}
			for key, ids := range want {
				if !slices.Equal(got[key], ids) {
					t.Fatalf("%s: probe %s: masked admits %v, direct admits %v", label, key, got[key], ids)
				}
			}
		}
	}
}

// TestReceiverListsBroadcastTraceMatchesGrid runs whole broadcasts through
// tape replay with and without the receiver lists and requires the same
// reception and loss trace, event for event.
func TestReceiverListsBroadcastTraceMatchesGrid(t *testing.T) {
	var trace []string
	cfg := DefaultScenario(75)
	cfg.OnDataRx = func(node, from, msgID int, rx, at float64) {
		trace = append(trace, fmt.Sprintf("rx %d<-%d %x %x", node, from, math.Float64bits(rx), math.Float64bits(at)))
	}
	cfg.OnDataLost = func(node, from, msgID int, at float64) {
		trace = append(trace, fmt.Sprintf("lost %d<-%d %x", node, from, math.Float64bits(at)))
	}
	for seed := uint64(1); seed <= 3; seed++ {
		snap, err := BuildSnapshot(cfg, seed, cfg.WarmupTime)
		if err != nil {
			t.Fatal(err)
		}
		tape, err := snap.RecordBeaconTape(cfg.EndTime)
		if err != nil {
			t.Fatal(err)
		}
		run := func(useLists bool) ([]string, *BroadcastStats, *Network) {
			trace = nil
			net, st := snap.InstantiateReplayInto(nil, newForwardOnce, int(seed)%75, cfg.WarmupTime, tape)
			if net.rxLists == nil {
				t.Fatal("tape replay did not pick up the snapshot's receiver lists")
			}
			if !useLists {
				net.rxLists = nil
			}
			net.Run()
			return trace, st, net
		}
		wantTrace, wantSt, wantNet := run(false)
		gotTrace, gotSt, gotNet := run(true)
		if len(wantTrace) == 0 {
			t.Fatalf("seed %d: broadcast delivered nothing", seed)
		}
		if !slices.Equal(gotTrace, wantTrace) {
			t.Fatalf("seed %d: list-driven trace differs from the grid-driven one (%d vs %d records)", seed, len(gotTrace), len(wantTrace))
		}
		assertStatsIdentical(t, fmt.Sprintf("seed %d", seed), wantSt, gotSt, wantNet, gotNet)
	}
}

func TestUnboundedSpeedFallsBackToGrid(t *testing.T) {
	cfg := DefaultScenario(40)
	cfg.MakeMobility = func(_ int, r *rng.Rand) mobility.Model {
		return mobility.NewGaussMarkov(cfg.Area, 0.75, 1, 1, r)
	}
	snap, err := BuildSnapshot(cfg, 3, cfg.WarmupTime)
	if err != nil {
		t.Fatal(err)
	}
	if snap.rx != nil {
		t.Fatal("a model with MaxSpeed +Inf must not get receiver lists")
	}
	masked, err := snap.Mask(20)
	if err != nil {
		t.Fatal(err)
	}
	if masked.rx != nil {
		t.Fatal("masking invented receiver lists for an unbounded-speed snapshot")
	}
	tape, err := snap.RecordBeaconTape(cfg.EndTime)
	if err != nil {
		t.Fatal(err)
	}
	net, st := snap.InstantiateReplayInto(nil, newForwardOnce, 0, cfg.WarmupTime, tape)
	if net.rxLists != nil {
		t.Fatal("replay of an unbounded-speed snapshot uses receiver lists")
	}
	net.Run()
	wantSt, wantNet := runScratch(t, cfg, 3, 0)
	assertStatsIdentical(t, "grid fallback vs scratch", wantSt, st, wantNet, net)
}

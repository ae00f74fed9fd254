package manet

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"aedbmls/internal/geom"
	"aedbmls/internal/mobility"
	"aedbmls/internal/rng"
)

// forwardOnce is a minimal protocol: every node re-broadcasts the first
// copy it receives at a power derived from its neighbor table, after a
// node-RNG delay armed through the protocol timer table. It exercises
// every state a snapshot must reproduce: neighbor tables, node RNG
// streams, and event ordering.
type forwardOnce struct {
	node    *Node
	seen    map[int]bool
	pending map[int]pendingForward
}

type pendingForward struct {
	msg   *Message
	power float64
}

func (f *forwardOnce) Init(n *Node) { f.node = n }
func (f *forwardOnce) Originate(msg *Message) {
	f.seen[msg.ID] = true
	f.node.Network().TransmitData(f.node, msg, f.node.Network().Cfg.DefaultTxPowerDBm)
}
func (f *forwardOnce) OnData(msg *Message, _ int, _ float64) {
	if f.seen[msg.ID] {
		return
	}
	f.seen[msg.ID] = true
	power := f.node.Network().Cfg.DefaultTxPowerDBm
	// Consume the neighbor table so lazily-converted powers are observed.
	for _, e := range f.node.Neighbors() {
		if e.RxPowerDBm < power {
			power = e.RxPowerDBm + 60
		}
	}
	delay := f.node.Rng.Range(0, 0.2)
	f.pending[msg.ID] = pendingForward{msg: msg, power: power}
	f.node.ScheduleTimer(delay, int32(msg.ID))
}
func (f *forwardOnce) OnTimer(tag int32) {
	p := f.pending[int(tag)]
	f.node.Network().TransmitData(f.node, p.msg, p.power)
}

func newForwardOnce(*Node) Protocol {
	return &forwardOnce{seen: make(map[int]bool), pending: make(map[int]pendingForward)}
}

// runScratch simulates cfg from scratch and returns the stats plus the
// network (for Collisions).
func runScratch(t *testing.T, cfg Config, seed uint64, source int) (*BroadcastStats, *Network) {
	t.Helper()
	net, err := New(cfg, seed, newForwardOnce)
	if err != nil {
		t.Fatal(err)
	}
	st := net.StartBroadcast(source, cfg.WarmupTime)
	net.Run()
	return st, net
}

// runWarm simulates the same scenario through the snapshot path.
func runWarm(t *testing.T, cfg Config, seed uint64, source int) (*BroadcastStats, *Network) {
	t.Helper()
	snap, err := BuildSnapshot(cfg, seed, cfg.WarmupTime)
	if err != nil {
		t.Fatal(err)
	}
	net, st := snap.Instantiate(newForwardOnce, source, cfg.WarmupTime)
	net.Run()
	return st, net
}

// assertStatsIdentical requires bit-for-bit equality of every broadcast
// statistic, including the per-node first-reception map.
func assertStatsIdentical(t *testing.T, name string, a, b *BroadcastStats, an, bn *Network) {
	t.Helper()
	if a.Coverage() != b.Coverage() {
		t.Errorf("%s: coverage %d vs %d", name, a.Coverage(), b.Coverage())
	}
	if a.Forwards != b.Forwards || a.SourceSends != b.SourceSends {
		t.Errorf("%s: forwards %d/%d vs %d/%d", name, a.Forwards, a.SourceSends, b.Forwards, b.SourceSends)
	}
	if a.TxPowerSumDBm != b.TxPowerSumDBm {
		t.Errorf("%s: energy %v vs %v", name, a.TxPowerSumDBm, b.TxPowerSumDBm)
	}
	if a.TxEnergyMJ != b.TxEnergyMJ {
		t.Errorf("%s: energyMJ %v vs %v", name, a.TxEnergyMJ, b.TxEnergyMJ)
	}
	if a.BroadcastTime() != b.BroadcastTime() {
		t.Errorf("%s: bt %v vs %v", name, a.BroadcastTime(), b.BroadcastTime())
	}
	if a.Coverage() != b.Coverage() {
		t.Errorf("%s: FirstRx sizes %d vs %d", name, a.Coverage(), b.Coverage())
	}
	a.EachFirstRx(func(id int, ta float64) {
		if tb, ok := b.FirstRxAt(id); !ok || ta != tb {
			t.Errorf("%s: FirstRx[%d] %v vs %v (ok=%v)", name, id, ta, tb, ok)
		}
	})
	if an.Collisions != bn.Collisions {
		t.Errorf("%s: collisions %d vs %d", name, an.Collisions, bn.Collisions)
	}
}

func TestSnapshotBitIdenticalToScratch(t *testing.T) {
	for _, nodes := range []int{25, 50, 75} {
		for seed := uint64(1); seed <= 3; seed++ {
			cfg := DefaultScenario(nodes)
			source := int(seed) % nodes
			sa, na := runScratch(t, cfg, seed, source)
			sb, nb := runWarm(t, cfg, seed, source)
			assertStatsIdentical(t, "fast-beacons", sa, sb, na, nb)
		}
	}
}

func TestSnapshotBitIdenticalFrameLevelBeacons(t *testing.T) {
	// Frame-level beacons keep receptions in flight across the warm-up
	// cut; the snapshot must capture and replay them.
	cfg := DefaultScenario(25)
	cfg.FastBeacons = false
	cfg.EndTime = 35 // keep the slow path fast
	for seed := uint64(1); seed <= 2; seed++ {
		sa, na := runScratch(t, cfg, seed, 0)
		sb, nb := runWarm(t, cfg, seed, 0)
		assertStatsIdentical(t, "frame-beacons", sa, sb, na, nb)
	}
}

func TestSnapshotZeroWarmup(t *testing.T) {
	// With no warm-up the snapshot only caches network construction; the
	// pending initial events (beacon phases, mobility changes) must
	// replay exactly.
	cfg := DefaultScenario(25)
	cfg.WarmupTime = 0
	cfg.EndTime = 10
	sa, na := runScratch(t, cfg, 7, 3)
	sb, nb := runWarm(t, cfg, 7, 3)
	assertStatsIdentical(t, "zero-warmup", sa, sb, na, nb)
}

func TestSnapshotReusableAcrossInstantiations(t *testing.T) {
	cfg := DefaultScenario(25)
	snap, err := BuildSnapshot(cfg, 11, cfg.WarmupTime)
	if err != nil {
		t.Fatal(err)
	}
	run := func() *BroadcastStats {
		net, st := snap.Instantiate(newForwardOnce, 5, cfg.WarmupTime)
		net.Run()
		return st
	}
	a, b := run(), run()
	if a.TxPowerSumDBm != b.TxPowerSumDBm || a.Coverage() != b.Coverage() || a.BroadcastTime() != b.BroadcastTime() {
		t.Fatalf("repeated instantiations diverged: %+v vs %+v", a, b)
	}
}

func TestSnapshotRejectsPendingOrigination(t *testing.T) {
	cfg := DefaultScenario(5)
	net, err := New(cfg, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	net.StartBroadcast(0, 5)
	if _, err := net.Snapshot(); err == nil {
		t.Fatal("snapshot accepted a pending broadcast origination")
	}
	if net.Quiescent() {
		t.Fatal("network quiescent with a pending broadcast origination")
	}
	// Once the origination has fired (no protocol: nothing else is
	// pending), the network is quiescent and snapshottable again.
	net.Sim.RunUntil(5)
	if !net.Quiescent() {
		t.Fatal("network not quiescent after the origination fired")
	}
	if _, err := net.Snapshot(); err != nil {
		t.Fatalf("snapshot refused after the origination fired: %v", err)
	}
}

func TestSnapshotRejectsDataFramesInFlight(t *testing.T) {
	positions := []geom.Vec2{{X: 0, Y: 0}, {X: 50, Y: 0}}
	cfg := DefaultScenario(2)
	cfg.WarmupTime = 0
	cfg.EndTime = 10
	cfg.MakeMobility = func(id int, _ *rng.Rand) mobility.Model {
		return &mobility.Static{P: positions[id]}
	}
	net, err := New(cfg, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	msg := net.NewMessage(0)
	net.Sim.RunUntil(1)
	net.transmitFrame(net.Nodes[0], msg, cfg.DefaultTxPowerDBm, cfg.DataBytes)
	// Stop mid-frame: the data frame's start has fired, its end has not.
	duration := float64(cfg.DataBytes*8) / cfg.BitRateBps
	net.Sim.RunBefore(1 + duration/2)
	if _, err := net.Snapshot(); err == nil {
		t.Fatal("snapshot accepted an in-flight data frame")
	}
}

// TestLargeScaleSpatialIndex drives a 1,000-node scenario in a 1.5 km
// arena through one broadcast and checks that the spatial index genuinely
// prunes: the grid has many cells, and a radio-range query returns a
// small fraction of the population rather than degenerating to an O(N)
// scan.
func TestLargeScaleSpatialIndex(t *testing.T) {
	cfg := DefaultScenario(1000)
	cfg.Area = geom.Square(1500)
	cfg.WarmupTime = 5 // keep runtime modest; warm-up length is irrelevant here
	cfg.EndTime = 10
	net, err := New(cfg, 42, newForwardOnce)
	if err != nil {
		t.Fatal(err)
	}
	st := net.StartBroadcast(0, cfg.WarmupTime)
	net.Run()
	if nx, ny := net.grid.Dims(); nx < 5 || ny < 5 {
		t.Fatalf("grid %dx%d too coarse to prune a 1.5 km arena", nx, ny)
	}
	// A query at the current clock must prune hard: the radio range disc
	// covers ~4%% of the arena, so candidates must be far below N.
	ids := net.candidates(net.positionOf(net.Nodes[0]), net.MaxRange(), 0, true)
	if len(ids) >= cfg.NumNodes/2 {
		t.Fatalf("spatial index degenerated: %d candidates of %d nodes", len(ids), cfg.NumNodes)
	}
	if st.Coverage() == 0 {
		t.Fatal("broadcast reached nobody in a dense 1,000-node network")
	}
}

// TestCandidatesMatchLinearScan cross-checks the grid path against a
// brute-force scan at several instants, including between grid rebuilds
// (stale positions + drift slop).
func TestCandidatesMatchLinearScan(t *testing.T) {
	cfg := DefaultScenario(60)
	net, err := New(cfg, 9, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, until := range []float64{0.5, 3.7, 11.2, 29.9} {
		net.Sim.RunBefore(until)
		now := net.Sim.Now()
		for _, tx := range []int{0, 17, 59} {
			center := net.positionOf(net.Nodes[tx])
			got := append([]int32(nil), net.candidates(center, net.MaxRange(), tx, true)...)
			inRange := func(id int32) bool {
				d2 := center.Dist2(net.Nodes[id].mob.Position(now))
				return d2 <= net.MaxRange()*net.MaxRange()
			}
			seen := make(map[int32]bool, len(got))
			for _, id := range got {
				seen[id] = true
			}
			for id := 0; id < cfg.NumNodes; id++ {
				if id == tx {
					continue
				}
				if inRange(int32(id)) && !seen[int32(id)] {
					t.Fatalf("t=%v tx=%d: in-range node %d missing from candidates", now, tx, id)
				}
			}
		}
	}
}

func TestNeighborsLazyPowerMatchesLinkBudget(t *testing.T) {
	// The deferred dBm conversion must agree exactly with the eager
	// evaluation of the network's active path-loss kernel (this is the
	// fast-beacon read path): bit-identical to the reference link budget
	// under ExactPhysics, and to the fused kernel — itself within a
	// ULP-scaled bound of the reference — by default.
	for _, exact := range []bool{false, true} {
		positions := []geom.Vec2{{X: 0, Y: 0}, {X: 73, Y: 0}}
		cfg := DefaultScenario(2)
		cfg.WarmupTime = 0
		cfg.EndTime = 10
		cfg.ExactPhysics = exact
		cfg.MakeMobility = func(id int, _ *rng.Rand) mobility.Model {
			return &mobility.Static{P: positions[id]}
		}
		net, err := New(cfg, 3, nil)
		if err != nil {
			t.Fatal(err)
		}
		net.Sim.RunUntil(3)
		nbrs := net.Nodes[0].Neighbors()
		if len(nbrs) != 1 {
			t.Fatalf("exact=%v: neighbors = %d, want 1", exact, len(nbrs))
		}
		want := net.kern.RxPower2(cfg.DefaultTxPowerDBm, 73*73)
		if nbrs[0].RxPowerDBm != want {
			t.Fatalf("exact=%v: lazy rx = %v, want exactly %v", exact, nbrs[0].RxPowerDBm, want)
		}
		ref := cfg.DefaultTxPowerDBm - cfg.PathLoss.Loss(73)
		if exact {
			if nbrs[0].RxPowerDBm != ref {
				t.Fatalf("exact physics rx = %v, want reference %v", nbrs[0].RxPowerDBm, ref)
			}
		} else if math.Abs(nbrs[0].RxPowerDBm-ref) > 1e-9 {
			t.Fatalf("fused rx = %v drifted from reference %v", nbrs[0].RxPowerDBm, ref)
		}
		if math.IsNaN(nbrs[0].RxPowerDBm) {
			t.Fatal("NaN rx power")
		}
	}
}

// TestNeighborTableWithAndWithoutIndex verifies the two upsert paths
// (O(1) per-ID index vs linear scan above nbrIndexMaxNodes) behave
// identically: refresh-in-place, timeout pruning, insertion order.
func TestNeighborTableWithAndWithoutIndex(t *testing.T) {
	drive := func(n *Node) []NeighborEntry {
		n.upsertNeighbor(nbrRec{id: 4, hasRx: true, rx: -70, lastHeard: 0.5})
		n.upsertNeighbor(nbrRec{id: 2, hasRx: true, rx: -80, lastHeard: 1.0})
		n.upsertNeighbor(nbrRec{id: 4, hasRx: true, rx: -60, lastHeard: 2.0}) // refresh
		n.upsertNeighbor(nbrRec{id: 9, hasRx: true, rx: -75, lastHeard: 2.5})
		return append([]NeighborEntry(nil), n.Neighbors()...)
	}
	cfg := DefaultScenario(16)
	net, err := New(cfg, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	net.Sim.RunUntil(4) // cutoff 1.0: entry 2 (lastHeard 1.0) survives, refreshed 4 survives
	indexed := drive(net.Nodes[0])
	if net.Nodes[0].nbrPos == nil {
		t.Fatal("small network should use the per-ID index")
	}
	net2, err := New(cfg, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	net2.Sim.RunUntil(4)
	n2 := net2.Nodes[0]
	n2.nbrPos = nil // force the linear-scan path
	n2.neighbors = n2.neighbors[:0]
	linear := drive(n2)
	if len(indexed) == 0 {
		t.Fatal("indexed path produced no entries")
	}
	// Compare only the driven entries (the indexed node also holds real
	// beacon-learned neighbors); the driven IDs are 2, 4, 9.
	pick := func(es []NeighborEntry) map[int]NeighborEntry {
		out := map[int]NeighborEntry{}
		for _, e := range es {
			if e.ID == 2 || e.ID == 4 || e.ID == 9 {
				out[e.ID] = e
			}
		}
		return out
	}
	a, b := pick(indexed), pick(linear)
	if len(a) != len(b) {
		t.Fatalf("entry sets differ: %v vs %v", a, b)
	}
	for id, ea := range a {
		if eb, ok := b[id]; !ok || ea != eb {
			t.Fatalf("entry %d differs: %+v vs %+v", id, ea, eb)
		}
	}
	if a[4].RxPowerDBm != -60 {
		t.Fatalf("refresh lost: %+v", a[4])
	}
}

// tickingStatic is a motionless node whose trajectory nonetheless
// "changes" every interval seconds, so its mobility events land on a
// fixed grid of instants. Each Advance appends its instant to a shared
// log.
type tickingStatic struct {
	p        geom.Vec2
	next     float64
	interval float64
	log      *[]string
	id       int
}

func (m *tickingStatic) Position(float64) geom.Vec2 { return m.p }
func (m *tickingStatic) NextChange() float64        { return m.next }
func (m *tickingStatic) Advance() {
	*m.log = append(*m.log, fmt.Sprintf("mobility %d @%g", m.id, m.next))
	m.next += m.interval
}
func (m *tickingStatic) Clone() mobility.Model                   { c := *m; return &c }
func (m *tickingStatic) CloneInto(mobility.Model) mobility.Model { return m.Clone() }
func (m *tickingStatic) MaxSpeed() float64                       { return 0 }

// TestSnapshotOriginationFiresFirstAtCut pins the front slot of the
// snapshot path at the manet level: every node has a mobility event at
// exactly the warm-up cut, pending in the snapshot when the broadcast is
// started. A from-scratch run schedules the origination before those
// events (they are scheduled at runtime, ten seconds earlier), so it
// fires first; every restore path must fire it first too, which is what
// sim's AtTaggedFront slot guarantees. With an ordinary sequence number
// the restored mobility events would fire ahead of it.
func TestSnapshotOriginationFiresFirstAtCut(t *testing.T) {
	positions := []geom.Vec2{{X: 0, Y: 0}, {X: 60, Y: 0}, {X: 0, Y: 60}}
	var log []string
	cfg := DefaultScenario(len(positions))
	cfg.MakeMobility = func(id int, _ *rng.Rand) mobility.Model {
		return &tickingStatic{p: positions[id], next: 10, interval: 10, log: &log, id: id}
	}
	cfg.OnDataTx = func(node, _ int, _, at float64) {
		log = append(log, fmt.Sprintf("tx %d @%g", node, at))
	}
	const source = 1
	// atCut runs one simulation and returns its log entries at the cut.
	atCut := func(run func()) []string {
		log = nil
		run()
		var out []string
		for _, e := range log {
			if strings.HasSuffix(e, fmt.Sprintf("@%g", cfg.WarmupTime)) {
				out = append(out, e)
			}
		}
		return out
	}

	scratch := atCut(func() { runScratch(t, cfg, 5, source) })
	if len(scratch) != 1+len(positions) || scratch[0] != fmt.Sprintf("tx %d @%g", source, cfg.WarmupTime) {
		t.Fatalf("from-scratch events at the cut = %q, want the origination first, then %d mobility events",
			scratch, len(positions))
	}
	snap, err := BuildSnapshot(cfg, 5, cfg.WarmupTime)
	if err != nil {
		t.Fatal(err)
	}
	tape, err := snap.RecordBeaconTape(cfg.EndTime)
	if err != nil {
		t.Fatal(err)
	}
	for name, run := range map[string]func(){
		"instantiate": func() {
			net, _ := snap.Instantiate(newForwardOnce, source, cfg.WarmupTime)
			net.Run()
		},
		"arena": func() {
			net, _ := snap.InstantiateInto(NewArena(), newForwardOnce, source, cfg.WarmupTime)
			net.Run()
		},
		"replay": func() {
			net, _ := snap.InstantiateReplay(newForwardOnce, source, cfg.WarmupTime, tape)
			net.Run()
		},
	} {
		if got := atCut(run); !slices.Equal(got, scratch) {
			t.Errorf("%s: events at the cut = %q, want %q (origination first)", name, got, scratch)
		}
	}
}

// Warm-start scenario snapshots.
//
// The warm-up phase of a scenario — mobility walks plus hello beaconing
// from t=0 until the broadcast starts — depends only on the frozen
// scenario seed, never on the protocol parameters being evaluated. A
// Snapshot captures the complete simulation state at the warm-up cut
// (node positions via cloned mobility models, RNG streams, neighbor
// tables, in-flight beacon receptions and the pending beacon/mobility
// event schedule) so that each evaluation clones the warmed state and
// simulates only the broadcast phase.
//
// Determinism contract: a network instantiated from a snapshot produces
// BIT-IDENTICAL results — every metric, every event, every RNG draw — to
// a from-scratch simulation of the same (config, seed, protocol, source),
// provided the protocol's constructor and Init neither schedule events
// nor draw randomness (see Protocol). This holds because:
//
//   - the warm-up is protocol-independent: no protocol callback runs
//     before the origination event, and beacons never touch protocols;
//   - every stochastic stream (per-node RNG, per-mobility-model RNG, the
//     network RNG) is captured exactly and cloned per instantiation;
//   - the pending event schedule is tagged data, restored in firing
//     order, and the origination event is inserted AHEAD of same-time
//     pending events — exactly where a from-scratch run puts it, since
//     there it is scheduled before the simulation loop starts.
package manet

import (
	"fmt"
	"math"
	"reflect"
	"unsafe"

	"aedbmls/internal/mobility"
	"aedbmls/internal/radio"
	"aedbmls/internal/rng"
	"aedbmls/internal/sim"
)

// nodeState is the frozen per-node slice of a Snapshot (its neighbor
// table is a receiver of Snapshot.nbrs).
type nodeState struct {
	mob        mobility.Model
	rng        *rng.Rand
	active     []int32
	txUntil    float64
	txEnergyMJ float64
	txFrames   int
	rxFrames   int
	lostFrames int
}

// Snapshot is an immutable capture of a warmed-up Network. It is safe for
// concurrent InstantiateReplayInto calls: instantiation only reads the
// snapshot.
//
// The neighbor tables are packed rows (see packedRows), one receiver per
// node in table order: each row's power already in dBm and the index of
// the beacon it came from, 12 bytes a row, over a table of the distinct
// (time, sender) beacons the rows reference. Both instantiation paths
// decode a node's table from them. A masked snapshot (Mask) holds its own
// rows, events and per-node counters and shares the rest with its parent:
// the beacon table, the receiver lists, the network RNG and every node's
// mobility model and RNG stream, all of which instantiation only reads.
type Snapshot struct {
	cfg       Config
	now       float64
	nextMsgID int
	collision int
	netRng    *rng.Rand
	events    []sim.TaggedEvent
	nodes     []nodeState
	nbrs      packedRows
	recs      []reception
	freeRecs  []int32
	// rx holds the scenario's receiver lists (nil when no finite speed
	// bound exists or beacons are frame-level); see receiverLists.
	rx *receiverLists
	// masked marks a snapshot derived by Mask, whose shared pieces count
	// only at the parent (Bytes).
	masked bool
}

// BuildSnapshot simulates cfg from t=0 under the given seed with no
// protocols attached, up to (but excluding) every event at or after
// cutTime, and captures the resulting state. cutTime is normally
// cfg.WarmupTime: the returned snapshot then stands exactly where a
// from-scratch run stands when its broadcast origination fires.
func BuildSnapshot(cfg Config, seed uint64, cutTime float64) (*Snapshot, error) {
	net, err := New(cfg, seed, nil)
	if err != nil {
		return nil, err
	}
	net.Sim.RunBefore(cutTime)
	return net.Snapshot()
}

// Snapshot captures the network's current state. It fails if the state is
// not serialisable: a pending broadcast origination, an armed protocol
// timer or an in-flight data frame cannot be captured, only the
// protocol-independent warm-up machinery (beacons, mobility, beacon
// receptions) can.
func (net *Network) Snapshot() (*Snapshot, error) {
	if net.tape != nil {
		// Tape replay strips the beacon schedule and materialises
		// neighbor tables lazily: its state is not a warm-up state.
		return nil, fmt.Errorf("manet: cannot snapshot a tape-replay network")
	}
	if net.pendingOrig > 0 {
		return nil, fmt.Errorf("manet: cannot snapshot with a pending broadcast origination")
	}
	if net.liveTimers > 0 {
		return nil, fmt.Errorf("manet: cannot snapshot with armed protocol timers")
	}
	// Any timer events still in the schedule are stale (cancelled or
	// fired slots); they carry no state worth replaying, so drop them
	// rather than capturing references into a timer table that will not
	// exist on the other side.
	events := net.Sim.SnapshotEvents()
	w := 0
	for _, ev := range events {
		if ev.Kind == evProtoTimer {
			continue
		}
		events[w] = ev
		w++
	}
	events = events[:w]
	free := make(map[int32]bool, len(net.freeRecs))
	for _, i := range net.freeRecs {
		free[i] = true
	}
	for i := range net.recs {
		if !free[int32(i)] && net.recs[i].msg != nil {
			return nil, fmt.Errorf("manet: cannot snapshot with data frames in flight")
		}
	}
	s := &Snapshot{
		cfg:       net.Cfg,
		now:       net.Sim.Now(),
		nextMsgID: net.nextMsgID,
		collision: net.Collisions,
		netRng:    net.Rng.Clone(),
		events:    events,
		nodes:     make([]nodeState, len(net.Nodes)),
		recs:      append([]reception(nil), net.recs...),
		freeRecs:  append([]int32(nil), net.freeRecs...),
		rx:        net.buildReceiverLists(),
	}
	// Perform every deferred dBm conversion now, through the kernel every
	// instantiation of this snapshot uses (same config, same physics arm),
	// so the value is the one a read would compute and replays never
	// convert a warm-up row again.
	defaultTx := net.Cfg.DefaultTxPowerDBm
	nbrs, err := packTables(net.Nodes, func(e *nbrRec) float64 {
		if !e.hasRx && !e.rxValid {
			return net.kern.RxPower2(defaultTx, e.d2)
		}
		return e.rx
	})
	if err != nil {
		return nil, err
	}
	s.nbrs = nbrs
	for i, n := range net.Nodes {
		s.nodes[i] = nodeState{
			mob:        n.mob.Clone(),
			rng:        n.Rng.Clone(),
			active:     append([]int32(nil), n.active...),
			txUntil:    net.txUntil[i],
			txEnergyMJ: n.TxEnergyMJ,
			txFrames:   n.TxFrames,
			rxFrames:   n.RxFrames,
			lostFrames: n.LostFrames,
		}
	}
	return s, nil
}

// Bytes returns the memory the snapshot retains, counted by slice
// capacity. Each mobility model counts as its concrete state plus one RNG
// stream. What a masked snapshot shares with its parent (see Snapshot)
// counts only at the parent.
func (s *Snapshot) Bytes() int {
	stream := int(unsafe.Sizeof(rng.Rand{}))
	b := int(unsafe.Sizeof(*s)) +
		cap(s.events)*int(unsafe.Sizeof(sim.TaggedEvent{})) +
		cap(s.recs)*int(unsafe.Sizeof(reception{})) + cap(s.freeRecs)*4 +
		cap(s.nodes)*int(unsafe.Sizeof(nodeState{})) + s.nbrs.bytes()
	for i := range s.nodes {
		ns := &s.nodes[i]
		b += cap(ns.active) * 4
		if !s.masked {
			mob := int(reflect.Indirect(reflect.ValueOf(ns.mob)).Type().Size()) + stream
			b += stream + mob
		}
	}
	if !s.masked {
		b += stream
	}
	if r := s.rx; r != nil {
		b += int(unsafe.Sizeof(*r))
		if !s.masked {
			b += cap(r.off)*4 + cap(r.ids)*4 + cap(r.dist)*8
		}
	}
	return b
}

// Now returns the simulation time at which the snapshot was taken.
func (s *Snapshot) Now() float64 { return s.now }

// NumNodes returns the network size of the snapshot.
func (s *Snapshot) NumNodes() int { return len(s.nodes) }

// InstantiateReplayInto, the one instantiation entry point, builds a
// fresh Network from the snapshot, attaches protocol instances, and
// schedules the dissemination of a new message from the source node at
// absolute time startAt (ahead of any captured event at the same instant,
// as in a from-scratch run). The caller runs the network and reads the
// stats collector. Both layer inputs are optional:
//
//   - a nil arena allocates every buffer; an arena recycles its buffers
//     and invalidates what its previous call returned (see Arena);
//   - a nil tape runs the restored beacons live; a tape (recorded from
//     this snapshot, or masked to its size) strips the beacon events and
//     serves neighbor tables from its rows. Per-node frame and energy
//     accounting then excludes beacons, the run must not pass the
//     recorded interval, and a tape of another node count panics.
//
// Broadcast metrics are bit-identical for every combination and to a
// from-scratch run of the same (config, seed, protocol, source).
// Concurrent calls on one snapshot are safe with distinct arenas.
func (s *Snapshot) InstantiateReplayInto(a *Arena, makeProto func(*Node) Protocol, source int, startAt float64, tape *BeaconTape) (*Network, *BroadcastStats) {
	return s.instantiate(makeProto, source, startAt, tape, nil, a)
}

// Arena is a reusable set of instantiation buffers for the evaluation hot
// path: one warmed scenario streaming many candidate simulations
// re-instantiates the same network shape over and over, and without reuse
// the node/RNG blocks, the O(N^2) per-node neighbor index, the restored
// event heap, the spatial grid and every neighbor table are reallocated
// per candidate.
//
// An arena is the optional first argument of Snapshot.InstantiateReplayInto,
// the one instantiation entry point. Ownership contract: an Arena belongs
// to exactly one goroutine at a time, and each InstantiateReplayInto call
// on it invalidates the Network and BroadcastStats returned by the
// previous call — extract whatever outlives the simulation (the metrics)
// before reusing the arena. Buffers grow to the largest network
// instantiated through them and are re-sized automatically when the
// snapshot shape changes, so one arena may serve snapshots of different
// node counts, just not concurrently. Results are bit-identical to a nil
// arena's, which allocates: every buffer is fully overwritten or cleared
// before use.
type Arena struct {
	net       *Network
	nodes     []*Node
	nodeBlock []Node
	rngBlock  []rng.Rand
	mobBlock  []mobility.Model
	posBlock  []int32
	netRng    rng.Rand
}

// NewArena returns an empty arena; buffers are allocated lazily at first
// use and reused afterwards.
func NewArena() *Arena { return &Arena{} }

// instantiate is the body of InstantiateReplayInto and of tape recording
// (RecordBeaconTape): with a tape, the restored schedule is the tape's
// beacon-stripped one and neighbor tables are served lazily from the
// tape (see tape.go); with a
// recorder, the network records a tape and keeps no neighbor tables,
// which nothing in a protocol-less recording reads; with an arena, all
// buffers come from (and return to) it. A nil arena acts as a fresh
// one-shot arena, which is exactly the allocating path.
func (s *Snapshot) instantiate(makeProto func(*Node) Protocol, source int, startAt float64, tape *BeaconTape, rec *tapeRecorder, a *Arena) (*Network, *BroadcastStats) {
	if a == nil {
		a = &Arena{} // one-shot: freshly allocated buffers, owned by the returned network
	}
	events := s.events
	if tape != nil {
		if tape.NumNodes() != len(s.nodes) {
			panic(fmt.Sprintf("manet: tape recorded at %d nodes cannot replay into a %d-node snapshot (mask the tape to the snapshot size)",
				tape.NumNodes(), len(s.nodes)))
		}
		events = tape.events
	}
	nn := len(s.nodes)
	net := a.net
	if net == nil {
		net = &Network{Sim: sim.New(), stats: make(map[int]*BroadcastStats, 1)}
		a.net = net
	}
	net.Sim.Reset(s.now, events)
	net.Sim.SetHandler(net.dispatch)
	net.Cfg = s.cfg
	a.netRng = *s.netRng
	net.Rng = &a.netRng
	net.recycleStats()
	clear(net.stats)
	net.nextMsgID = s.nextMsgID
	net.Collisions = s.collision
	net.recs = append(net.recs[:0], s.recs...)
	net.freeRecs = append(net.freeRecs[:0], s.freeRecs...)
	net.dataInFlight = 0
	net.pendingOrig = 0
	net.tapeRec = rec
	net.maxRange = s.cfg.PathLoss.RangeFor(s.cfg.DefaultTxPowerDBm, s.cfg.SensitivityDBm)
	net.initKernel()
	net.initGrid()
	// Re-sizes the position/deadline columns, invalidates every memoised
	// position (the arena recycles this Network object, and sim.Reset has
	// just rewound the clock to the same warm-up cut every scenario uses)
	// and clears the timer table.
	net.initHotState()
	// Tape replay reads the snapshot's receiver lists in place of the grid
	// and materialises neighbor tables lazily from the snapshot rows (see
	// Node.materialise); both are read-only views shared by every replay.
	lazy := tape != nil
	if lazy {
		net.tape = tape
		net.rxLists = s.rx
		net.snapRows = &s.nbrs
		// Each node's cursor starts at its first row.
		net.tapeCur = append(net.tapeCur[:0], tape.start[:nn]...)
	} else {
		net.tape = nil
		net.tapeCur = nil
		net.rxLists = nil
		net.snapRows = nil
	}
	// Nodes, their RNG states and (when the network is small enough to
	// afford them, see nbrIndexMaxNodes) ID-index tables come from block
	// allocations instead of 3N small ones; mobility models and neighbor
	// tables (which grow independently) stay per-node, but the arena
	// recycles even those across instantiations (CloneInto and the
	// harvested buffers below).
	// A shape change re-slices the blocks within their capacity and only
	// grows them past it, so an arena alternating between node counts (a
	// process-wide pool serving several densities) reallocates nothing
	// once it has seen the largest.
	if cap(a.nodeBlock) < nn {
		a.nodes = make([]*Node, nn)
		a.nodeBlock = make([]Node, nn)
		a.rngBlock = make([]rng.Rand, nn)
		a.mobBlock = make([]mobility.Model, nn)
	} else {
		a.nodes = a.nodes[:nn]
		a.nodeBlock = a.nodeBlock[:nn]
		a.rngBlock = a.rngBlock[:nn]
		a.mobBlock = a.mobBlock[:nn]
	}
	switch {
	case nn > nbrIndexMaxNodes || rec != nil:
		a.posBlock = nil
	case cap(a.posBlock) < nn*nn:
		a.posBlock = make([]int32, nn*nn)
	default:
		a.posBlock = a.posBlock[:nn*nn]
		if !lazy {
			// The index block carries entries from the previous
			// instantiation; a single memclr beats per-row unindexing. A
			// lazy (tape-replay) node clears its own row when it
			// materialises its table, and touches no index entry before
			// that.
			clear(a.posBlock)
		}
	}
	net.Nodes = a.nodes
	for i := range s.nodes {
		ns := &s.nodes[i]
		a.rngBlock[i] = *ns.rng
		n := &a.nodeBlock[i]
		// Harvest the buffers the previous simulation grew before the
		// struct is overwritten, and release its protocol instance for
		// reuse — this is the instant the arena contract invalidates the
		// previous network, so the instance is guaranteed idle.
		if r, ok := n.proto.(ProtoRecycler); ok {
			r.Recycle()
		}
		nbrBuf := n.neighbors[:0]
		if rec == nil {
			if rows := s.nbrs.tableLen(i); cap(nbrBuf) < rows {
				nbrBuf = make([]nbrRec, 0, rows+8)
			}
			if !lazy {
				nbrBuf = s.nbrs.appendTable(nbrBuf, i)
			}
		}
		outBuf := n.nbrOut[:0]
		activeBuf := n.active[:0]
		// Mobility state is copied into the arena's recycled model (a
		// fresh clone on the first instantiation, or on a model-type
		// change) instead of allocating a clone per candidate.
		mob := ns.mob.CloneInto(a.mobBlock[i])
		a.mobBlock[i] = mob
		*n = Node{
			ID:         i,
			net:        net,
			mob:        mob,
			Rng:        &a.rngBlock[i],
			neighbors:  nbrBuf,
			nbrLazy:    lazy,
			nbrOut:     outBuf,
			active:     append(activeBuf, ns.active...),
			TxEnergyMJ: ns.txEnergyMJ,
			TxFrames:   ns.txFrames,
			RxFrames:   ns.rxFrames,
			LostFrames: ns.lostFrames,
		}
		net.txUntil[i] = ns.txUntil
		if a.posBlock != nil {
			n.nbrPos = a.posBlock[i*nn : (i+1)*nn : (i+1)*nn]
			if !lazy {
				n.indexNeighbors()
			}
		}
		net.Nodes[i] = n
	}
	net.computeMaxSpeed()
	if makeProto != nil {
		for _, n := range net.Nodes {
			n.proto = makeProto(n)
			n.proto.Init(n)
		}
	}
	st := net.StartBroadcast(source, startAt)
	return net, st
}

// Mask derives the snapshot of the k-node sub-network consisting of nodes
// [0, k) — the cross-density warm-up sharing primitive. Because node
// construction draws every stream from the master RNG in index order,
// nodes [0, k) of a larger network are EXACTLY the nodes of the k-node
// network built from the same scenario seed; and because fast beacons
// neither contend with anything nor touch protocol state, dropping the
// masked senders' beacon rows from the neighbor tables (and their pending
// events from the schedule) leaves precisely the warm-up state the k-node
// network reaches on its own. A masked snapshot is therefore bit-identical
// to BuildSnapshot of the k-node scenario on every broadcast metric, every
// RNG stream and every event; the one thing it inherits from the parent is
// per-node receive accounting of the warm-up beacons (RxFrames), which no
// metric reads.
//
// The derived snapshot copies only the surviving rows, events and per-node
// counters; it shares the parent's beacon table, receiver lists, network
// RNG and per-node mobility models and RNG streams, which instantiation
// only reads (a value copy and CloneInto). FuzzSnapshotMask holds its
// neighbor tables row-for-row identical to the direct build's.
//
// Mask requires the fast-beacon medium: frame-level beacons contend on the
// shared medium, so a masked node's transmissions would have influenced
// the survivors' tables and collision counters. k must be in [1, NumNodes];
// masking to the full size returns the snapshot itself.
func (s *Snapshot) Mask(k int) (*Snapshot, error) {
	if k < 1 || k > len(s.nodes) {
		return nil, fmt.Errorf("manet: mask size %d outside [1, %d]", k, len(s.nodes))
	}
	if k == len(s.nodes) {
		return s, nil
	}
	if !s.cfg.FastBeacons {
		return nil, fmt.Errorf("manet: masking requires the fast-beacon medium")
	}
	if len(s.recs) != 0 {
		return nil, fmt.Errorf("manet: cannot mask with receptions in flight")
	}
	cfg := s.cfg
	cfg.NumNodes = k
	var events []sim.TaggedEvent
	for _, ev := range s.events {
		switch ev.Kind {
		case evBeacon, evMobility:
			if int(ev.A) < k {
				events = append(events, ev)
			}
		default:
			return nil, fmt.Errorf("manet: cannot mask pending event kind %d", ev.Kind)
		}
	}
	m := &Snapshot{
		cfg:       cfg,
		now:       s.now,
		nextMsgID: s.nextMsgID,
		collision: s.collision,
		netRng:    s.netRng,
		events:    exact(events),
		nodes:     make([]nodeState, k),
		nbrs:      s.nbrs.mask(k),
		rx:        s.rx.mask(k),
		masked:    true,
	}
	for i := range m.nodes {
		ns := &s.nodes[i]
		m.nodes[i] = nodeState{
			mob:        ns.mob,
			rng:        ns.rng,
			active:     exact(ns.active),
			txUntil:    ns.txUntil,
			txEnergyMJ: ns.txEnergyMJ,
			txFrames:   ns.txFrames,
			rxFrames:   ns.rxFrames,
			lostFrames: ns.lostFrames,
		}
	}
	return m, nil
}

// receiverLists are a scenario's per-node receiver lists, captured with
// its snapshot: node i's list (ids[off[i]:off[i+1]], ascending) holds every
// other node that can come within radio range of i at any instant in
// [at, until], with the pair's distance at capture time (dist). Positions
// are protocol-independent and every node moves at most maxSpeed·t in
// time t, so the distance of a pair shrinks by at most drift = 2·maxSpeed
// per second: a pair that is ever within reach r of each other in that
// interval starts within r + drift·(until − at), and the lists keep every
// pair inside that bound. transmitFrame applies the same exact
// squared-distance filter to a list as to a grid query, so the admitted
// receptions are identical while the grid rebuild, query and sort drop out
// of every replay.
//
// Only IDs below nodes count: a masked snapshot shares its parent's lists
// and, the lists being ascending, reads each one up to the first ID at or
// past its own size.
type receiverLists struct {
	at, until float64
	drift     float64
	nodes     int32
	off       []int32
	ids       []int32
	dist      []float64
}

// near appends to dst, in ascending ID order, the nodes on sender's list
// that can be within reach of it at time now: those whose capture-time
// distance exceeds reach + drift·(now − at) cannot be, so their positions
// are never evaluated. The relative and absolute slack absorbs rounding in
// the trajectory evaluation; the result only needs to be a superset of the
// in-range set.
func (r *receiverLists) near(dst []int32, sender int, reach, now float64) []int32 {
	limit := reach + r.drift*(now-r.at)
	limit += limit*1e-9 + 1e-6
	lo, hi := r.off[sender], r.off[sender+1]
	for k := lo; k < hi; k++ {
		id := r.ids[k]
		if id >= r.nodes {
			break
		}
		if r.dist[k] <= limit {
			dst = append(dst, id)
		}
	}
	return dst
}

// buildReceiverLists computes the receiver lists of the network's current
// state up to Cfg.EndTime. It returns nil — transmitFrame then keeps the
// grid — when some mobility model has no finite speed bound, when the
// reach is unbounded, or when beacons are frame-level (tape replay, the
// only reader, needs fast beacons).
func (net *Network) buildReceiverLists() *receiverLists {
	cfg := &net.Cfg
	if !cfg.FastBeacons {
		return nil
	}
	now := net.Sim.Now()
	// Data frames transmit at most at the default power (ClampTxPower), so
	// the cutoff at that power bounds every transmission's reach.
	txMax := math.Max(cfg.DefaultTxPowerDBm, radio.MinTxPowerDBm)
	reach := math.Max(net.maxRange, math.Sqrt(net.kern.CutoffD2(txMax, cfg.SensitivityDBm)))
	rl := &receiverLists{at: now, until: cfg.EndTime, drift: 2 * net.maxSpeed}
	r := reach + rl.drift*math.Max(rl.until-now, 0)
	r += r*1e-9 + 1e-6
	if math.IsNaN(r) || math.IsInf(r, 1) {
		return nil
	}
	r2 := r * r
	nn := len(net.Nodes)
	rl.nodes = int32(nn)
	rl.off = make([]int32, nn+1)
	// Two passes over the pairs, counting and then filling, so the lists
	// are exactly sized (positions are memoised for this instant).
	pairs := func(each func(i, j int, d2 float64)) {
		for i := range nn {
			px, py := net.posOf(int32(i), now)
			for j := range nn {
				if j == i {
					continue
				}
				qx, qy := net.posOf(int32(j), now)
				dx, dy := px-qx, py-qy
				if d2 := dx*dx + dy*dy; d2 <= r2 {
					each(i, j, d2)
				}
			}
		}
	}
	pairs(func(i, _ int, _ float64) { rl.off[i+1]++ })
	for i := range nn {
		rl.off[i+1] += rl.off[i]
	}
	rl.ids = make([]int32, 0, rl.off[nn])
	rl.dist = make([]float64, 0, rl.off[nn])
	pairs(func(_, j int, d2 float64) {
		rl.ids = append(rl.ids, int32(j))
		rl.dist = append(rl.dist, math.Sqrt(d2))
	})
	return rl
}

// mask returns the receiver lists of the k-node sub-network of nodes
// [0, k) (see Snapshot.Mask): the parent's lists cut at ID k, sharing its
// storage. The positions are the same and the parent's speed bound is no
// smaller than the sub-network's own, so the cut lists stay supersets.
func (r *receiverLists) mask(k int) *receiverLists {
	if r == nil {
		return nil
	}
	m := *r
	m.nodes = int32(k)
	return &m
}

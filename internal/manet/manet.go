// Package manet is the wireless mobile ad-hoc network substrate standing in
// for ns-3 in the paper's evaluation loop.
//
// It simulates, on top of the internal/sim event engine:
//
//   - node mobility (internal/mobility trajectories, re-drawn by events);
//   - a shared broadcast medium with log-distance attenuation, receiver
//     sensitivity, half-duplex radios and a capture-threshold collision
//     model;
//   - periodic hello beaconing at the default transmission power, feeding
//     per-node neighbor tables with the received signal strength of each
//     neighbor (the cross-layer information AEDB relies on);
//   - per-broadcast bookkeeping of exactly the four metrics the tuning
//     problem observes: coverage, forwardings, energy and broadcast time.
//
// One Network is one single-goroutine simulation; parallelism happens at a
// higher level by running many networks concurrently.
//
// # Hot-path design
//
// The recurring simulation events (beacons, mobility changes, frame
// ends, protocol timers) are scheduled as tagged events — plain
// (kind, node, payload) triples dispatched through Network.dispatch — so
// the steady-state event loop allocates nothing: no closures, no per-event
// heap objects. Protocol timers are slots of a network-owned table (see
// protoTimer) armed through Node.ScheduleTimer and delivered as
// Protocol.OnTimer callbacks. In-flight frame receptions live in a
// free-list pool indexed by int32, neighbor tables are timeout-pruned
// slices instead of maps, per-node kernel-facing hot state (memoised
// positions, half-duplex deadlines) sits in structure-of-arrays columns on
// the Network, and the "who can hear this transmission" query runs against
// a uniform-grid spatial index
// (internal/geom.FlatGrid, cell size = max radio range) instead of scanning
// all N nodes. The index is rebuilt lazily: between rebuilds, queries are
// inflated by the maximum distance any node can have drifted (bounded by
// mobility.Model.MaxSpeed) and candidates re-filtered against exact current
// positions, so results are bit-identical to a full scan. Tape replays of a
// snapshot skip the grid altogether: the snapshot carries per-node receiver
// lists valid until the scenario ends (see receiverLists).
//
// Because the warm-up phase of a scenario (mobility + beaconing before the
// broadcast starts) depends only on the scenario seed — never on the
// protocol parameters being evaluated — a warmed-up Network can be captured
// once into a Snapshot and cheaply re-instantiated per evaluation; see
// snapshot.go.
package manet

import (
	"fmt"
	"math"
	"slices"

	"aedbmls/internal/geom"
	"aedbmls/internal/mobility"
	"aedbmls/internal/radio"
	"aedbmls/internal/rng"
	"aedbmls/internal/sim"
)

// Config describes a simulation scenario. DefaultScenario reproduces the
// paper's Table II.
type Config struct {
	Area     geom.Rect
	NumNodes int

	// Mobility (random walk).
	SpeedMin, SpeedMax float64 // m/s
	ChangeInterval     float64 // s between direction/speed re-draws

	// Radio.
	PathLoss           radio.LogDistance
	DefaultTxPowerDBm  float64
	SensitivityDBm     float64
	CaptureThresholdDB float64
	BitRateBps         float64
	PropagationSpeed   float64 // m/s; 0 disables propagation delay

	// Beaconing.
	BeaconInterval  float64 // s
	NeighborTimeout float64 // s without beacon before a neighbor is dropped
	BeaconBytes     int
	DataBytes       int

	// FastBeacons delivers beacons instantaneously without frame-level
	// collision modelling. Data frames always use the full collision
	// path. This cuts the event count by an order of magnitude and is the
	// default; accurate beacon contention is available for ablations.
	FastBeacons bool

	// ExactPhysics evaluates PathLoss with the reference formula
	// (radio.NewExactKernel: sqrt + LogDistance.Loss per candidate)
	// instead of the fused d2-space kernel (radio.NewKernel). It is a test
	// oracle: the two arms agree within a ULP-scaled bound on every
	// reception power and on every discrete metric of the golden corpus,
	// but the energy sums differ in the last bits. See
	// internal/radio/kernel.go.
	ExactPhysics bool

	// Timeline.
	WarmupTime float64 // nodes move before the broadcast starts
	EndTime    float64 // absolute simulation end

	// MakeMobility overrides node trajectories (tests pin nodes with
	// mobility.Static). Nil uses the random-walk model of Table II.
	MakeMobility func(id int, r *rng.Rand) mobility.Model

	// Trace hooks, all optional (nil disables). They fire synchronously
	// from the simulation loop, in event order, for data frames only:
	// OnDataTx when a node transmits, OnDataRx on successful reception,
	// OnDataLost when a reception is destroyed by collision or
	// half-duplex conflict.
	OnDataTx   func(node, msgID int, powerDBm, time float64)
	OnDataRx   func(node, from, msgID int, rxPowerDBm, time float64)
	OnDataLost func(node, from, msgID int, time float64)

	// OnDecision, when non-nil, receives one Decision per protocol
	// forwarding-decision site (AEDB's Fig. 1 gates: first-copy
	// admission against the border threshold, the delay draw, duplicate
	// bookkeeping, disqualification, timer expiry, power adaptation).
	// Protocols emit these themselves — see internal/aedb — but the hook
	// lives here, next to the frame hooks, so it rides the same
	// configuration plumbing and is nil-checked once at each emission
	// site: disabled tracing costs one load-and-branch per site.
	OnDecision func(d Decision)
}

// DecisionKind classifies one protocol forwarding decision (see
// Decision). The kinds follow the Fig. 1 pseudocode of the AEDB paper.
type DecisionKind uint8

const (
	// DecisionOriginate: the source transmitted the message at the
	// default power (it has no reception information to adapt with).
	DecisionOriginate DecisionKind = iota + 1
	// DecisionDropClose: the first copy arrived above the border
	// threshold — the node sits too close to the sender and drops out of
	// forwarding immediately (Fig. 1 lines 4-5).
	DecisionDropClose
	// DecisionArm: the first copy arrived at or below the border
	// threshold — the node became a forwarding candidate and armed its
	// delay timer with Delay drawn from the closed interval
	// [DelayLo, DelayHi] (Fig. 1 line 8).
	DecisionArm
	// DecisionDuplicate: another copy arrived while the candidate was
	// waiting; PBestDBm holds the strongest received power after the
	// update (Fig. 1 lines 10-14).
	DecisionDuplicate
	// DecisionCancel: a duplicate pushed the strongest received power
	// above the border threshold — the candidate is disqualified for
	// good and its timer cancelled early (observably identical to the
	// Fig. 1 re-check at expiry).
	DecisionCancel
	// DecisionForward: the delay timer fired with the node still
	// qualified — it forwarded at TxPowerDBm, chosen by Regime from the
	// beacon link budget plus the mobility margin (Fig. 1 lines 18-27).
	DecisionForward
	// DecisionExpireDrop: the timer fired but the strongest received
	// power exceeded the border threshold. Unreachable while early
	// cancellation (DecisionCancel) is in place; kept for Fig. 1
	// completeness.
	DecisionExpireDrop
)

// String returns the compact kind label used by trace renderers.
func (k DecisionKind) String() string {
	switch k {
	case DecisionOriginate:
		return "ORIGINATE"
	case DecisionDropClose:
		return "DROP-CLOSE"
	case DecisionArm:
		return "ARM"
	case DecisionDuplicate:
		return "DUP"
	case DecisionCancel:
		return "CANCEL"
	case DecisionForward:
		return "FORWARD"
	case DecisionExpireDrop:
		return "EXPIRE-DROP"
	default:
		return fmt.Sprintf("KIND(%d)", uint8(k))
	}
}

// Power-adaptation regimes of DecisionForward (AEDB Fig. 1 lines 19-24).
const (
	// RegimeDense: more than neighbors-threshold devices sit in the
	// forwarding area — target the forwarding-area neighbor closest to
	// the sender (the strongest beacon inside the area).
	RegimeDense uint8 = iota + 1
	// RegimeSparse: target the furthest neighbor (weakest beacon) after
	// discarding the nodes the message was already heard from.
	RegimeSparse
	// RegimeFallback: empty (or fully discarded) neighbor table — the
	// node transmits at the default power under total uncertainty.
	RegimeFallback
)

// RegimeName renders a DecisionForward regime for trace output.
func RegimeName(r uint8) string {
	switch r {
	case RegimeDense:
		return "dense"
	case RegimeSparse:
		return "sparse"
	case RegimeFallback:
		return "fallback"
	default:
		return fmt.Sprintf("regime(%d)", r)
	}
}

// Decision is one protocol forwarding decision, emitted through
// Config.OnDecision. It is a flat value struct so emission never
// allocates; fields that do not apply to a Kind are zero (From is -1
// where no triggering sender exists, and RxPowerDBm/BeaconRxDBm are NaN
// where no reception is involved).
type Decision struct {
	Kind   DecisionKind
	Regime uint8 // DecisionForward only (RegimeDense/Sparse/Fallback)

	Node      int32
	From      int32 // sender of the triggering copy; -1 when n/a
	MsgID     int32
	Potential int32 // forwarding-area neighbor count (DecisionForward)

	Time       float64
	RxPowerDBm float64 // power of the triggering copy (NaN when n/a)
	PBestDBm   float64 // strongest copy heard so far
	BorderDBm  float64 // border threshold the copy was judged against

	// Delay draw of DecisionArm: Delay sampled from [DelayLo, DelayHi]
	// via rng.RangeClosed.
	DelayLo, DelayHi, Delay float64

	// Power adaptation of DecisionForward.
	NeighborsThreshold float64 // dense-regime population threshold
	BeaconRxDBm        float64 // chosen link-budget beacon (NaN on fallback)
	TxPowerDBm         float64 // final clamped transmission power
}

// DefaultScenario returns the paper's ns-3 configuration (Table II) for a
// network of numNodes devices: 500 m x 500 m arena, speeds in [0,2] m/s
// re-drawn every 20 s, default TX power 16.02 dBm, 30 s warm-up, 40 s end.
// Densities 100/200/300 devices/km^2 correspond to 25/50/75 nodes.
func DefaultScenario(numNodes int) Config {
	return Config{
		Area:               geom.Square(500),
		NumNodes:           numNodes,
		SpeedMin:           0,
		SpeedMax:           2,
		ChangeInterval:     20,
		PathLoss:           radio.NewLogDistanceDefault(),
		DefaultTxPowerDBm:  radio.DefaultTxPowerDBm,
		SensitivityDBm:     radio.DefaultSensitivityDBm,
		CaptureThresholdDB: radio.DefaultCaptureThresholdDB,
		BitRateBps:         1e6,
		PropagationSpeed:   3e8,
		BeaconInterval:     1.0,
		NeighborTimeout:    3.0,
		BeaconBytes:        32,
		DataBytes:          256,
		FastBeacons:        true,
		WarmupTime:         30,
		EndTime:            40,
	}
}

// NodesForDensity converts a density in devices/km^2 into a node count for
// the configured area (Table II uses a 0.25 km^2 arena).
func NodesForDensity(area geom.Rect, perKm2 float64) int {
	km2 := area.Width() * area.Height() / 1e6
	return int(math.Round(perKm2 * km2))
}

// Validate reports configuration errors: a non-finite value, a
// non-positive size, rate or interval, a negative time, speed or timeout,
// inverted speed bounds, or an end before the warm-up. The random walk
// (MakeMobility nil) needs a positive ChangeInterval: at 0 it re-draws
// forever at one instant and the simulation never advances.
func (c Config) Validate() error {
	for _, f := range [...]struct {
		name string
		v    float64
	}{
		{"Area.MinX", c.Area.MinX}, {"Area.MinY", c.Area.MinY}, {"Area.MaxX", c.Area.MaxX}, {"Area.MaxY", c.Area.MaxY},
		{"SpeedMin", c.SpeedMin}, {"SpeedMax", c.SpeedMax}, {"ChangeInterval", c.ChangeInterval},
		{"PathLoss.Exponent", c.PathLoss.Exponent}, {"PathLoss.ReferenceLoss", c.PathLoss.ReferenceLoss},
		{"PathLoss.ReferenceDistance", c.PathLoss.ReferenceDistance}, {"DefaultTxPowerDBm", c.DefaultTxPowerDBm},
		{"SensitivityDBm", c.SensitivityDBm}, {"CaptureThresholdDB", c.CaptureThresholdDB},
		{"BitRateBps", c.BitRateBps}, {"PropagationSpeed", c.PropagationSpeed}, {"BeaconInterval", c.BeaconInterval},
		{"NeighborTimeout", c.NeighborTimeout}, {"WarmupTime", c.WarmupTime}, {"EndTime", c.EndTime},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("manet: %s must be finite, got %g", f.name, f.v)
		}
	}
	switch {
	case c.NumNodes <= 0:
		return fmt.Errorf("manet: NumNodes must be positive, got %d", c.NumNodes)
	case c.Area.Width() <= 0 || c.Area.Height() <= 0:
		return fmt.Errorf("manet: degenerate area %+v", c.Area)
	case c.PathLoss.Exponent <= 0 || c.PathLoss.ReferenceDistance <= 0:
		return fmt.Errorf("manet: degenerate path loss %+v", c.PathLoss)
	case c.BitRateBps <= 0:
		return fmt.Errorf("manet: BitRateBps must be positive")
	case c.BeaconInterval <= 0:
		return fmt.Errorf("manet: BeaconInterval must be positive")
	case c.MakeMobility == nil && c.ChangeInterval <= 0:
		return fmt.Errorf("manet: ChangeInterval must be positive, got %g", c.ChangeInterval)
	case c.SpeedMin < 0 || c.SpeedMax < c.SpeedMin:
		return fmt.Errorf("manet: speed bounds [%g, %g] must satisfy 0 <= SpeedMin <= SpeedMax", c.SpeedMin, c.SpeedMax)
	case c.PropagationSpeed < 0 || c.NeighborTimeout < 0 || c.WarmupTime < 0:
		return fmt.Errorf("manet: PropagationSpeed %g, NeighborTimeout %g and WarmupTime %g must be >= 0",
			c.PropagationSpeed, c.NeighborTimeout, c.WarmupTime)
	case c.EndTime < c.WarmupTime:
		return fmt.Errorf("manet: EndTime %.3f before WarmupTime %.3f", c.EndTime, c.WarmupTime)
	}
	return nil
}

// Message is a broadcast payload identified by ID; Origin is the source
// node.
type Message struct {
	ID     int
	Origin int
}

// Protocol is the interface a dissemination protocol implements per node.
//
// When the warm-start snapshot path is in use (see Snapshot), protocol
// construction and Init run against an already-warmed network, so they
// must not schedule events or draw from the node RNG — both would diverge
// from a from-scratch run. Every protocol in this repository satisfies
// this: Init only binds the node.
type Protocol interface {
	// Init binds the protocol instance to its node; called once before
	// the simulation starts.
	Init(n *Node)
	// Originate is invoked on the source node to start disseminating msg.
	Originate(msg *Message)
	// OnData is invoked on every successful data-frame reception, with the
	// transmitting node's ID and the received signal strength.
	OnData(msg *Message, from int, rxPowerDBm float64)
	// OnTimer is invoked when a timer armed via Node.ScheduleTimer fires,
	// with the tag the protocol chose when arming it (cancelled timers
	// never fire). Protocols that arm no timers implement it as a no-op.
	OnTimer(tag int32)
}

// ProtoRecycler is an optional Protocol extension for the evaluation hot
// path. When an Arena re-instantiates a network, the previous
// simulation's protocol instances become unreachable at the exact moment
// the arena contract invalidates that network; instances implementing
// Recycle are handed back then instead of being dropped for the garbage
// collector, so a protocol package can pool them (see aedb.New). Recycle
// is only ever called on instances whose network has been invalidated —
// an abandoned simulation (panic, timeout) abandons its arena and its
// protocol instances with it, so a recycled instance is never still in
// use.
type ProtoRecycler interface {
	Recycle()
}

// NeighborEntry is one row of a node's neighbor table, learned via
// beaconing: who the neighbor is, how strongly its last beacon was
// received, and when.
type NeighborEntry struct {
	ID         int
	RxPowerDBm float64
	LastHeard  float64
}

// nbrRec is the internal neighbor-table row. Fast beacons store only the
// squared transmitter distance and defer the dBm conversion (a log10) to
// table reads, which protocols perform orders of magnitude less often
// than beacons fire; frame-level beacons already computed the received
// power for the collision model and store it directly. The deferred
// conversion runs through the network's active path-loss kernel — the
// same kernel every eager conversion uses, so read-time values are
// bit-identical to an eager evaluation under the same physics mode; once
// performed it is memoised in rx (rxValid), and beacon-tape recording
// pre-performs it so every replay simulation of the scenario shares one
// conversion per beacon instead of one per read.
type nbrRec struct {
	id        int32
	hasRx     bool
	rxValid   bool
	d2        float64 // squared distance at beacon time (when !hasRx)
	rx        float64 // received power in dBm (when hasRx or rxValid)
	lastHeard float64
}

// reception tracks one frame at one receiver, from the transmission that
// schedules it until its frame-end event: start is its arrival, end its
// arrival plus airtime, and corrupted collects the half-duplex and capture
// verdicts (see transmitFrame and frameEnd). Receptions live in the
// Network's free-list pool and are referenced by index from tagged events
// and node active sets, so the steady state allocates none.
type reception struct {
	from      int32
	corrupted bool
	powerDBm  float64
	start     float64
	end       float64
	msg       *Message // nil for beacons
}

// nbrIndexMaxNodes bounds the per-node ID->row neighbor index: beyond
// this network size its O(NumNodes^2) total memory outweighs the O(1)
// upsert, and the small per-node tables are scanned linearly instead.
const nbrIndexMaxNodes = 512

// Tagged event kinds dispatched by Network.dispatch.
const (
	evBeacon     uint16 = iota + 1 // a = node ID
	evMobility                     // a = node ID
	evFrameEnd                     // a = receiver ID, b = reception index
	evProtoTimer                   // a = timer-table slot, b = generation
	evOriginate                    // a = source node ID, b = message ID
)

// Node is one device: position (via mobility), radio state, neighbor table
// and its protocol instance.
type Node struct {
	ID  int
	net *Network
	mob mobility.Model
	// Rng is the node's private random stream (delays, jitter).
	Rng *rng.Rand

	proto Protocol
	// neighbors is the timeout-pruned neighbor table in insertion order.
	// nbrPos, when non-nil, maps a node ID to its index+1 in neighbors
	// (0 = absent) for O(1) upserts; it costs O(NumNodes) per node, so
	// networks beyond nbrIndexMaxNodes skip it (see upsertNeighbor) to
	// avoid O(N^2) memory. nbrOut is the scratch Neighbors() renders
	// public entries into.
	// nbrLazy marks a tape-replay table that still lives only in the
	// snapshot the node was instantiated from (and nbrPos a row that may
	// hold a previous instantiation's entries): the first read
	// materialises it (see materialise), so nodes the broadcast never
	// asks decode nothing.
	neighbors []nbrRec
	nbrPos    []int32
	nbrOut    []NeighborEntry
	nbrLazy   bool
	// active holds the reception pool indices scheduled at this receiver
	// and not yet ended: frames still propagating towards it as well as
	// frames it is receiving (transmitFrame appends, frameEnd removes).
	active []int32

	// The remaining kernel-facing hot state — current position, memoised
	// per (node, instant), and the half-duplex transmission deadline —
	// lives in structure-of-arrays columns owned by the Network
	// (posX/posY/posAt, txUntil), so the d2 gather of a transmission and
	// the grid rebuild walk contiguous memory instead of chasing Node
	// pointers. See Network and positionOf.

	// Accounting.
	TxEnergyMJ float64
	TxFrames   int
	RxFrames   int
	LostFrames int
}

// Network returns the owning network (for scheduling, transmitting).
func (n *Node) Network() *Network { return n.net }

// Position returns the node position at the current simulation time.
func (n *Node) Position() geom.Vec2 { return n.net.positionOf(n) }

// Neighbors returns the live neighbor entries (beacons heard within the
// neighbor timeout), pruning expired ones in place. Entries whose
// deferred power conversion lands below the receiver sensitivity (a
// hair-thin band at the edge of the radio range) are dropped like
// expired ones. The returned slice is scratch reused across calls;
// callers must not retain or mutate it.
func (n *Node) Neighbors() []NeighborEntry {
	net := n.net
	if net.tape != nil {
		if n.nbrLazy {
			n.materialise()
		}
		net.syncTape(n)
	}
	cfg := &net.Cfg
	cutoff := net.Sim.Now() - cfg.NeighborTimeout
	n.nbrOut = n.nbrOut[:0]
	w := 0
	for _, e := range n.neighbors {
		if e.lastHeard < cutoff {
			n.unindexNeighbor(e.id)
			continue
		}
		rx := e.rx
		if !e.hasRx {
			if !e.rxValid {
				// Deferred conversion through the active kernel: fused
				// d2-space evaluation, no square root (and memoised, so
				// each row converts at most once; snapshot and tape rows
				// arrive pre-converted).
				rx = net.kern.RxPower2(cfg.DefaultTxPowerDBm, e.d2)
				e.rx, e.rxValid = rx, true
			}
			if rx < cfg.SensitivityDBm {
				n.unindexNeighbor(e.id)
				continue
			}
		}
		n.neighbors[w] = e
		if n.nbrPos != nil {
			n.nbrPos[e.id] = int32(w + 1)
		}
		w++
		n.nbrOut = append(n.nbrOut, NeighborEntry{ID: int(e.id), RxPowerDBm: rx, LastHeard: e.lastHeard})
	}
	n.neighbors = n.neighbors[:w]
	return n.nbrOut
}

// materialise decodes a tape-replay node's table from the snapshot rows
// it was instantiated from and rebuilds its index row, which may still
// hold a previous instantiation's entries (see Snapshot.instantiate).
func (n *Node) materialise() {
	n.neighbors = n.net.snapRows.appendTable(n.neighbors[:0], n.ID)
	if n.nbrPos != nil {
		clear(n.nbrPos)
		n.indexNeighbors()
	}
	n.nbrLazy = false
}

// indexNeighbors points a zeroed index row at the current table rows.
func (n *Node) indexNeighbors() {
	for j, e := range n.neighbors {
		n.nbrPos[e.id] = int32(j + 1)
	}
}

func (n *Node) unindexNeighbor(id int32) {
	if n.nbrPos != nil {
		n.nbrPos[id] = 0
	}
}

// upsertNeighbor inserts or refreshes a neighbor table row, via the
// per-ID index when present or a linear scan of the (small) table when
// the network is too large to afford one index per node.
func (n *Node) upsertNeighbor(e nbrRec) {
	if n.nbrPos != nil {
		if p := n.nbrPos[e.id]; p > 0 {
			n.neighbors[p-1] = e
			return
		}
		n.neighbors = append(n.neighbors, e)
		n.nbrPos[e.id] = int32(len(n.neighbors))
		return
	}
	for i := range n.neighbors {
		if n.neighbors[i].id == e.id {
			n.neighbors[i] = e
			return
		}
	}
	n.neighbors = append(n.neighbors, e)
}

// protoTimer is one slot of the network-owned protocol timer table. A
// slot is armed by Node.ScheduleTimer and carries only plain data (the
// owning node and the protocol's tag); the firing itself is an ordinary
// tagged event, so arming a timer performs zero heap allocations — the
// same move the beacon/mobility/frame machinery made in PR 1. gen is the
// slot's reuse generation: a pending evProtoTimer event addresses its
// slot as (index, generation), so an event left behind by a cancelled or
// already-fired timer can never fire a later occupant of the slot.
type protoTimer struct {
	node  int32
	tag   int32
	gen   uint32
	armed bool
}

// Timer is the cancellable handle of a protocol timer armed with
// Node.ScheduleTimer. It is a plain value (copyable, no heap state); the
// zero Timer is valid and Cancel on it is a no-op. Cancelling an
// already-fired or already-cancelled timer is also a no-op, so handles
// may be retained past the firing without bookkeeping.
type Timer struct {
	net  *Network
	slot int32
	gen  uint32
}

// Cancel disarms the timer: OnTimer will not be invoked. A cancelled
// timer immediately stops counting towards quiescence — it can never run
// protocol code — even though its tagged event drains from the schedule
// only when its firing time passes.
func (t Timer) Cancel() {
	if t.net == nil {
		return
	}
	s := &t.net.timers[t.slot]
	if !s.armed || s.gen != t.gen {
		return
	}
	s.armed = false
	t.net.liveTimers--
	t.net.freeTimer(t.slot)
}

// Armed reports whether the timer is still pending: armed, not cancelled,
// not yet fired.
func (t Timer) Armed() bool {
	if t.net == nil {
		return false
	}
	s := &t.net.timers[t.slot]
	return s.armed && s.gen == t.gen
}

// ScheduleTimer arms a protocol timer on this node: after delay seconds
// of simulated time the node's protocol receives OnTimer(tag). The tag is
// the protocol's own correlation value (typically a message ID); the
// returned handle cancels the timer. No allocation occurs.
func (n *Node) ScheduleTimer(delay float64, tag int32) Timer {
	net := n.net
	slot := net.allocTimer()
	s := &net.timers[slot]
	s.node = int32(n.ID)
	s.tag = tag
	s.armed = true
	net.liveTimers++
	net.Sim.ScheduleTagged(delay, evProtoTimer, slot, int32(s.gen))
	return Timer{net: net, slot: slot, gen: s.gen}
}

// allocTimer takes a timer slot from the free list (or grows the table).
func (net *Network) allocTimer() int32 {
	if k := len(net.freeTimers); k > 0 {
		i := net.freeTimers[k-1]
		net.freeTimers = net.freeTimers[:k-1]
		return i
	}
	net.timers = append(net.timers, protoTimer{})
	return int32(len(net.timers) - 1)
}

// freeTimer returns a slot to the free list, bumping its generation so
// pending events addressed at the old occupancy are recognisably stale.
func (net *Network) freeTimer(i int32) {
	net.timers[i].gen++
	net.freeTimers = append(net.freeTimers, i)
}

// fireTimer handles an evProtoTimer event. Stale events — the slot was
// cancelled, already fired and possibly re-armed, or belongs to a
// previous instantiation through the same arena — fail the (bounds,
// armed, generation) checks and fall through silently.
func (net *Network) fireTimer(slot, gen int32) {
	if int(slot) >= len(net.timers) {
		return
	}
	s := &net.timers[slot]
	if !s.armed || s.gen != uint32(gen) {
		return
	}
	s.armed = false
	net.liveTimers--
	node, tag := s.node, s.tag
	net.freeTimer(slot)
	if p := net.Nodes[node].proto; p != nil {
		p.OnTimer(tag)
	}
}

// Network is one simulation instance.
type Network struct {
	Sim   *sim.Simulator
	Cfg   Config
	Nodes []*Node
	Rng   *rng.Rand

	// grid is the uniform spatial index over node positions, built at
	// gridTime. Between rebuilds queries are inflated by maxSpeed drift
	// (see candidates). maxSpeed is +Inf when any mobility model has no
	// known bound, forcing a rebuild whenever the clock has moved.
	grid      *geom.FlatGrid
	gridTime  float64
	gridBuilt bool
	maxSpeed  float64
	maxRange  float64
	scratch   []int32     // candidate buffer reused across queries
	posBuf    []geom.Vec2 // position buffer reused across grid rebuilds

	// kern is the active path-loss kernel, compiled from Cfg.PathLoss by
	// initKernel (fused d2-space form by default, the reference formula
	// under Cfg.ExactPhysics). physIDs/physD2/physRx are the
	// scratch buffers of its batched conversions: the admitted candidates
	// of a transmission, their squared distances, and the converted
	// powers.
	kern    radio.Kernel
	physIDs []int32
	physD2  []float64
	physRx  []float64
	// physSched is the admitted-reception scratch of transmitFrame,
	// sorted by arrival time so the reception batch can ride the
	// simulator's monotone FIFO lane instead of the event heap.
	physSched []rxSched
	// beaconTxMJ is the radiated energy of one beacon, which always
	// transmits BeaconBytes at the default power (set by initKernel).
	beaconTxMJ float64

	// Structure-of-arrays per-node hot state, indexed by node ID. posX/
	// posY hold the position memoised at instant posAt (NaN = nothing
	// memoised: the stamp every (re)initialisation resets to, so a
	// recycled network can never serve a previous scenario's position —
	// see initHotState). txUntil is the half-duplex transmission deadline.
	// Keeping these in network-owned columns rather than Node fields lets
	// the d2 gather of transmitFrame/fastBeacon and the grid rebuild run
	// over contiguous memory.
	posX, posY, posAt []float64
	txUntil           []float64

	// timers is the protocol timer table (see protoTimer); freeTimers its
	// free list. liveTimers counts armed timers and feeds Quiescent: an
	// armed timer is pending protocol code.
	timers     []protoTimer
	freeTimers []int32
	liveTimers int
	// pendingOrig counts scheduled evOriginate events that have not fired
	// yet; like an armed timer, each is pending protocol code (Quiescent)
	// and refers to a stats collector no snapshot captures (Snapshot).
	pendingOrig int

	// recs is the reception pool; freeRecs its free list.
	recs     []reception
	freeRecs []int32
	// dataInFlight counts data-frame receptions scheduled and not yet
	// ended (active receptions carrying a message); see Quiescent.
	dataInFlight int

	// tape/tapeCur serve neighbor tables from a recorded beacon tape
	// (replay mode, see tape.go; tapeCur is each node's next tape row);
	// tapeRec collects one while recording.
	tape    *BeaconTape
	tapeCur []int32
	tapeRec *tapeRecorder
	// rxLists and snapRows are the snapshot's receiver lists and packed
	// neighbor tables, read in place during tape replay (nil otherwise):
	// the first replaces the grid in transmitFrame, the second is where
	// lazy neighbor tables materialise from.
	rxLists  *receiverLists
	snapRows *packedRows

	stats map[int]*BroadcastStats
	// firstRxPool recycles BroadcastStats first-reception buffers across
	// arena instantiations (harvested when the stats map is cleared).
	firstRxPool [][]float64
	nextMsgID   int
	// Collisions counts data-frame receptions lost to interference or
	// half-duplex conflicts.
	Collisions int
}

// BroadcastStats aggregates the four paper metrics for one message.
type BroadcastStats struct {
	MessageID int
	Source    int
	SentAt    float64
	// firstRx is the node-indexed first successful reception time (NaN =
	// never received); covered counts its non-NaN entries. A slice keyed
	// by the (known) network size replaces the map the data cascade used
	// to allocate per candidate: the buffer is recycled through the
	// owning network across arena instantiations.
	firstRx []float64
	covered int
	// Forwards counts data transmissions by non-source nodes.
	Forwards int
	// SourceSends counts data transmissions by the source.
	SourceSends int
	// TxPowerSumDBm is the paper's energy objective: the sum of the
	// transmission power levels (in dBm) of every data transmission.
	TxPowerSumDBm float64
	// TxEnergyMJ is the physically integrated radiated energy.
	TxEnergyMJ float64
	// LastRx is the latest first-reception time (broadcast completion).
	LastRx float64
	// msg is the disseminated message, handed to the source's protocol
	// when the evOriginate event fires.
	msg *Message
}

// Coverage returns the number of devices (excluding the source) that
// received the message.
func (b *BroadcastStats) Coverage() int { return b.covered }

// FirstRxAt returns a node's first successful reception time and whether
// the node received the message at all.
func (b *BroadcastStats) FirstRxAt(node int) (float64, bool) {
	if node < 0 || node >= len(b.firstRx) {
		return 0, false
	}
	at := b.firstRx[node]
	if math.IsNaN(at) {
		return 0, false
	}
	return at, true
}

// EachFirstRx calls fn for every node that received the message, in
// ascending node-ID order with its first reception time.
func (b *BroadcastStats) EachFirstRx(fn func(node int, at float64)) {
	for id, at := range b.firstRx {
		if !math.IsNaN(at) {
			fn(id, at)
		}
	}
}

// BroadcastTime returns the dissemination duration: last first-reception
// minus send time; zero if nobody received the message.
func (b *BroadcastStats) BroadcastTime() float64 {
	if b.covered == 0 {
		return 0
	}
	return b.LastRx - b.SentAt
}

// New builds a network of cfg.NumNodes random-walk nodes. Protocol
// instances are created per node by makeProto (may be nil for
// protocol-less networks, e.g. beaconing tests).
func New(cfg Config, seed uint64, makeProto func(*Node) Protocol) (*Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	master := rng.New(seed)
	net := &Network{
		Sim:   sim.New(),
		Cfg:   cfg,
		Rng:   master.Split(),
		stats: make(map[int]*BroadcastStats),
	}
	net.Sim.SetHandler(net.dispatch)
	net.maxRange = cfg.PathLoss.RangeFor(cfg.DefaultTxPowerDBm, cfg.SensitivityDBm)
	net.initKernel()
	net.initGrid()
	net.initHotState()

	for i := 0; i < cfg.NumNodes; i++ {
		nodeRng := master.Split()
		var mob mobility.Model
		if cfg.MakeMobility != nil {
			mob = cfg.MakeMobility(i, nodeRng.Split())
		} else {
			mob = mobility.NewRandomWalk(cfg.Area, cfg.SpeedMin, cfg.SpeedMax, cfg.ChangeInterval, nodeRng.Split())
		}
		n := &Node{
			ID:  i,
			net: net,
			mob: mob,
			Rng: nodeRng,
		}
		if cfg.NumNodes <= nbrIndexMaxNodes {
			n.nbrPos = make([]int32, cfg.NumNodes)
		}
		net.Nodes = append(net.Nodes, n)
	}
	net.computeMaxSpeed()
	// Protocol instances after all nodes exist (they may inspect peers).
	if makeProto != nil {
		for _, n := range net.Nodes {
			n.proto = makeProto(n)
			n.proto.Init(n)
		}
	}
	// Mobility change events.
	for _, n := range net.Nodes {
		net.scheduleMobility(n)
	}
	// Beacons with an initial phase jitter.
	for _, n := range net.Nodes {
		phase := n.Rng.Range(0, cfg.BeaconInterval)
		net.Sim.AtTagged(phase, evBeacon, int32(n.ID), 0)
	}
	return net, nil
}

// initKernel compiles the active path-loss kernel from the config: the
// fused d2-space kernel by default, the reference formula when
// Cfg.ExactPhysics is set (see radio.NewKernel / radio.NewExactKernel).
func (net *Network) initKernel() {
	if net.Cfg.ExactPhysics {
		net.kern = radio.NewExactKernel(net.Cfg.PathLoss)
	} else {
		net.kern = radio.NewKernel(net.Cfg.PathLoss)
	}
	net.beaconTxMJ = radio.TxEnergyMilliJoule(net.Cfg.DefaultTxPowerDBm, float64(net.Cfg.BeaconBytes*8)/net.Cfg.BitRateBps)
}

// initGrid sizes the spatial index: one cell per maximum radio range, so
// any feasible transmission query touches at most a 3x3 block (plus drift
// slop). A grid left behind by a previous instantiation through the same
// arena is reused when its shape still matches (Build fully re-indexes).
func (net *Network) initGrid() {
	cell := net.maxRange
	if cell <= 0 {
		cell = math.Max(net.Cfg.Area.Width(), net.Cfg.Area.Height())
		if cell <= 0 {
			cell = 1
		}
	}
	if net.grid == nil || net.grid.Len() != net.Cfg.NumNodes ||
		net.grid.CellSize() != cell || net.grid.Bounds() != net.Cfg.Area {
		net.grid = geom.NewFlatGrid(net.Cfg.Area, cell, net.Cfg.NumNodes)
	}
	net.gridBuilt = false
	net.gridTime = 0
	if cap(net.posBuf) < net.Cfg.NumNodes {
		net.posBuf = make([]geom.Vec2, net.Cfg.NumNodes)
	} else {
		net.posBuf = net.posBuf[:net.Cfg.NumNodes]
	}
}

// computeMaxSpeed derives the network-wide node speed bound from the
// mobility models (+Inf when any model has no bound).
func (net *Network) computeMaxSpeed() {
	net.maxSpeed = 0
	for _, n := range net.Nodes {
		if s := n.mob.MaxSpeed(); s > net.maxSpeed {
			net.maxSpeed = s
		}
	}
}

// dispatch routes tagged events to their handlers.
func (net *Network) dispatch(kind uint16, a, b int32) {
	switch kind {
	case evBeacon:
		if net.tape != nil {
			panic("manet: beacon event fired in tape-replay mode")
		}
		net.beacon(net.Nodes[a])
	case evMobility:
		n := net.Nodes[a]
		n.mob.Advance()
		net.scheduleMobility(n)
	case evFrameEnd:
		net.frameEnd(net.Nodes[a], b)
	case evProtoTimer:
		net.fireTimer(a, b)
	case evOriginate:
		net.pendingOrig--
		net.originate(int(a), net.stats[int(b)].msg)
	default:
		panic(fmt.Sprintf("manet: unknown event kind %d", kind))
	}
}

func (net *Network) scheduleMobility(n *Node) {
	next := n.mob.NextChange()
	if math.IsInf(next, 1) || next > net.Cfg.EndTime {
		return
	}
	net.Sim.AtTagged(next, evMobility, int32(n.ID), 0)
}

// positionOf returns a node's exact position at the current instant,
// memoised per (node, instant) in the network-owned position columns.
func (net *Network) positionOf(n *Node) geom.Vec2 {
	x, y := net.posOf(int32(n.ID), net.Sim.Now())
	return geom.Vec2{X: x, Y: y}
}

// posOf is positionOf by node ID, returning the coordinates directly from
// the position columns: posAt[id] stamps the instant the memoised value
// is valid for (NaN = invalid), so within one event instant each
// trajectory is evaluated at most once and every later read is two
// contiguous array loads.
func (net *Network) posOf(id int32, now float64) (x, y float64) {
	if net.posAt[id] != now {
		p := net.Nodes[id].mob.Position(now)
		net.posX[id], net.posY[id] = p.X, p.Y
		net.posAt[id] = now
	}
	return net.posX[id], net.posY[id]
}

// initHotState sizes the structure-of-arrays per-node columns and resets
// the protocol timer table. The NaN fill of posAt is the position-cache
// invalidation on (re)use: sim.Reset restarts every arena instantiation
// at the same warm-up cut, so without it a recycled network whose new
// scenario shares an instant with the old one would serve the previous
// scenario's memoised position.
func (net *Network) initHotState() {
	nn := net.Cfg.NumNodes
	if cap(net.posX) < nn {
		net.posX = make([]float64, nn)
		net.posY = make([]float64, nn)
		net.posAt = make([]float64, nn)
		net.txUntil = make([]float64, nn)
	} else {
		net.posX = net.posX[:nn]
		net.posY = net.posY[:nn]
		net.posAt = net.posAt[:nn]
		net.txUntil = net.txUntil[:nn]
	}
	nan := math.NaN()
	for i := 0; i < nn; i++ {
		net.posAt[i] = nan
		net.txUntil[i] = 0
	}
	net.timers = net.timers[:0]
	net.freeTimers = net.freeTimers[:0]
	net.liveTimers = 0
}

// candidates returns the IDs of every node whose current position may lie
// within radius of center. The set is a superset of the true in-range
// set: the grid holds positions from gridTime, so the query radius is
// inflated by how far any node can have drifted since; callers must
// re-filter with exact positions. The grid is rebuilt when the drift
// bound grows past a quarter cell (and always when no finite speed bound
// exists), keeping the inflation — and the candidate excess — small.
//
// With sorted true the IDs come back ascending, reproducing the iteration
// order of a linear scan; callers whose per-candidate effects are
// independent (beacon table updates) skip the sort.
func (net *Network) candidates(center geom.Vec2, radius float64, exclude int, sorted bool) []int32 {
	now := net.Sim.Now()
	slop := 0.0
	if !net.gridBuilt || now < net.gridTime {
		slop = math.Inf(1)
	} else if now > net.gridTime {
		slop = net.maxSpeed * (now - net.gridTime)
	}
	if slop > net.grid.CellSize()/4 {
		for i, n := range net.Nodes {
			net.posBuf[i] = net.positionOf(n)
		}
		net.grid.Build(net.posBuf)
		net.gridTime = now
		net.gridBuilt = true
		slop = 0
	}
	net.scratch = net.grid.Query(net.scratch[:0], center, radius+slop, exclude)
	if sorted {
		slices.Sort(net.scratch)
	}
	return net.scratch
}

// beacon transmits one hello frame and schedules the next.
func (net *Network) beacon(n *Node) {
	if net.Sim.Now() <= net.Cfg.EndTime {
		if net.Cfg.FastBeacons {
			net.fastBeacon(n)
		} else {
			net.transmitFrame(n, nil, net.Cfg.DefaultTxPowerDBm, float64(net.Cfg.BeaconBytes*8)/net.Cfg.BitRateBps, net.beaconTxMJ)
		}
		net.Sim.ScheduleTagged(net.Cfg.BeaconInterval, evBeacon, int32(n.ID), 0)
	}
}

// fastBeacon updates neighbor tables instantly, without contention.
func (net *Network) fastBeacon(n *Node) {
	cfg := &net.Cfg
	now := net.Sim.Now()
	n.TxEnergyMJ += net.beaconTxMJ
	n.TxFrames++
	pos := net.positionOf(n)
	px, py := pos.X, pos.Y
	r2 := net.maxRange * net.maxRange
	if net.tapeRec == nil {
		for _, id := range net.candidates(pos, net.maxRange, n.ID, false) {
			qx, qy := net.posOf(id, now)
			dx, dy := px-qx, py-qy
			d2 := dx*dx + dy*dy
			if d2 > r2 {
				continue
			}
			// The dBm conversion is deferred to table reads (see nbrRec).
			other := net.Nodes[id]
			other.upsertNeighbor(nbrRec{id: int32(n.ID), d2: d2, lastHeard: now})
			other.RxFrames++
		}
		return
	}
	// Recording: pre-perform the conversion — one batched kernel call for
	// the whole in-range slice — so every replay of the tape shares it
	// instead of converting per read per candidate. The recording network
	// keeps no neighbor tables (see Snapshot.instantiate): the rows go
	// only to the tape.
	ids := net.physIDs[:0]
	d2s := net.physD2[:0]
	for _, id := range net.candidates(pos, net.maxRange, n.ID, false) {
		qx, qy := net.posOf(id, now)
		dx, dy := px-qx, py-qy
		d2 := dx*dx + dy*dy
		if d2 > r2 {
			continue
		}
		ids = append(ids, id)
		d2s = append(d2s, d2)
	}
	rxs := net.kern.RxPowerInto(net.physRx, cfg.DefaultTxPowerDBm, d2s)
	net.physIDs, net.physD2, net.physRx = ids, d2s, rxs
	rec := net.tapeRec
	b := uint32(rec.beacons.n)
	rec.beacons.add(rowBeacon{t: now, from: int32(n.ID)})
	for i, id := range ids {
		rec.rows.add(tapeRow{to: id, beacon: b, rx: rxs[i]})
		net.Nodes[id].RxFrames++
	}
}

// NewMessage allocates a message originating at the source node.
func (net *Network) NewMessage(source int) *Message {
	id := net.nextMsgID
	net.nextMsgID++
	return &Message{ID: id, Origin: source}
}

// StartBroadcast schedules the dissemination of a fresh message from the
// source node at absolute time t and returns its stats collector. The
// origination is ordered ahead of every pending event at t (sim's
// AtTaggedFront slot), so a from-scratch run and every snapshot restore
// fire it first at the warm-up cut. A Network carries one broadcast: the
// slot is single-use, and a second StartBroadcast panics.
func (net *Network) StartBroadcast(source int, t float64) *BroadcastStats {
	msg := net.NewMessage(source)
	st := &BroadcastStats{MessageID: msg.ID, Source: source, SentAt: t, firstRx: net.newFirstRx(), msg: msg}
	net.stats[msg.ID] = st
	net.pendingOrig++
	net.Sim.AtTaggedFront(t, evOriginate, int32(source), int32(msg.ID))
	return st
}

// newFirstRx takes a first-reception buffer from the network's recycling
// pool (or allocates one), sized to the current node count and reset to
// all-NaN.
func (net *Network) newFirstRx() []float64 {
	nn := len(net.Nodes)
	var buf []float64
	if k := len(net.firstRxPool); k > 0 {
		buf = net.firstRxPool[k-1]
		net.firstRxPool = net.firstRxPool[:k-1]
	}
	if cap(buf) < nn {
		buf = make([]float64, nn)
	}
	buf = buf[:nn]
	nan := math.NaN()
	for i := range buf {
		buf[i] = nan
	}
	return buf
}

// recycleStats harvests the first-reception buffers of every finished
// stats collector so the next instantiation through the same buffers
// reuses them; the collectors themselves are invalidated by the caller
// (which clears the stats map).
func (net *Network) recycleStats() {
	for _, st := range net.stats {
		if st.firstRx != nil {
			net.firstRxPool = append(net.firstRxPool, st.firstRx)
			st.firstRx = nil
			st.covered = 0
		}
	}
}

func (net *Network) originate(source int, msg *Message) {
	n := net.Nodes[source]
	if n.proto != nil {
		n.proto.Originate(msg)
	}
}

// TransmitData broadcasts a data frame carrying msg from node n at the
// given power. Protocols call this; all metric accounting happens here.
func (net *Network) TransmitData(n *Node, msg *Message, txPowerDBm float64) {
	txPowerDBm = radio.ClampTxPower(txPowerDBm, net.Cfg.DefaultTxPowerDBm)
	duration := float64(net.Cfg.DataBytes*8) / net.Cfg.BitRateBps
	txMJ := radio.TxEnergyMilliJoule(txPowerDBm, duration)
	if st := net.stats[msg.ID]; st != nil {
		if n.ID == msg.Origin {
			st.SourceSends++
		} else {
			st.Forwards++
		}
		st.TxPowerSumDBm += txPowerDBm
		st.TxEnergyMJ += txMJ
	}
	if net.Cfg.OnDataTx != nil {
		net.Cfg.OnDataTx(n.ID, msg.ID, txPowerDBm, net.Sim.Now())
	}
	net.transmitFrame(n, msg, txPowerDBm, duration, txMJ)
}

// allocRec takes a reception slot from the pool.
func (net *Network) allocRec() int32 {
	if k := len(net.freeRecs); k > 0 {
		i := net.freeRecs[k-1]
		net.freeRecs = net.freeRecs[:k-1]
		return i
	}
	net.recs = append(net.recs, reception{})
	return int32(len(net.recs) - 1)
}

// freeRec returns a reception slot to the pool, clearing its message
// reference so pooled slots never pin a finished broadcast.
func (net *Network) freeRec(i int32) {
	net.recs[i].msg = nil
	net.freeRecs = append(net.freeRecs, i)
}

// transmitFrame implements the shared medium: it finds every node within
// the feasible range of the chosen power, puts each admitted reception on
// its receiver's active list and schedules one frame-end event per
// reception, at arrival plus airtime. The half-duplex rule is applied here,
// at both ends of every link; the capture rule waits for frameEnd. The
// caller passes the frame's airtime and radiated energy (txMJ).
func (net *Network) transmitFrame(n *Node, msg *Message, txPowerDBm, duration, txMJ float64) {
	cfg := &net.Cfg
	now := net.Sim.Now()
	n.TxEnergyMJ += txMJ
	n.TxFrames++
	// Half duplex: the sender cannot receive while transmitting. A frame
	// that has already arrived at it is lost, and so is one still
	// propagating towards it that lands within its airtime.
	if net.txUntil[n.ID] < now+duration {
		net.txUntil[n.ID] = now + duration
	}
	busy := net.txUntil[n.ID]
	for _, ri := range n.active {
		if r := &net.recs[ri]; r.start <= now || r.start < busy {
			r.corrupted = true
		}
	}

	pos := net.positionOf(n)
	// The kernel precomputes the sensitivity cutoff as a d2-space
	// threshold: out-of-range candidates are rejected on their squared
	// distance alone and never touch a transcendental. Candidates under
	// the cutoff still pass the exact rx >= sensitivity check below, the
	// same structure the reference path uses with RangeFor squared.
	cut := net.kern.CutoffD2(txPowerDBm, cfg.SensitivityDBm)
	ids, d2s := net.inRange(n.ID, pos, cut)
	// One batched kernel call converts every admitted candidate's squared
	// distance to its reception power.
	rxs := net.kern.RxPowerInto(net.physRx, txPowerDBm, d2s)
	net.physRx = rxs
	sched := net.physSched[:0]
	for i, id := range ids {
		rx := rxs[i]
		if rx < cfg.SensitivityDBm {
			continue
		}
		var prop float64
		if cfg.PropagationSpeed > 0 {
			prop = math.Sqrt(d2s[i]) / cfg.PropagationSpeed
		}
		sched = append(sched, rxSched{t: now + prop, rx: rx, id: int32(id)})
	}
	// Insertion sort by (arrival time, receiver ID). The batch is small
	// (a node's in-range receivers) and nearly sorted when propagation
	// delay is off; the (t, id) key is a strict total order, so the
	// result — and with it every sequence-number assignment below — is
	// deterministic.
	for i := 1; i < len(sched); i++ {
		e := sched[i]
		j := i
		for j > 0 && (e.t < sched[j-1].t || (e.t == sched[j-1].t && e.id < sched[j-1].id)) {
			sched[j] = sched[j-1]
			j--
		}
		sched[j] = e
	}
	net.physSched = sched
	// A receiver that is still transmitting when the frame arrives loses
	// it. Frame ends sit at arrival plus one airtime, so in (arrival, ID)
	// order they ride the monotone lane.
	for _, e := range sched {
		ri := net.allocRec()
		end := e.t + duration
		net.recs[ri] = reception{from: int32(n.ID), corrupted: e.t < net.txUntil[e.id], powerDBm: e.rx, start: e.t, end: end, msg: msg}
		if msg != nil {
			net.dataInFlight++
		}
		r := net.Nodes[e.id]
		r.active = append(r.active, ri)
		net.Sim.AtTaggedMonotone(end, evFrameEnd, e.id, ri)
	}
}

// inRange gathers, in ascending ID order, every node other than sender
// whose current squared distance from pos is at most cut, with those
// squared distances (into the physIDs/physD2 scratch). The admitted
// receptions are later sorted by (arrival time, ID), which both preserves
// the firing order of the historical schedule-in-ID-order scheme — events
// fire in (time, seq) order, and among a transmission's receptions that
// collapses to (time, ID) either way — and lets the whole batch ride the
// simulator's monotone FIFO lane.
//
// In tape replay the sender's receiver list (see receiverLists.near) —
// already ascending, and a superset of every node in range now — stands in
// for the grid query; the exact d2 filter is the same.
func (net *Network) inRange(sender int, pos geom.Vec2, cut float64) ([]int32, []float64) {
	now := net.Sim.Now()
	var cands []int32
	if rl := net.rxLists; rl != nil && now <= rl.until {
		net.scratch = rl.near(net.scratch[:0], sender, math.Sqrt(cut), now)
		cands = net.scratch
	} else {
		cands = net.candidates(pos, math.Sqrt(cut), sender, true)
	}
	ids := net.physIDs[:0]
	d2s := net.physD2[:0]
	for _, id := range cands {
		qx, qy := net.posOf(id, now)
		dx, dy := pos.X-qx, pos.Y-qy
		d2 := dx*dx + dy*dy
		if d2 > cut {
			continue
		}
		ids = append(ids, id)
		d2s = append(d2s, d2)
	}
	net.physIDs, net.physD2 = ids, d2s
	return ids, d2s
}

// rxSched is one admitted reception of a transmission, staged for
// time-sorted scheduling (see transmitFrame).
type rxSched struct {
	t, rx float64
	id    int32
}

// frameEnd finalises one reception. It first applies the capture rule
// against every other reception at this receiver that arrived before this
// one ends: a frame survives an overlap only if it is at least
// CaptureThresholdDB stronger than the other, and the test marks both
// sides. The earlier-ending frame of each overlapping pair runs it, so
// every pair is judged exactly once; a frame that arrives at the instant
// this one ends does not overlap it. The reception then leaves the active
// set and, if it survived, is delivered to the neighbor table (beacon) or
// the protocol (data).
func (net *Network) frameEnd(n *Node, ri int32) {
	self := &net.recs[ri]
	capture := net.Cfg.CaptureThresholdDB
	k := 0
	for i, oi := range n.active {
		if oi == ri {
			k = i
			continue
		}
		o := &net.recs[oi]
		if o.start >= self.end {
			continue
		}
		if self.powerDBm < o.powerDBm+capture {
			self.corrupted = true
		}
		if o.powerDBm < self.powerDBm+capture {
			o.corrupted = true
		}
	}
	last := len(n.active) - 1
	n.active[k] = n.active[last]
	n.active = n.active[:last]
	rec := net.recs[ri]
	net.freeRec(ri)
	if rec.msg != nil {
		net.dataInFlight--
	}
	if rec.corrupted {
		n.LostFrames++
		if rec.msg != nil {
			net.Collisions++
			if net.Cfg.OnDataLost != nil {
				net.Cfg.OnDataLost(n.ID, int(rec.from), rec.msg.ID, net.Sim.Now())
			}
		}
		return
	}
	n.RxFrames++
	now := net.Sim.Now()
	if rec.msg == nil {
		n.upsertNeighbor(nbrRec{id: rec.from, hasRx: true, rx: rec.powerDBm, lastHeard: now})
		return
	}
	if st := net.stats[rec.msg.ID]; st != nil && n.ID != rec.msg.Origin {
		if math.IsNaN(st.firstRx[n.ID]) {
			st.firstRx[n.ID] = now
			st.covered++
			if now > st.LastRx {
				st.LastRx = now
			}
		}
	}
	if net.Cfg.OnDataRx != nil {
		net.Cfg.OnDataRx(n.ID, int(rec.from), rec.msg.ID, rec.powerDBm, now)
	}
	if n.proto != nil {
		n.proto.OnData(rec.msg, int(rec.from), rec.powerDBm)
	}
}

// Run executes the simulation until cfg.EndTime.
func (net *Network) Run() { net.Sim.RunUntil(net.Cfg.EndTime) }

// Quiescent reports whether the current broadcast activity is over: no
// broadcast origination is pending, no protocol timer is armed, and no
// data frame is in flight. From a quiescent state no
// protocol code can ever run again — the remaining tagged events are
// beacons, mobility changes, beacon frame ends and stale (cancelled
// or fired) timer events, none of which invokes a protocol or touches a
// stats collector — so every BroadcastStats field and the Collisions
// counter are final.
func (net *Network) Quiescent() bool {
	return net.pendingOrig == 0 && net.liveTimers == 0 && net.dataInFlight == 0
}

// RunToQuiescence executes the simulation until cfg.EndTime, stopping
// early as soon as the network is Quiescent. The broadcast metrics it
// leaves behind are bit-identical to a full Run — the skipped tail is
// protocol-independent beacon and mobility churn — but per-node frame and
// energy accounting stops where the simulation does. The batched
// evaluation engine uses this to avoid simulating the dead tail of every
// candidate configuration.
func (net *Network) RunToQuiescence() {
	for !net.Quiescent() {
		if !net.Sim.StepUntil(net.Cfg.EndTime) {
			return
		}
	}
}

// MaxRange returns the radio range at the default transmission power.
func (net *Network) MaxRange() float64 { return net.maxRange }

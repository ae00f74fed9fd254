// Beacon tapes: sharing the protocol-independent beacon evolution of a
// warmed scenario across many simulations.
//
// With fast beacons (the default medium), nothing a dissemination
// protocol does can influence beaconing: fast beacons never contend with
// data frames, draw no randomness, and read no protocol state. The
// complete neighbor-table evolution of a scenario after the warm-up cut —
// which beacon lands in which table, with what distance, at what time —
// is therefore a pure function of the scenario seed, exactly like the
// warm-up itself. A BeaconTape records that evolution once; every replay
// simulation of the same scenario then strips the beacon events from its
// schedule entirely and serves neighbor-table reads lazily from the tape.
//
// Equivalence argument. A node's neighbor table changes through exactly
// two operations: beacon upserts (at beacon instants) and read-time
// pruning (Node.Neighbors, the only read path). The tape replays the
// identical upsert sequence — same rows, same order, same timestamps —
// applied at read time instead of beacon time; since between a beacon
// instant and the next read nothing observes the table, applying the
// pending upserts immediately before the read yields bit-identical
// contents (values and row order) at every read instant. Protocol
// behaviour, and hence every broadcast metric, is unchanged. What replay
// mode does give up is per-node beacon accounting on the sender side
// (TxFrames/TxEnergyMJ no longer include beacon traffic), which no metric
// reads; receiver-side RxFrames accounting is applied with the upserts.
//
// The tie-break assumption: when a beacon and a table read share an exact
// instant, the beacon applies first. In the event loop the beacon wins
// the FIFO tie because it was scheduled a full interval earlier, and the
// tape's `lastHeard <= now` application rule reproduces that order.
package manet

import (
	"fmt"
	"unsafe"

	"aedbmls/internal/sim"
)

// BeaconTape is the recorded fast-beacon evolution of one warmed scenario
// in (snapshot cut, until]. It is immutable after RecordBeaconTape
// returns and safe to share across concurrent replay simulations.
//
// Its upserts are packed rows (see packedRows), receiver by receiver in
// firing order: the pre-converted received power and the beacon it came
// from, 12 bytes a row, over a table of the recorded fast beacons in
// firing order (when each fired and who sent it). Masked tapes share the
// parent's beacon table and hold only their own rows.
type BeaconTape struct {
	until  float64
	events []sim.TaggedEvent // snapshot schedule with beacon events stripped
	packedRows
}

// tapeRecorder collects a tape while RecordBeaconTape runs: the beacon
// table and one row per reception in firing order, both in fixed-size
// chunks, packed by receiver once the recording ends (see pack).
type tapeRecorder struct {
	beacons chunks[rowBeacon]
	rows    chunks[tapeRow]
}

// tapeRow is one recorded reception before packing.
type tapeRow struct {
	to     int32
	beacon uint32
	rx     float64
}

// NumNodes returns the network size the tape was recorded at. A tape can
// only replay into snapshots of exactly this size (see
// Snapshot.InstantiateReplayInto); smaller scenarios derive their tape
// with Mask.
func (t *BeaconTape) NumNodes() int { return len(t.start) - 1 }

// Upserts returns the total number of recorded neighbor-table updates.
func (t *BeaconTape) Upserts() int { return len(t.rx) }

// Bytes returns the memory the tape retains, counted by slice capacity.
// A masked tape's beacon table is its parent's and counts only there.
func (t *BeaconTape) Bytes() int {
	return int(unsafe.Sizeof(*t)) + cap(t.events)*int(unsafe.Sizeof(sim.TaggedEvent{})) + t.bytes()
}

// RecordBeaconTape replays the scenario's beacon schedule from the
// snapshot cut to until (normally cfg.EndTime) on a protocol-less clone
// and records every neighbor-table update. It requires the fast-beacon
// medium: frame-level beacons contend with data frames, so their
// evolution is not protocol-independent and cannot be shared.
func (s *Snapshot) RecordBeaconTape(until float64) (*BeaconTape, error) {
	if !s.cfg.FastBeacons {
		return nil, fmt.Errorf("manet: beacon tapes require the fast-beacon medium")
	}
	if until < s.now {
		until = s.now
	}
	var events []sim.TaggedEvent
	for _, ev := range s.events {
		if ev.Kind != evBeacon {
			events = append(events, ev)
		}
	}
	rec := &tapeRecorder{}
	net, _ := s.instantiate(nil, 0, s.now, nil, rec, nil)
	net.Sim.RunUntil(until)
	return rec.pack(until, exact(events), len(s.nodes)), nil
}

// pack lays the recorded rows out by receiver, each receiver's in firing
// order, in arrays of exactly the recorded size.
func (r *tapeRecorder) pack(until float64, events []sim.TaggedEvent, n int) *BeaconTape {
	t := &BeaconTape{until: until, events: events, packedRows: packedRows{
		beacons: r.beacons.flat(),
		start:   make([]int32, n+1),
		rx:      make([]float64, r.rows.n),
		beacon:  make([]uint32, r.rows.n),
	}}
	for row := range r.rows.all() {
		t.start[row.to+1]++
	}
	for i := range n {
		t.start[i+1] += t.start[i]
	}
	next := exact(t.start[:n])
	for row := range r.rows.all() {
		k := next[row.to]
		t.rx[k], t.beacon[k] = row.rx, row.beacon
		next[row.to]++
	}
	return t
}

// Mask derives the beacon tape of the k-node sub-network consisting of
// nodes [0, k) — the cross-density tape sharing primitive, mirroring
// Snapshot.Mask. By the same argument that makes a masked snapshot
// bit-identical to a direct small-network build (nodes [0, k) of the
// larger population ARE the k-node network of the same seed, and fast
// beacons neither contend nor read protocol state), dropping the masked
// senders' upserts from every surviving receiver's record (and the masked
// nodes' pending events from the stripped schedule) leaves exactly the
// tape RecordBeaconTape would produce from the k-node scenario: the same
// upserts, in the same order, with the same timestamps and pre-converted
// powers. The derived tape shares the parent's beacon table (rows keep
// their parent beacon indices) and copies only the surviving rows (see
// packedRows.mask, which Snapshot.Mask uses too).
// FuzzTapeMask holds the two row-for-row identical.
//
// k must be in [1, NumNodes]; masking to the full size returns the tape
// itself. The derived tape shares only immutable state with the parent
// and is equally safe for concurrent replays.
func (t *BeaconTape) Mask(k int) (*BeaconTape, error) {
	n := t.NumNodes()
	if k < 1 || k > n {
		return nil, fmt.Errorf("manet: tape mask size %d outside [1, %d]", k, n)
	}
	if k == n {
		return t, nil
	}
	var events []sim.TaggedEvent
	for _, ev := range t.events {
		switch ev.Kind {
		case evMobility:
			if int(ev.A) < k {
				events = append(events, ev)
			}
		default:
			// A fast-beacon warm-up schedule holds only beacon (already
			// stripped) and mobility events; anything else means the tape
			// was recorded from a state this derivation cannot reason
			// about.
			return nil, fmt.Errorf("manet: cannot mask recorded event kind %d", ev.Kind)
		}
	}
	return &BeaconTape{until: t.until, events: exact(events), packedRows: t.mask(k)}, nil
}

// syncTape applies every tape upsert for node n that is due at the
// current instant, bringing the table to exactly the state the eager
// beacon path would have produced before this read. Tape rows are all
// converted ones (RecordBeaconTape needs fast beacons).
func (net *Network) syncTape(n *Node) {
	t := net.tape
	cur, end := net.tapeCur[n.ID], t.start[n.ID+1]
	now := net.Sim.Now()
	beacons, beacon, rx := t.beacons, t.beacon, t.rx
	for ; cur < end; cur++ {
		b := &beacons[beacon[cur]]
		if b.t > now {
			break
		}
		n.upsertNeighbor(b.rec(rx[cur]))
		n.RxFrames++
	}
	net.tapeCur[n.ID] = cur
}

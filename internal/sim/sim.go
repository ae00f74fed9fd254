// Package sim implements a minimal discrete-event simulation engine: a
// future event list ordered by time with deterministic tie-breaking.
//
// It plays the role ns-3's scheduler plays in the paper: the MANET
// substrate (beacons, frame receptions, protocol timers, mobility waypoint
// changes) is expressed entirely as events against this engine, so a whole
// network simulation is a single goroutine and is bit-for-bit reproducible.
//
// Every event is a tagged event: a small integer payload (kind, a, b)
// that the simulator hands to its one handler when the event fires. The
// payload lives inline in the future event list, so scheduling performs
// zero heap allocations, and because it is plain data a pending schedule
// can be captured (SnapshotEvents) and replayed in a rewound simulator
// (Reset). The caller's handler gives each kind its meaning; the MANET
// layer uses kinds for beacons, mobility changes, frame ends (one per
// reception), protocol timers and the broadcast origination. There is no
// cancellation: a caller that needs it addresses its own state through
// the payload and lets a stale event fall through (see manet's timer
// table).
package sim

import "sort"

// TaggedEvent is the serialisable form of one pending event, as captured
// by SnapshotEvents and replayed by Reset.
type TaggedEvent struct {
	Time float64
	Kind uint16
	A, B int32
}

// entry is one future-event-list slot: the (time, seq) ordering key and
// the inline payload, 32 bytes with no pointers.
type entry struct {
	time float64
	seq  uint64
	a, b int32
	kind uint16
}

// before is the event ordering: by time, then FIFO among simultaneous
// events via the scheduling sequence number.
func (e entry) before(o entry) bool {
	if e.time != o.time {
		return e.time < o.time
	}
	return e.seq < o.seq
}

// Simulator owns the simulation clock and the future event list. It is not
// safe for concurrent use; one simulation runs on one goroutine (many
// simulations run in parallel at a higher level).
//
// The future event list has three tiers. Events scheduled at runtime
// live in a small min-heap; a schedule restored by Reset — already sorted
// in firing order by SnapshotEvents — is kept as-is and consumed through
// a cursor instead of being fed through the heap. The earliest pending
// event is the smallest of the heads under the same (time, seq) total
// order, so the pop sequence is identical to a single heap — but a
// replay simulation's heap only ever holds the handful of in-flight
// frame/timer events, not the whole restored schedule.
// The third tier is the monotone FIFO lane: events whose firing
// times arrive in non-decreasing order (a transmission's frame-end
// events, pre-sorted by arrival and one airtime after it) are appended
// to a plain slice and consumed through a cursor, skipping the heap's
// O(log n) sift entirely. Entries carry ordinary sequence numbers, so
// the three-way head comparison in head yields exactly the (time, seq)
// total order a single heap would — the lane is a pure constant-factor
// optimisation.
type Simulator struct {
	now      float64
	seq      uint64
	heap     []entry // runtime-scheduled events (min-heap)
	sched    []entry // restored schedule, sorted; consumed from schedIdx
	schedIdx int
	lane     []entry // monotone FIFO lane, sorted by construction; consumed from laneIdx
	laneIdx  int

	fired     uint64
	frontUsed bool
	handler   func(kind uint16, a, b int32)
}

// New returns an empty simulator with the clock at 0. Sequence numbers
// start at 1; sequence 0 is reserved for the single AtTaggedFront slot.
func New() *Simulator {
	return &Simulator{seq: 1}
}

// Reset rewinds the simulator: the clock is at now and the future event
// list holds exactly the given events, which must be sorted in their
// intended firing order (as returned by SnapshotEvents). Relative order
// among same-time events is preserved, and the sequence counter leaves
// sequence number 0 free for a single AtTaggedFront call. Reset reuses
// the existing storage, so callers (the wave-level instantiation arena)
// that run many short simulations from one captured schedule allocate
// nothing per run. Any previously pending events are discarded; the
// handler must be re-installed with SetHandler before an event fires.
func (s *Simulator) Reset(now float64, events []TaggedEvent) {
	s.heap = s.heap[:0]
	if cap(s.sched) < len(events) {
		s.sched = make([]entry, len(events))
	} else {
		s.sched = s.sched[:len(events)]
	}
	for i, ev := range events {
		s.sched[i] = entry{time: ev.Time, seq: uint64(i) + 1, kind: ev.Kind, a: ev.A, b: ev.B}
	}
	s.schedIdx = 0
	s.lane = s.lane[:0]
	s.laneIdx = 0
	s.now = now
	s.seq = uint64(len(events)) + 1
	s.fired = 0
	s.frontUsed = false
	s.handler = nil
}

// SetHandler installs the dispatch function every event fires through. It
// must be set before the first event fires.
func (s *Simulator) SetHandler(h func(kind uint16, a, b int32)) { s.handler = h }

// Now returns the current simulation time in seconds.
func (s *Simulator) Now() float64 { return s.now }

// Fired returns the number of events executed so far (useful for
// instrumentation and benchmarks).
func (s *Simulator) Fired() uint64 { return s.fired }

// Pending returns the number of scheduled, not-yet-fired events.
func (s *Simulator) Pending() int {
	return len(s.heap) + len(s.sched) - s.schedIdx + len(s.lane) - s.laneIdx
}

// heapArity is the branching factor of the future event list. A 4-ary
// layout halves the sift-down depth of the classic binary heap and keeps
// a node's children within two cache lines — pop dominates the replay
// engine's profile, so the constant factor matters. The event ordering is
// a strict total order (time, then unique sequence number), so the pop
// sequence — and therefore every simulation — is bit-identical for any
// correct heap shape.
const heapArity = 4

// push inserts e and restores the heap invariant (hole sift-up: parents
// move down into the hole and e is stored once, instead of swapping the
// 32-byte entries at every level).
func (s *Simulator) push(e entry) {
	h := append(s.heap, entry{})
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / heapArity
		if !e.before(h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = e
	s.heap = h
}

// Tiers of the future event list, as reported by head.
const (
	tierNone = iota
	tierSched
	tierLane
	tierHeap
)

// head returns the earliest pending entry and the tier holding it: the
// smallest of the restored-schedule head, the FIFO-lane head and the heap
// top under the (time, seq) total order. Sequence numbers are unique, so
// before() is a strict total order and exactly one tier holds the minimum;
// the caller consumes it with take(tier) without comparing the heads again.
func (s *Simulator) head() (entry, int) {
	var best entry
	tier := tierNone
	if s.schedIdx < len(s.sched) {
		best, tier = s.sched[s.schedIdx], tierSched
	}
	if s.laneIdx < len(s.lane) {
		if e := &s.lane[s.laneIdx]; tier == tierNone || e.before(best) {
			best, tier = *e, tierLane
		}
	}
	if len(s.heap) > 0 {
		if e := &s.heap[0]; tier == tierNone || e.before(best) {
			best, tier = *e, tierHeap
		}
	}
	return best, tier
}

// take removes the head of the given tier (as reported by head), consuming
// the restored schedule and the FIFO lane through their cursors and the
// heap otherwise.
func (s *Simulator) take(tier int) {
	switch tier {
	case tierSched:
		s.schedIdx++
	case tierLane:
		s.laneIdx++
		if s.laneIdx == len(s.lane) {
			// Drained: rewind so the storage is reused, not regrown.
			s.lane, s.laneIdx = s.lane[:0], 0
		}
	case tierHeap:
		s.popHeap()
	}
}

// popHeap removes the earliest heap entry (hole sift-down of the displaced
// last element).
func (s *Simulator) popHeap() {
	h := s.heap
	n := len(h) - 1
	last := h[n]
	h = h[:n]
	s.heap = h
	if n > 0 {
		i := 0
		for {
			c := heapArity*i + 1
			if c >= n {
				break
			}
			end := c + heapArity
			if end > n {
				end = n
			}
			m := c
			for j := c + 1; j < end; j++ {
				if h[j].before(h[m]) {
					m = j
				}
			}
			if !h[m].before(last) {
				break
			}
			h[i] = h[m]
			i = m
		}
		h[i] = last
	}
}

// ScheduleTagged schedules an event after delay seconds. A negative delay
// is treated as zero. Events scheduled for the same instant fire in
// scheduling order. No allocation occurs.
func (s *Simulator) ScheduleTagged(delay float64, kind uint16, a, b int32) {
	if delay < 0 {
		delay = 0
	}
	s.AtTagged(s.now+delay, kind, a, b)
}

// AtTagged schedules an event at absolute time t. If t is in the past,
// the event fires at the current time (never before already-scheduled
// same-time events). No allocation occurs.
func (s *Simulator) AtTagged(t float64, kind uint16, a, b int32) {
	if t < s.now {
		t = s.now
	}
	s.push(entry{time: t, seq: s.seq, kind: kind, a: a, b: b})
	s.seq++
}

// AtTaggedFront schedules an event at absolute time t (clamped like
// AtTagged) ordered BEFORE every already-pending event at the same time.
// It is the broadcast-origination primitive: from scratch or after Reset,
// the origination fires ahead of warm-up events that happen to share its
// instant. Sequence number 0 is reserved for this single slot; a
// second AtTaggedFront call on the same simulator panics, since two
// zero-sequence events at one instant would tie arbitrarily and break
// reproducibility.
func (s *Simulator) AtTaggedFront(t float64, kind uint16, a, b int32) {
	if s.frontUsed {
		panic("sim: AtTaggedFront called twice on one simulator")
	}
	s.frontUsed = true
	if t < s.now {
		t = s.now
	}
	s.push(entry{time: t, seq: 0, kind: kind, a: a, b: b})
}

// AtTaggedMonotone schedules an event at absolute time t through
// the FIFO lane when the event sorts at or after the current lane tail,
// and falls back to an ordinary heap insertion otherwise. Callers whose
// firing times are non-decreasing by construction get O(1) scheduling and
// O(1) removal in place of two heap sifts. The MANET layer schedules every
// frame end at transmit time, at arrival plus airtime, in (arrival,
// receiver) order: within one transmission the batch is sorted, while a
// transmission whose frames end before the lane tail left by an earlier
// one (overlapping airtimes, a shorter frame class) sends those stragglers
// to the heap. The call is therefore always legal, and firing order is
// identical to AtTagged in every case: lane entries consume the same
// sequence counter and the pop path merges all tiers under the (time,
// seq) total order.
func (s *Simulator) AtTaggedMonotone(t float64, kind uint16, a, b int32) {
	if t < s.now {
		t = s.now
	}
	e := entry{time: t, seq: s.seq, kind: kind, a: a, b: b}
	s.seq++
	if n := len(s.lane); n == s.laneIdx || !e.before(s.lane[n-1]) {
		if s.laneIdx == len(s.lane) {
			s.lane, s.laneIdx = s.lane[:0], 0
		}
		s.lane = append(s.lane, e)
		return
	}
	s.push(e)
}

// SnapshotEvents returns every pending event, sorted in firing order.
func (s *Simulator) SnapshotEvents() []TaggedEvent {
	pending := make([]entry, 0, s.Pending())
	pending = append(pending, s.sched[s.schedIdx:]...)
	pending = append(pending, s.lane[s.laneIdx:]...)
	pending = append(pending, s.heap...)
	sort.Slice(pending, func(i, j int) bool { return pending[i].before(pending[j]) })
	events := make([]TaggedEvent, len(pending))
	for i, e := range pending {
		events[i] = TaggedEvent{Time: e.time, Kind: e.kind, A: e.a, B: e.b}
	}
	return events
}

// RunUntil executes events with time <= until (all events if until < 0).
// The clock is left at the time of the last executed event, or advanced to
// until if that is later and until >= 0.
func (s *Simulator) RunUntil(until float64) {
	for {
		next, tier := s.head()
		if tier == tierNone || (until >= 0 && next.time > until) {
			break
		}
		s.take(tier)
		s.fire(next)
	}
	if until >= 0 && s.now < until {
		s.now = until
	}
}

// StepUntil executes the single earliest pending event whose time is at
// most until (any time if until < 0) and reports whether one was executed.
// Unlike RunUntil, the clock is never advanced past the
// last executed event, so callers interleaving StepUntil with state
// inspection observe exactly the event-loop schedule.
func (s *Simulator) StepUntil(until float64) bool {
	next, tier := s.head()
	if tier == tierNone || (until >= 0 && next.time > until) {
		return false
	}
	s.take(tier)
	s.fire(next)
	return true
}

// RunBefore executes every event with time strictly less than cut and
// leaves the clock at the last executed event (it does NOT advance the
// clock to cut). This is the warm-up primitive: running before the
// broadcast start time yields exactly the state a from-scratch simulation
// has when the origination event fires.
func (s *Simulator) RunBefore(cut float64) {
	for {
		next, tier := s.head()
		if tier == tierNone || next.time >= cut {
			break
		}
		s.take(tier)
		s.fire(next)
	}
}

// fire executes one entry taken from the event list: it advances the
// clock and hands the payload to the handler.
func (s *Simulator) fire(e entry) {
	s.now = e.time
	s.fired++
	s.handler(e.kind, e.a, e.b)
}

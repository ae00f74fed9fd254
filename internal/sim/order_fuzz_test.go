package sim

import (
	"slices"
	"testing"
)

// refEvent is one pending event of the reference model: the (time, seq)
// key the engine must order by and the ID the firing reports.
type refEvent struct {
	time float64
	seq  uint64
	id   int32
}

// refModel is the specification FuzzStepOrder holds the engine to: a flat
// list of pending events fired strictly by (time, seq), where sequence
// numbers follow scheduling order (restored events first, in their given
// order; AtTaggedFront takes 0) and scheduling in the past clamps to the clock.
type refModel struct {
	now     float64
	seq     uint64
	pending []refEvent
	fired   []int32
}

// next removes and returns the earliest pending event.
func (m *refModel) next() (refEvent, bool) {
	if len(m.pending) == 0 {
		return refEvent{}, false
	}
	best := 0
	for i, e := range m.pending {
		b := m.pending[best]
		if e.time < b.time || (e.time == b.time && e.seq < b.seq) {
			best = i
		}
	}
	e := m.pending[best]
	m.pending = slices.Delete(m.pending, best, best+1)
	return e, true
}

// peekTime returns the earliest pending time.
func (m *refModel) peekTime() (float64, bool) {
	if len(m.pending) == 0 {
		return 0, false
	}
	t := m.pending[0].time
	for _, e := range m.pending {
		t = min(t, e.time)
	}
	return t, true
}

// fire applies one removed event.
func (m *refModel) fire(e refEvent) {
	m.now = e.time
	m.fired = append(m.fired, e.id)
}

func (m *refModel) add(t float64, id int32, seq uint64) {
	m.pending = append(m.pending, refEvent{time: max(t, m.now), seq: seq, id: id})
}

// FuzzStepOrder drives the three-tier future event list — a restored
// schedule, the monotone FIFO lane and the heap — through an arbitrary
// interleaving of scheduling calls (equal timestamps, past times, lane
// stragglers), the front slot, and StepUntil / RunUntil / RunBefore
// bounds, and checks every step against the reference ordering by
// (time, seq). Ops 2 and 6 scheduled closures (At, AtFront) and op 3
// cancelled one before the engine kept only tagged events; they now map
// to AtTagged, AtTaggedFront and a no-op, so the committed corpus keeps
// exercising the same schedules.
func FuzzStepOrder(f *testing.F) {
	f.Add([]byte{3, 0, 0, 4, 0, 1, 2, 4, 4, 4, 4, 4})
	f.Add([]byte{5, 1, 1, 1, 2, 3, 1, 0, 1, 0, 1, 4, 2, 1, 4, 1, 4, 3, 0, 4, 9, 4, 9})
	f.Add([]byte{0, 2, 0, 2, 0, 3, 0, 5, 0, 4, 1, 6, 2, 4, 0, 7, 1, 4, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		m := &refModel{}
		var nextID int32
		var fired []int32
		handler := func(kind uint16, a, _ int32) { fired = append(fired, a) }

		// Restored schedule: up to 15 events with non-decreasing times in
		// quarter-second steps (equal times included).
		nRestore := int(data[0] % 16)
		data = data[1:]
		events := make([]TaggedEvent, 0, nRestore)
		tm := 0.0
		for i := 0; i < nRestore && len(data) > 0; i++ {
			tm += float64(data[0]%3) * 0.25
			data = data[1:]
			events = append(events, TaggedEvent{Time: tm, Kind: 1, A: nextID})
			m.add(tm, nextID, uint64(i)+1)
			nextID++
		}
		s := New()
		s.Reset(0, events)
		s.SetHandler(handler)
		m.seq = uint64(len(events)) + 1
		frontUsed := false

		check := func(op string) {
			t.Helper()
			if !slices.Equal(fired, m.fired) {
				t.Fatalf("after %s: fired %v, reference %v", op, fired, m.fired)
			}
			if s.Now() != m.now {
				t.Fatalf("after %s: clock %v, reference %v", op, s.Now(), m.now)
			}
			if s.Pending() != len(m.pending) {
				t.Fatalf("after %s: %d pending, reference %d", op, s.Pending(), len(m.pending))
			}
		}

		for len(data) >= 2 {
			op, arg := data[0]%8, data[1]
			data = data[2:]
			// Offsets from the clock in quarter seconds, slightly into the
			// past at 0 so clamping is exercised.
			at := m.now + float64(int(arg%6)-1)*0.25
			id := nextID
			switch op {
			case 0, 2:
				s.AtTagged(at, uint16(op/2+1), id, 0)
				m.add(at, id, m.seq)
				m.seq++
				nextID++
			case 1:
				s.AtTaggedMonotone(at, 1, id, 0)
				m.add(at, id, m.seq)
				m.seq++
				nextID++
			case 3:
				// No-op (see the op map above).
			case 4, 5:
				until := -1.0
				if op == 4 {
					until = m.now + float64(arg%4)*0.25
				}
				want := false
				if tNext, ok := m.peekTime(); ok && (until < 0 || tNext <= until) {
					e, _ := m.next()
					m.fire(e)
					want = true
				}
				if got := s.StepUntil(until); got != want {
					t.Fatalf("StepUntil(%v) = %v, reference %v", until, got, want)
				}
			case 6:
				if frontUsed {
					continue
				}
				frontUsed = true
				s.AtTaggedFront(at, 2, id, 0)
				m.add(at, id, 0)
				nextID++
			case 7:
				until := m.now + float64(arg%8)*0.25
				if arg%2 == 0 {
					s.RunBefore(until)
					for {
						if tNext, ok := m.peekTime(); !ok || tNext >= until {
							break
						}
						e, _ := m.next()
						m.fire(e)
					}
				} else {
					s.RunUntil(until)
					for {
						if tNext, ok := m.peekTime(); !ok || tNext > until {
							break
						}
						e, _ := m.next()
						m.fire(e)
					}
					m.now = max(m.now, until)
				}
			}
			check("op")
		}
		for s.StepUntil(-1) {
		}
		for {
			e, ok := m.next()
			if !ok {
				break
			}
			m.fire(e)
		}
		check("drain")
	})
}

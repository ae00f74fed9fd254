package sim

import (
	"testing"
)

// hit is one fired event as the recording handler saw it.
type hit struct {
	kind uint16
	a, b int32
	at   float64
}

// recorder is a simulator whose handler appends every fired event to
// hits, so a test schedules by payload and asserts on the log.
type recorder struct {
	*Simulator
	hits []hit
}

func newRecorder(s *Simulator) *recorder {
	r := &recorder{Simulator: s}
	r.SetHandler(func(kind uint16, a, b int32) {
		r.hits = append(r.hits, hit{kind, a, b, r.Now()})
	})
	return r
}

// as returns the a payloads of the recorded events, in firing order.
func (r *recorder) as() []int32 {
	out := make([]int32, len(r.hits))
	for i, h := range r.hits {
		out[i] = h.a
	}
	return out
}

func equalInts(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestEventOrdering(t *testing.T) {
	r := newRecorder(New())
	r.ScheduleTagged(3, 1, 3, 0)
	r.ScheduleTagged(1, 1, 1, 0)
	r.ScheduleTagged(2, 1, 2, 0)
	r.RunUntil(-1)
	if got := r.as(); !equalInts(got, []int32{1, 2, 3}) {
		t.Fatalf("order = %v", got)
	}
}

func TestSameTimeFIFO(t *testing.T) {
	r := newRecorder(New())
	for i := int32(0); i < 10; i++ {
		r.AtTagged(5, 1, i, 0)
	}
	r.RunUntil(-1)
	for i, v := range r.as() {
		if v != int32(i) {
			t.Fatalf("simultaneous events out of scheduling order: %v", r.as())
		}
	}
}

func TestClockAdvances(t *testing.T) {
	r := newRecorder(New())
	r.ScheduleTagged(1.5, 1, 0, 0)
	r.ScheduleTagged(4.25, 1, 1, 0)
	r.RunUntil(-1)
	if len(r.hits) != 2 || r.hits[0].at != 1.5 || r.hits[1].at != 4.25 {
		t.Fatalf("hits = %+v", r.hits)
	}
	if r.Now() != 4.25 {
		t.Fatalf("final clock = %v", r.Now())
	}
}

func TestNestedScheduling(t *testing.T) {
	s := New()
	var hits []float64
	s.SetHandler(func(kind uint16, a, b int32) {
		hits = append(hits, s.Now())
		if kind == 1 {
			s.ScheduleTagged(1, 2, 0, 0)
		}
	})
	s.ScheduleTagged(1, 1, 0, 0)
	s.RunUntil(-1)
	if len(hits) != 2 || hits[0] != 1 || hits[1] != 2 {
		t.Fatalf("hits = %v", hits)
	}
}

func TestRunUntil(t *testing.T) {
	r := newRecorder(New())
	for _, tt := range []float64{1, 2, 3, 4} {
		r.AtTagged(tt, 1, int32(tt), 0)
	}
	r.RunUntil(2.5)
	if len(r.hits) != 2 {
		t.Fatalf("fired %v before t=2.5", r.as())
	}
	if r.Now() != 2.5 {
		t.Fatalf("clock = %v, want 2.5", r.Now())
	}
	r.RunUntil(10)
	if len(r.hits) != 4 {
		t.Fatalf("fired %v after resume", r.as())
	}
}

func TestRunUntilAdvancesIdleClock(t *testing.T) {
	s := New()
	s.RunUntil(42)
	if s.Now() != 42 {
		t.Fatalf("clock = %v, want 42", s.Now())
	}
}

func TestNegativeDelayClamped(t *testing.T) {
	r := newRecorder(New())
	r.RunUntil(5)
	r.ScheduleTagged(-3, 1, 0, 0)
	r.RunUntil(-1)
	if len(r.hits) != 1 || r.hits[0].at != 5 {
		t.Fatalf("negative-delay event fired as %+v, want now (5)", r.hits)
	}
}

func TestAtPastClamped(t *testing.T) {
	r := newRecorder(New())
	r.AtTagged(5, 1, 0, 0)
	r.RunUntil(5)
	r.AtTagged(1, 1, 1, 0)
	r.RunUntil(-1)
	if len(r.hits) != 2 || r.hits[1].at != 5 {
		t.Fatalf("past event fired as %+v, want at 5", r.hits)
	}
}

func TestFiredAndPending(t *testing.T) {
	r := newRecorder(New())
	r.ScheduleTagged(1, 1, 0, 0)
	r.AtTaggedMonotone(2, 1, 0, 0)
	if r.Pending() != 2 {
		t.Fatalf("Pending = %d", r.Pending())
	}
	r.RunUntil(-1)
	if r.Fired() != 2 || r.Pending() != 0 {
		t.Fatalf("Fired=%d Pending=%d", r.Fired(), r.Pending())
	}
}

func TestManyEventsStaySorted(t *testing.T) {
	r := newRecorder(New())
	// Pseudo-random times via a small LCG; verify the engine visits them
	// in non-decreasing order.
	x := uint32(12345)
	for i := 0; i < 5000; i++ {
		x = x*1664525 + 1013904223
		r.AtTagged(float64(x%100000)/100, 1, int32(i), 0)
	}
	r.RunUntil(-1)
	for i := 1; i < len(r.hits); i++ {
		if r.hits[i].at < r.hits[i-1].at {
			t.Fatal("events fired out of time order")
		}
	}
	if r.Fired() != 5000 {
		t.Fatalf("Fired = %d", r.Fired())
	}
}

func TestTaggedEventsDispatch(t *testing.T) {
	r := newRecorder(New())
	r.ScheduleTagged(2, 7, 1, 2)
	r.AtTagged(1, 9, 3, 4)
	r.RunUntil(-1)
	if len(r.hits) != 2 {
		t.Fatalf("hits = %d", len(r.hits))
	}
	if r.hits[0] != (hit{9, 3, 4, 1}) || r.hits[1] != (hit{7, 1, 2, 2}) {
		t.Fatalf("hits = %+v", r.hits)
	}
}

func TestRunBefore(t *testing.T) {
	r := newRecorder(New())
	for _, tt := range []float64{1, 2, 3, 4} {
		r.AtTagged(tt, 1, int32(tt), 0)
	}
	r.RunBefore(3)
	if len(r.hits) != 2 {
		t.Fatalf("RunBefore(3) fired %v, want events strictly before 3", r.as())
	}
	if r.Now() != 2 {
		t.Fatalf("clock = %v, want last executed event time 2", r.Now())
	}
	r.RunUntil(-1)
	if len(r.hits) != 4 {
		t.Fatalf("resume after RunBefore fired %v", r.as())
	}
}

func TestSnapshotEventsAndRestore(t *testing.T) {
	s := New()
	s.AtTagged(5, 1, 10, 0)
	s.AtTagged(3, 2, 20, 0)
	s.AtTaggedMonotone(5, 3, 30, 0)
	events := s.SnapshotEvents()
	if len(events) != 3 || events[0].Kind != 2 || events[1].Kind != 1 || events[2].Kind != 3 {
		t.Fatalf("events = %+v, want firing order 2,1,3", events)
	}

	// Reset rewinds a used simulator onto the captured schedule; it drops
	// the handler, so a fresh recorder re-installs one.
	newRecorder(s).RunUntil(-1)
	s.Reset(1.5, events)
	r := newRecorder(s)
	if r.Now() != 1.5 || r.Fired() != 0 || r.Pending() != 3 {
		t.Fatalf("after Reset: clock %v fired %d pending %d", r.Now(), r.Fired(), r.Pending())
	}
	r.RunUntil(-1)
	if len(r.hits) != 3 || r.hits[0].kind != 2 || r.hits[1].kind != 1 || r.hits[2].kind != 3 {
		t.Fatalf("restored firing order = %+v", r.hits)
	}
}

func TestAtFrontOrdersBeforeSameTimePending(t *testing.T) {
	s := New()
	s.AtTagged(5, 1, 1, 0)
	s.AtTagged(5, 1, 2, 0)
	events := s.SnapshotEvents()

	s.Reset(0, events)
	r := newRecorder(s)
	r.AtTaggedFront(5, 2, 0, 0)
	// A regular AtTagged at the same time goes after the pending events.
	r.AtTagged(5, 1, 3, 0)
	r.RunUntil(-1)
	if got := r.as(); !equalInts(got, []int32{0, 1, 2, 3}) || r.hits[0].kind != 2 {
		t.Fatalf("order = %+v, want the front event first, then 1, 2, 3", r.hits)
	}
}

func TestTaggedSchedulingDoesNotAllocate(t *testing.T) {
	s := New()
	s.SetHandler(func(kind uint16, a, b int32) {
		if kind == 1 && a < 1000 {
			s.ScheduleTagged(1, 1, a+1, 0)
		}
	})
	s.AtTagged(0, 1, 0, 0)
	// Warm the heap storage, then measure steady-state allocations.
	s.RunUntil(100)
	events := []TaggedEvent{{Time: 1, Kind: 2}, {Time: 2, Kind: 2}}
	allocs := testing.AllocsPerRun(100, func() {
		s.ScheduleTagged(0.5, 2, 0, 0)
		s.AtTaggedMonotone(s.Now()+0.5, 2, 0, 0)
		s.RunUntil(s.Now() + 0.6)
	})
	if allocs > 0 {
		t.Fatalf("event path allocates %v per op, want 0", allocs)
	}
	handler := s.handler
	allocs = testing.AllocsPerRun(100, func() {
		s.Reset(0, events)
		s.SetHandler(handler)
		s.AtTaggedFront(1, 2, 0, 0)
		s.RunUntil(-1)
	})
	if allocs > 0 {
		t.Fatalf("Reset + front slot allocates %v per run, want 0", allocs)
	}
}

func TestAtFrontSingleUse(t *testing.T) {
	s := New()
	s.AtTaggedFront(1, 1, 0, 0)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("second AtTaggedFront did not panic")
			}
		}()
		s.AtTaggedFront(1, 1, 0, 0)
	}()
	// Reset frees the slot again.
	s.Reset(0, nil)
	s.AtTaggedFront(1, 1, 0, 0)
}

func TestAtFrontOnFreshSimulatorBeatsFirstAt(t *testing.T) {
	// Regular sequence numbers start at 1, so the reserved front slot
	// orders first even against the very first AtTagged event.
	r := newRecorder(New())
	r.AtTagged(5, 1, 1, 0)
	r.AtTaggedFront(5, 1, 0, 0)
	r.RunUntil(-1)
	if got := r.as(); !equalInts(got, []int32{0, 1}) {
		t.Fatalf("order = %v, want the front event before the first AtTagged event", got)
	}
}

package sim

import "testing"

func TestStepUntil(t *testing.T) {
	r := newRecorder(New())
	r.ScheduleTagged(1, 1, 1, 0)
	r.ScheduleTagged(2, 1, 2, 0)
	r.ScheduleTagged(4, 1, 4, 0)

	if !r.StepUntil(3) {
		t.Fatal("first step refused")
	}
	if r.Now() != 1 || len(r.hits) != 1 {
		t.Fatalf("after one step: now=%v order=%v", r.Now(), r.as())
	}
	if !r.StepUntil(3) {
		t.Fatal("second step refused")
	}
	if r.StepUntil(3) {
		t.Fatal("stepped past the time limit")
	}
	if r.Now() != 2 {
		t.Fatalf("clock advanced past last executed event: %v", r.Now())
	}
	if !r.StepUntil(10) || len(r.hits) != 3 {
		t.Fatalf("final step failed: order=%v", r.as())
	}
	if r.StepUntil(10) {
		t.Fatal("stepped on an empty event list")
	}
}

// TestStepUntilMatchesRunUntil pins the equivalence the quiescence loop
// relies on: stepping one event at a time executes the exact schedule
// RunUntil would.
func TestStepUntilMatchesRunUntil(t *testing.T) {
	build := func() *recorder {
		r := newRecorder(New())
		for i := int32(0); i < 5; i++ {
			tt := float64(i%3) + 0.5
			r.AtTagged(tt, 1, i, 0)
			r.AtTaggedMonotone(tt, 2, -i, 0)
		}
		return r
	}
	a := build()
	a.RunUntil(10)
	b := build()
	for b.StepUntil(10) {
	}
	if len(a.hits) != len(b.hits) {
		t.Fatalf("schedules diverge: %+v vs %+v", a.hits, b.hits)
	}
	for i := range a.hits {
		if a.hits[i] != b.hits[i] {
			t.Fatalf("schedules diverge at %d: %+v vs %+v", i, a.hits, b.hits)
		}
	}
}

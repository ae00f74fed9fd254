package archive

import (
	"math"
	"sync"
	"testing"

	"aedbmls/internal/moo"
	"aedbmls/internal/rng"
)

// mergeSol builds a deterministic two-objective solution from a stream.
func mergeSol(r *rng.Rand) *moo.Solution {
	a := r.Float64()
	return &moo.Solution{X: []float64{a}, F: []float64{a, 1 - a}}
}

// trialBatches builds n deterministic batches of k solutions each.
func trialBatches(n, k int) [][]*moo.Solution {
	out := make([][]*moo.Solution, n)
	for i := range out {
		r := rng.New(uint64(1000 + i))
		for j := 0; j < k; j++ {
			out[i] = append(out[i], mergeSol(r))
		}
	}
	return out
}

func frontBits(sols []*moo.Solution) []uint64 {
	var out []uint64
	for _, s := range sols {
		for _, x := range s.X {
			out = append(out, math.Float64bits(x))
		}
		for _, f := range s.F {
			out = append(out, math.Float64bits(f))
		}
	}
	return out
}

// TestMergerOrderIndependence is the merger's core property: whatever
// order (and from however many goroutines) the batches arrive in, the
// merged archive is bit-identical to a serial in-order AddAll. Offer is
// synchronous, so once every offer has returned the archive holds every
// batch.
func TestMergerOrderIndependence(t *testing.T) {
	const n = 32
	batches := trialBatches(n, 5)

	want := NewAGA(10, 4)
	for _, b := range batches {
		AddAll(want, b)
	}

	offerOrders := [][]int{
		rng.New(7).Perm(n),  // shuffled, single producer
		rng.New(11).Perm(n), // another shuffle
	}
	for _, order := range offerOrders {
		m := NewMerger(NewAGA(10, 4), 0, nil)
		for _, id := range order {
			m.Offer(id, batches[id], nil)
		}
		got := m.Snapshot()
		if st := m.State(); st.Next != n || st.Pending != 0 || st.Len != len(got) {
			t.Fatalf("merger state after every offer: %+v (archive holds %d)", st, len(got))
		}
		if a, b := frontBits(want.Contents()), frontBits(got); len(a) != len(b) {
			t.Fatalf("merged archive size differs: %d vs %d values", len(a), len(b))
		} else {
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("merged archive diverges at value %d", i)
				}
			}
		}
	}

	// Many concurrent producers (exercised under -race by CI).
	m := NewMerger(NewAGA(10, 4), 0, nil)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for id := w; id < n; id += 8 {
				m.Offer(id, batches[id], nil)
			}
		}(w)
	}
	wg.Wait()
	got := m.Snapshot()
	a, b := frontBits(want.Contents()), frontBits(got)
	if len(a) != len(b) {
		t.Fatalf("concurrent merge size differs: %d vs %d values", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("concurrent merge diverges at value %d", i)
		}
	}
}

// TestMergerOnMergeOrder asserts the hook fires exactly once per batch,
// in ascending id order, with the aux payload of that batch — the
// contract the tuning service's checkpoint cadence hangs off.
func TestMergerOnMergeOrder(t *testing.T) {
	const n = 10
	batches := trialBatches(n, 3)
	var ids []int
	var auxs []int
	m := NewMerger(NewUnbounded(), 0, func(id int, ar Interface, aux any) {
		ids = append(ids, id)
		auxs = append(auxs, aux.(int))
		if ar.Len() == 0 {
			t.Error("onMerge saw an empty archive")
		}
	})
	for _, id := range rng.New(3).Perm(n) {
		m.Offer(id, batches[id], 100+id)
	}
	if len(ids) != n {
		t.Fatalf("onMerge fired %d times, want %d", len(ids), n)
	}
	for i := range ids {
		if ids[i] != i || auxs[i] != 100+i {
			t.Fatalf("merge %d: id=%d aux=%d, want id=%d aux=%d", i, ids[i], auxs[i], i, 100+i)
		}
	}
}

// TestMergerStaleAndResume verifies the resume contract: a merger
// started at boundary k discards offers below k (already merged in a
// previous life) and merges k onward normally.
func TestMergerStaleAndResume(t *testing.T) {
	batches := trialBatches(6, 3)
	var ids []int
	var aux5 any
	m := NewMerger(NewUnbounded(), 3, func(id int, ar Interface, aux any) {
		ids = append(ids, id)
		if id == 5 {
			aux5 = aux
		}
	})
	m.Offer(5, batches[5], "first")
	m.Offer(5, batches[0], "duplicate") // duplicate of a buffered id
	for id := 4; id >= 0; id-- {        // live 3-4 interleaved with stale 0-2
		m.Offer(id, batches[id], nil)
	}
	m.Offer(4, batches[4], nil) // merged already: stale
	if len(ids) != 3 || ids[0] != 3 || ids[1] != 4 || ids[2] != 5 {
		t.Fatalf("resumed merger merged %v, want [3 4 5]", ids)
	}
	if aux5 != "first" {
		t.Fatalf("batch 5 merged with aux %v, want the first offer's", aux5)
	}
}

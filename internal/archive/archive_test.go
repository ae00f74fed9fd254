package archive

import (
	"sync"
	"testing"

	"aedbmls/internal/moo"
	"aedbmls/internal/rng"
)

func sol(f ...float64) *moo.Solution {
	return &moo.Solution{X: []float64{0}, F: f}
}

func randomSol(r *rng.Rand, m int) *moo.Solution {
	f := make([]float64, m)
	for i := range f {
		f[i] = r.Range(0, 1)
	}
	return &moo.Solution{X: []float64{r.Float64()}, F: f}
}

// checkInvariants asserts the universal archive properties: mutual
// non-dominance and capacity.
func checkInvariants(t *testing.T, ar Interface, capacity int) {
	t.Helper()
	contents := ar.Contents()
	if capacity > 0 && len(contents) > capacity {
		t.Fatalf("archive size %d exceeds capacity %d", len(contents), capacity)
	}
	for i, a := range contents {
		for j, b := range contents {
			if i != j && moo.Dominates(a, b) {
				t.Fatalf("archive holds dominated pair: %v dominates %v", a.F, b.F)
			}
		}
	}
}

func TestAGARejectsDominatedAndDuplicates(t *testing.T) {
	ar := NewAGA(10, 8)
	if !ar.Add(sol(1, 1)) {
		t.Fatal("first solution rejected")
	}
	if ar.Add(sol(2, 2)) {
		t.Fatal("dominated solution accepted")
	}
	if ar.Add(sol(1, 1)) {
		t.Fatal("duplicate accepted")
	}
	if !ar.Add(sol(0.5, 2)) {
		t.Fatal("non-dominated solution rejected")
	}
	checkInvariants(t, ar, 10)
}

func TestAGAEvictsDominatedMembers(t *testing.T) {
	ar := NewAGA(10, 8)
	ar.Add(sol(2, 2))
	ar.Add(sol(3, 1))
	if !ar.Add(sol(1, 1)) {
		t.Fatal("dominating solution rejected")
	}
	if ar.Len() != 1 {
		t.Fatalf("len = %d after global dominator, want 1", ar.Len())
	}
}

func TestAGACapacityAndInvariants(t *testing.T) {
	r := rng.New(5)
	ar := NewAGA(20, 8)
	for i := 0; i < 2000; i++ {
		// Sample near a trade-off curve so many are mutually non-dominated.
		x := r.Range(0, 1)
		ar.Add(sol(x, 1-x+r.Range(0, 0.05)))
	}
	checkInvariants(t, ar, 20)
	if ar.Len() < 15 {
		t.Fatalf("archive suspiciously small: %d", ar.Len())
	}
}

func TestAGAKeepsExtremes(t *testing.T) {
	r := rng.New(6)
	ar := NewAGA(10, 4)
	// Extremes first.
	ar.Add(sol(0, 1))
	ar.Add(sol(1, 0))
	for i := 0; i < 500; i++ {
		x := r.Range(0.3, 0.7)
		ar.Add(sol(x, 1-x))
	}
	hasLowF0, hasLowF1 := false, false
	for _, s := range ar.Contents() {
		if s.F[0] == 0 {
			hasLowF0 = true
		}
		if s.F[1] == 0 {
			hasLowF1 = true
		}
	}
	if !hasLowF0 || !hasLowF1 {
		t.Fatalf("AGA lost extreme solutions (f0=%v f1=%v)", hasLowF0, hasLowF1)
	}
}

func TestAGABalancesDensity(t *testing.T) {
	// Feed a heavily clustered front plus a sparse region; the archive
	// must retain sparse-region members.
	ar := NewAGA(10, 4)
	for i := 0; i < 200; i++ {
		x := 0.01 * float64(i%20) / 20 // tight cluster near x=0
		ar.Add(sol(x, 1-x))
	}
	ar.Add(sol(0.9, 0.05))
	found := false
	for _, s := range ar.Contents() {
		if s.F[0] == 0.9 {
			found = true
		}
	}
	if !found {
		t.Fatal("sparse-region solution rejected while a cluster fills the archive")
	}
	checkInvariants(t, ar, 10)
}

func TestAGAThreeObjectives(t *testing.T) {
	r := rng.New(7)
	ar := NewAGA(25, 6)
	for i := 0; i < 3000; i++ {
		a, b := r.Range(0, 1), r.Range(0, 1)
		ar.Add(sol(a, b, 2-a-b+r.Range(0, 0.02)))
	}
	checkInvariants(t, ar, 25)
}

func TestCrowdingArchive(t *testing.T) {
	r := rng.New(8)
	ar := NewCrowding(15)
	for i := 0; i < 1000; i++ {
		x := r.Range(0, 1)
		ar.Add(sol(x, 1-x))
	}
	checkInvariants(t, ar, 15)
	// Extremes survive crowding truncation.
	lo0, lo1 := 1.0, 1.0
	for _, s := range ar.Contents() {
		if s.F[0] < lo0 {
			lo0 = s.F[0]
		}
		if s.F[1] < lo1 {
			lo1 = s.F[1]
		}
	}
	if lo0 > 0.05 || lo1 > 0.05 {
		t.Fatalf("crowding archive lost front extremes: min f0=%v min f1=%v", lo0, lo1)
	}
}

func TestCrowdingAddReportsRejection(t *testing.T) {
	ar := NewCrowding(3)
	ar.Add(sol(0, 1))
	ar.Add(sol(1, 0))
	ar.Add(sol(0.5, 0.5))
	// A middle point in the most crowded region should be rejected (it is
	// the one removed).
	accepted := ar.Add(sol(0.51, 0.49))
	_ = accepted // either way, invariants must hold
	checkInvariants(t, ar, 3)
}

func TestUnboundedKeepsWholeFront(t *testing.T) {
	ar := NewUnbounded()
	n := 0
	for i := 0; i < 100; i++ {
		x := float64(i) / 100
		if ar.Add(sol(x, 1-x)) {
			n++
		}
	}
	if ar.Len() != 100 || n != 100 {
		t.Fatalf("unbounded archive dropped members: %d", ar.Len())
	}
	if ar.Add(sol(0.5, 0.6)) { // dominated by (0.5, 0.5)
		t.Fatal("unbounded archive accepted dominated solution")
	}
	checkInvariants(t, ar, 0)
}

func TestAddAll(t *testing.T) {
	ar := NewUnbounded()
	n := AddAll(ar, []*moo.Solution{sol(1, 1), sol(2, 2), sol(0, 3)})
	if n != 2 {
		t.Fatalf("AddAll accepted %d, want 2", n)
	}
}

func TestSortByObjective(t *testing.T) {
	sols := []*moo.Solution{sol(3, 0), sol(1, 2), sol(2, 1)}
	SortByObjective(sols, 0)
	if sols[0].F[0] != 1 || sols[1].F[0] != 2 || sols[2].F[0] != 3 {
		t.Fatalf("sorted order wrong: %v %v %v", sols[0].F, sols[1].F, sols[2].F)
	}
}

// TestServerConcurrentAccess: the shared archive serving every AEDB-MLS
// population takes concurrent adds and samples (run under -race in CI)
// and stays a bounded, mutually non-dominated set.
func TestServerConcurrentAccess(t *testing.T) {
	sh := NewShared(NewAGA(50, 8), rng.New(9))
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rng.New(uint64(w) + 100)
			for i := 0; i < 200; i++ {
				sh.Add(randomSol(r, 2))
				if i%10 == 0 && sh.Sample() == nil {
					t.Error("sample from non-empty archive returned nil")
				}
			}
		}(w)
	}
	wg.Wait()
	checkInvariants(t, sh.Archive(), 50)
	if sh.Archive().Len() == 0 {
		t.Fatal("shared archive is empty")
	}
}

func TestServerSampleEmpty(t *testing.T) {
	sh := NewShared(NewAGA(10, 4), rng.New(10))
	if sh.Sample() != nil {
		t.Fatal("sample from empty archive should be nil")
	}
	if !sh.Add(sol(1, 1)) {
		t.Fatal("add to empty archive rejected")
	}
	if got := sh.Sample(); got == nil || got.F[0] != 1 {
		t.Fatalf("sample of one-member archive = %v", got)
	}
}

func TestNewAGAPanicsOnBadCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewAGA(0) did not panic")
		}
	}()
	NewAGA(0, 4)
}

// Package archive provides bounded non-dominated solution archives.
//
// The paper's AEDB-MLS stores elite solutions in an Adaptive Grid
// Archiving (AGA) archive, the density estimator introduced with PAES
// (Knowles & Corne 2000): the objective space is divided into hypercubes
// whose geometry adapts to the current front, and when the archive
// overflows a member of the most crowded hypercube makes room — which (i)
// preserves objective-wise extreme solutions, (ii) keeps every occupied
// Pareto region populated and (iii) evens the density across regions.
//
// A crowding-distance archive (as used by CellDE) and an unbounded archive
// (for building reference fronts) complete the set. None is safe for
// concurrent use on its own: AEDB-MLS shares its archive between
// populations through Shared, one mutex around the archive and its
// sampling RNG, and the tuning service folds trial fronts in trial-id
// order through Merger, one mutex around the archive and its buffer of
// early arrivals.
package archive

import (
	"fmt"
	"sort"
	"sync"

	"aedbmls/internal/moo"
	"aedbmls/internal/rng"
)

// Interface is a non-dominated archive. Add reports whether the candidate
// entered the archive (i.e. it was non-dominated and survived crowding).
type Interface interface {
	Add(s *moo.Solution) bool
	Contents() []*moo.Solution
	Len() int
}

// AGA is the Adaptive Grid Archiving archive. Not safe for concurrent use.
type AGA struct {
	capacity  int
	divisions int // grid cells per objective axis
	sols      []*moo.Solution
	lo, hi    []float64 // current grid bounds
	cells     []int     // cell index per solution
	counts    map[int]int
	dirty     bool
}

// NewAGA creates an AGA archive with the given capacity. divisions is the
// number of grid cells per objective (PAES uses 2^l cells after l
// bisections; the paper-scale experiments use 2^5 = 32).
func NewAGA(capacity, divisions int) *AGA {
	if capacity <= 0 {
		panic("archive: non-positive AGA capacity")
	}
	if divisions < 2 {
		divisions = 2
	}
	return &AGA{capacity: capacity, divisions: divisions, counts: make(map[int]int)}
}

// Len implements Interface.
func (a *AGA) Len() int { return len(a.sols) }

// Contents implements Interface; the returned slice is a copy.
func (a *AGA) Contents() []*moo.Solution {
	return append([]*moo.Solution(nil), a.sols...)
}

// Add implements Interface. The candidate is rejected if any member
// dominates it or duplicates its objectives; members it dominates are
// evicted; grid crowding resolves capacity overflow.
func (a *AGA) Add(s *moo.Solution) bool {
	// Dominance screening.
	keep := a.sols[:0]
	for _, t := range a.sols {
		if moo.Dominates(t, s) || moo.EqualF(t, s) {
			return false
		}
		if !moo.Dominates(s, t) {
			keep = append(keep, t)
		} else {
			a.dirty = true
		}
	}
	a.sols = keep

	if len(a.sols) < a.capacity {
		a.sols = append(a.sols, s)
		a.dirty = true
		return true
	}

	// Full: admit only if the candidate does not land in (one of) the most
	// crowded regions; evict from the most crowded region.
	a.refreshGrid()
	cell, inBounds := a.cellOf(s)
	if !inBounds {
		// The candidate extends the objective ranges: it is an extreme
		// point, which AGA always keeps. Rebuild the grid around it.
		a.evictFromMostCrowded(s)
		a.sols = append(a.sols, s)
		a.dirty = true
		return true
	}
	maxCount := 0
	for _, c := range a.counts {
		if c > maxCount {
			maxCount = c
		}
	}
	if a.counts[cell] >= maxCount {
		return false // candidate belongs to the most crowded region
	}
	a.evictFromMostCrowded(s)
	a.sols = append(a.sols, s)
	a.dirty = true
	return true
}

// evictFromMostCrowded removes one member of a most crowded cell,
// preferring members that are not objective-wise extremes.
func (a *AGA) evictFromMostCrowded(incoming *moo.Solution) {
	a.refreshGrid()
	maxCount, maxCell := 0, -1
	for cell, c := range a.counts {
		if c > maxCount || (c == maxCount && cell < maxCell) {
			maxCount, maxCell = c, cell
		}
	}
	extreme := a.extremeSet()
	victim := -1
	for i, c := range a.cells {
		if c != maxCell {
			continue
		}
		if !extreme[i] {
			victim = i
			break
		}
		if victim < 0 {
			victim = i
		}
	}
	if victim < 0 { // cannot happen with a non-empty archive
		victim = 0
	}
	a.sols[victim] = a.sols[len(a.sols)-1]
	a.sols = a.sols[:len(a.sols)-1]
	a.dirty = true
	_ = incoming
}

// extremeSet marks solutions achieving the best value of some objective.
func (a *AGA) extremeSet() []bool {
	out := make([]bool, len(a.sols))
	if len(a.sols) == 0 {
		return out
	}
	m := len(a.sols[0].F)
	for k := 0; k < m; k++ {
		best := 0
		for i, s := range a.sols {
			if s.F[k] < a.sols[best].F[k] {
				best = i
			}
		}
		out[best] = true
	}
	return out
}

// refreshGrid recomputes bounds, cell assignments and occupancy counts.
func (a *AGA) refreshGrid() {
	if !a.dirty {
		return
	}
	a.dirty = false
	clear(a.counts)
	a.cells = a.cells[:0]
	if len(a.sols) == 0 {
		return
	}
	a.lo = moo.Ideal(a.sols)
	a.hi = moo.Nadir(a.sols)
	for _, s := range a.sols {
		cell, _ := a.cellOf(s)
		a.cells = append(a.cells, cell)
		a.counts[cell]++
	}
}

// cellOf maps a solution to its hypercube index under the current grid.
// inBounds is false when the solution lies outside the grid ranges.
func (a *AGA) cellOf(s *moo.Solution) (cell int, inBounds bool) {
	inBounds = true
	for k, v := range s.F {
		span := a.hi[k] - a.lo[k]
		var bin int
		if span <= 0 {
			bin = 0
		} else {
			if v < a.lo[k] || v > a.hi[k] {
				inBounds = false
			}
			bin = int(float64(a.divisions) * (v - a.lo[k]) / span)
			if bin < 0 {
				bin = 0
			}
			if bin >= a.divisions {
				bin = a.divisions - 1
			}
		}
		cell = cell*a.divisions + bin
	}
	return cell, inBounds
}

// Crowding is a bounded non-dominated archive that, when full, evicts the
// member with the smallest crowding distance (jMetal's CrowdingArchive, as
// used by CellDE). Not safe for concurrent use.
type Crowding struct {
	capacity int
	sols     []*moo.Solution
}

// NewCrowding creates a crowding-distance archive.
func NewCrowding(capacity int) *Crowding {
	if capacity <= 0 {
		panic("archive: non-positive Crowding capacity")
	}
	return &Crowding{capacity: capacity}
}

// Len implements Interface.
func (c *Crowding) Len() int { return len(c.sols) }

// Contents implements Interface; the returned slice is a copy.
func (c *Crowding) Contents() []*moo.Solution {
	return append([]*moo.Solution(nil), c.sols...)
}

// Add implements Interface.
func (c *Crowding) Add(s *moo.Solution) bool {
	keep := c.sols[:0]
	for _, t := range c.sols {
		if moo.Dominates(t, s) || moo.EqualF(t, s) {
			return false
		}
		if !moo.Dominates(s, t) {
			keep = append(keep, t)
		}
	}
	c.sols = append(keep, s)
	if len(c.sols) > c.capacity {
		d := moo.CrowdingDistances(c.sols)
		worst := 0
		for i := 1; i < len(d); i++ {
			if d[i] < d[worst] {
				worst = i
			}
		}
		removed := c.sols[worst] == s
		c.sols[worst] = c.sols[len(c.sols)-1]
		c.sols = c.sols[:len(c.sols)-1]
		if removed {
			return false
		}
	}
	return true
}

// Unbounded keeps every non-dominated solution; it is used to build the
// reference fronts the paper's indicators are computed against.
type Unbounded struct {
	sols []*moo.Solution
}

// NewUnbounded creates an empty unbounded archive.
func NewUnbounded() *Unbounded { return &Unbounded{} }

// Len implements Interface.
func (u *Unbounded) Len() int { return len(u.sols) }

// Contents implements Interface; the returned slice is a copy.
func (u *Unbounded) Contents() []*moo.Solution {
	return append([]*moo.Solution(nil), u.sols...)
}

// Add implements Interface.
func (u *Unbounded) Add(s *moo.Solution) bool {
	keep := u.sols[:0]
	for _, t := range u.sols {
		if moo.Dominates(t, s) || moo.EqualF(t, s) {
			return false
		}
		if !moo.Dominates(s, t) {
			keep = append(keep, t)
		}
	}
	u.sols = append(keep, s)
	return true
}

// AddAll inserts a batch of solutions into ar and returns how many were
// accepted.
func AddAll(ar Interface, sols []*moo.Solution) int {
	n := 0
	for _, s := range sols {
		if ar.Add(s) {
			n++
		}
	}
	return n
}

// SortByObjective orders solutions in place by objective k (ascending),
// breaking ties with subsequent objectives; convenient for stable report
// output.
func SortByObjective(sols []*moo.Solution, k int) {
	sort.Slice(sols, func(i, j int) bool {
		a, b := sols[i].F, sols[j].F
		if a[k] != b[k] {
			return a[k] < b[k]
		}
		for m := range a {
			if a[m] != b[m] {
				return a[m] < b[m]
			}
		}
		return false
	})
}

// Archive kind labels used by State.
const (
	KindAGA       = "aga"
	KindCrowding  = "crowding"
	KindUnbounded = "unbounded"
)

// State is a serializable description of an archive's complete behavioural
// state: its kind, its capacity parameters, and its members in internal
// order. Every archive in this package is a deterministic function of its
// member slice plus those parameters — AGA's grid (bounds, cell
// assignments, occupancy counts) is lazily recomputed from the members, and
// the recomputation is iteration-order independent — so capturing exactly
// these fields is sufficient for a bit-identical resume: an archive
// restored from a State answers every future Add/Contents/Len exactly as
// the original would have. The checkpoint layer (internal/study) persists
// States across process boundaries.
type State struct {
	Kind      string
	Capacity  int
	Divisions int // AGA only
	Solutions []*moo.Solution
}

// CaptureState snapshots an archive into a State. It fails on archive
// implementations outside this package, whose internal state it cannot
// see — checkpointing a study requires one of the stock archives.
func CaptureState(ar Interface) (*State, error) {
	switch a := ar.(type) {
	case *AGA:
		return &State{Kind: KindAGA, Capacity: a.capacity, Divisions: a.divisions, Solutions: a.Contents()}, nil
	case *Crowding:
		return &State{Kind: KindCrowding, Capacity: a.capacity, Solutions: a.Contents()}, nil
	case *Unbounded:
		return &State{Kind: KindUnbounded, Solutions: a.Contents()}, nil
	default:
		return nil, fmt.Errorf("archive: cannot capture state of %T (not a stock archive)", ar)
	}
}

// RestoreState reconstructs the archive a State describes, with members in
// the captured internal order (NOT re-inserted through Add, which could
// evict differently). The member slice is copied.
func RestoreState(st *State) (Interface, error) {
	if st == nil {
		return nil, fmt.Errorf("archive: nil state")
	}
	sols := append([]*moo.Solution(nil), st.Solutions...)
	switch st.Kind {
	case KindAGA:
		if st.Capacity <= 0 {
			return nil, fmt.Errorf("archive: AGA state with capacity %d", st.Capacity)
		}
		if len(sols) > st.Capacity {
			return nil, fmt.Errorf("archive: AGA state holds %d members over capacity %d", len(sols), st.Capacity)
		}
		a := NewAGA(st.Capacity, st.Divisions)
		a.sols = sols
		a.dirty = true
		return a, nil
	case KindCrowding:
		if st.Capacity <= 0 {
			return nil, fmt.Errorf("archive: Crowding state with capacity %d", st.Capacity)
		}
		if len(sols) > st.Capacity {
			return nil, fmt.Errorf("archive: Crowding state holds %d members over capacity %d", len(sols), st.Capacity)
		}
		c := NewCrowding(st.Capacity)
		c.sols = sols
		return c, nil
	case KindUnbounded:
		u := NewUnbounded()
		u.sols = sols
		return u, nil
	default:
		return nil, fmt.Errorf("archive: unknown archive kind %q", st.Kind)
	}
}

// Shared is an archive that several goroutines add to and sample from:
// an Interface plus the RNG stream that draws samples from it, behind one
// mutex (uncontended when a single goroutine drives it).
type Shared struct {
	mu  sync.Mutex
	ar  Interface
	rng *rng.Rand
}

// NewShared wraps ar; r drives Sample. Shared owns both afterwards.
func NewShared(ar Interface, r *rng.Rand) *Shared {
	return &Shared{ar: ar, rng: r}
}

// Add offers sol to the archive and reports acceptance.
func (s *Shared) Add(sol *moo.Solution) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ar.Add(sol)
}

// Sample returns a uniformly random archive member (nil if empty).
func (s *Shared) Sample() *moo.Solution {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n := s.ar.Len(); n > 0 {
		return s.ar.Contents()[s.rng.Intn(n)]
	}
	return nil
}

// Archive returns the wrapped archive, unlocked: for checkpoints and
// results taken while no goroutine uses s.
func (s *Shared) Archive() Interface { return s.ar }

// Rand returns the sampling stream, under the same condition as Archive.
func (s *Shared) Rand() *rng.Rand { return s.rng }

// statically assert the archive implementations.
var (
	_ Interface = (*AGA)(nil)
	_ Interface = (*Crowding)(nil)
	_ Interface = (*Unbounded)(nil)
)

package archive

import (
	"sync"

	"aedbmls/internal/moo"
)

// Merger is the concurrent merge path of the tuning service: any number
// of producer goroutines offer id-tagged solution batches (one batch per
// completed trial), and the merger folds them into the wrapped archive
// strictly in ascending id order, buffering batches that arrive early.
// One mutex guards the archive, the buffer and the next id; the offer
// that completes a contiguous run folds that run before it returns. The
// final archive contents are therefore a pure function of the batches,
// not of the producer schedule: an 8-worker study merges to the bits the
// 1-worker study merges to.
//
// The optional onMerge hook runs immediately after each batch is folded
// in, on the offering goroutine with the merger's lock held and the
// archive quiescent — the tuning service checkpoints there, so every
// checkpoint captures a completed merge boundary. onMerge must not call
// back into the Merger.
type Merger struct {
	mu      sync.Mutex
	ar      Interface
	next    int
	pending map[int]mergeBatch
	onMerge func(id int, ar Interface, aux any)
}

// mergeBatch is one buffered early arrival.
type mergeBatch struct {
	sols []*moo.Solution
	aux  any
}

// MergerState is a point-in-time view of the merger's progress.
type MergerState struct {
	// Next is the id the merger will merge next: every id below it has
	// been folded into the archive.
	Next int
	// Pending counts batches that arrived out of order and are buffered
	// until the ids before them complete.
	Pending int
	// Len is the number of solutions in the merged archive.
	Len int
}

// NewMerger wraps ar, which the merger owns from here on. next is the
// first batch id to merge (0 for a fresh study, the checkpointed boundary
// for a resumed one); offers below it are discarded as stale. onMerge may
// be nil.
func NewMerger(ar Interface, next int, onMerge func(id int, ar Interface, aux any)) *Merger {
	return &Merger{ar: ar, next: next, pending: make(map[int]mergeBatch), onMerge: onMerge}
}

// Offer submits batch id. Stale and duplicate ids are dropped. When id
// completes a contiguous run starting at the next id, Offer folds the
// whole run, calling onMerge after each batch, before it returns; an
// early id stays buffered until the ids before it arrive.
func (m *Merger) Offer(id int, sols []*moo.Solution, aux any) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, dup := m.pending[id]; id < m.next || dup {
		return
	}
	m.pending[id] = mergeBatch{sols: sols, aux: aux}
	for {
		b, ok := m.pending[m.next]
		if !ok {
			return
		}
		delete(m.pending, m.next)
		AddAll(m.ar, b.sols)
		m.next++
		if m.onMerge != nil {
			m.onMerge(m.next-1, m.ar, b.aux)
		}
	}
}

// Snapshot returns a copy of the merged archive contents, in the
// archive's internal order.
func (m *Merger) Snapshot() []*moo.Solution {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.ar.Contents()
}

// State reports the merger's progress.
func (m *Merger) State() MergerState {
	m.mu.Lock()
	defer m.mu.Unlock()
	return MergerState{Next: m.next, Pending: len(m.pending), Len: m.ar.Len()}
}

package eval

import (
	"runtime"
	"sync"
	"sync/atomic"

	"aedbmls/internal/manet"
)

// The cell scheduler.
//
// Every committee evaluation — one candidate through Evaluate, Simulate or
// SimulateProtocol, a whole batch through either ladder rung — is a grid
// of (candidate, scenario) cells, each a pure function of its candidate
// and its frozen scenario. One scheduler runs every such grid:
//
//   - The caller always runs cells itself. Helper goroutines join only for
//     idle cores: GOMAXPROCS minus the goroutines already running cells
//     anywhere in the process (cellRunners). Many racing callers therefore
//     keep evaluating inline, while a lone caller spreads over every core.
//   - Workers first claim whole scenario waves, which keeps one scenario's
//     snapshot and tape hot per worker and lets cold builds of different
//     scenarios run in parallel. Once every wave is claimed, idle workers
//     join unfinished waves in chunks of cells.
//   - Shared state is touched once per goroutine per pass (cellRunners,
//     the arena store) or once per chunk (the padded wave cursors), never
//     per cell.
//
// The schedule only decides which goroutine runs a cell; each cell writes
// its own slot and committees reduce in committee order, so results are
// bit-identical for any schedule.

// cellRunners counts the goroutines running cells of some pass, process
// wide: callers register for the length of their pass and helpers are
// reserved before they start.
var cellRunners atomic.Int64

// arenas recycles instantiation arenas across every Problem of the
// process; an arena grows to the largest network it has served, so one
// store serves every density. A worker leases one arena for the whole of
// its share of a pass (arenaLease), so the store is touched once per
// worker per pass, and a cold pass creates one arena per worker that
// every later pass reuses. Up to GOMAXPROCS idle arenas wait on a free
// list the collector never empties; a sync.Pool would strand idle arenas
// in the private slots of other processors. Arenas beyond that — more
// callers than cores, such as racing optimizer workers each evaluating
// inline — spill into a sync.Pool, which releases idle ones at
// collection.
var arenas struct {
	mu    sync.Mutex
	free  []*manet.Arena
	spill sync.Pool
}

// takeArena checks an arena out of the store, or makes a new one.
func takeArena() *manet.Arena {
	arenas.mu.Lock()
	if n := len(arenas.free); n > 0 {
		a := arenas.free[n-1]
		arenas.free[n-1] = nil
		arenas.free = arenas.free[:n-1]
		arenas.mu.Unlock()
		return a
	}
	arenas.mu.Unlock()
	if a, ok := arenas.spill.Get().(*manet.Arena); ok {
		return a
	}
	return manet.NewArena()
}

// returnArena puts an idle arena back into the store.
func returnArena(a *manet.Arena) {
	procs := runtime.GOMAXPROCS(0)
	arenas.mu.Lock()
	if len(arenas.free) < procs {
		arenas.free = append(arenas.free, a)
		arenas.mu.Unlock()
		return
	}
	arenas.mu.Unlock()
	arenas.spill.Put(a)
}

// arenaLease is the arena one worker keeps across the cells it runs. A
// cell takes the arena and gives it back only on success: a failed or
// panicked cell abandons it (see recoverScenario), and the next cell
// takes a fresh one from the store.
type arenaLease struct{ arena *manet.Arena }

// take hands the leased arena, or a fresh one from the store, to one
// cell.
func (l *arenaLease) take() *manet.Arena {
	a := l.arena
	l.arena = nil
	if a == nil {
		a = takeArena()
	}
	return a
}

// release returns the leased arena to the store at the end of the
// worker's share.
func (l *arenaLease) release() {
	if l.arena != nil {
		returnArena(l.arena)
		l.arena = nil
	}
}

// waveCursor is the next unclaimed candidate of one scenario wave, padded
// to its own cache line so workers draining neighbouring waves do not
// contend.
type waveCursor struct {
	next atomic.Int64
	_    [56]byte
}

// cellPass is one grid of cells: every candidate of factories on committee
// scenarios [lo, lo+len(waves)), truncated at bound (0 = full horizon).
// Cell (j, i) writes terms[j*stride+i] and errs[j*stride+i].
type cellPass struct {
	p         *Problem
	factories []func(*manet.Node) manet.Protocol
	lo        int
	stride    int
	bound     float64
	terms     []Metrics
	errs      []error
	chunk     int64
	helpers   sync.WaitGroup
	nextWave  waveCursor
	waves     []waveCursor
}

// prepare points c at a grid: every candidate of factories on committee
// scenarios [lo, stride). A nil terms matrix takes the pass's own buffer,
// grown as needed; the error slots and wave cursors are always the
// pass's own, reset here.
func (c *cellPass) prepare(p *Problem, factories []func(*manet.Node) manet.Protocol, lo, stride int, bound float64, terms []Metrics) {
	cells := len(factories) * stride
	if terms == nil {
		terms = resize(c.terms, cells)
	}
	c.p, c.factories, c.lo, c.stride, c.bound, c.terms = p, factories, lo, stride, bound, terms
	c.errs = resize(c.errs, cells)
	clear(c.errs)
	c.waves = resize(c.waves, stride-lo)
	clear(c.waves)
	c.nextWave.next.Store(0)
}

// resize returns s with length n, reusing its array when it is large
// enough.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// settle returns candidate j's committee outcome: the reduced average, or
// the penalty metrics and the error of a degraded or abandoned committee
// (see settleCommittee).
func (c *cellPass) settle(j int) (Metrics, error) {
	row := c.terms[j*c.stride : (j+1)*c.stride]
	if err := c.p.settleCommittee(c.errs[j*c.stride : (j+1)*c.stride]); err != nil {
		return FailedMetrics(), err
	}
	return reduceCommittee(row), nil
}

// soloPass is the state of a one-candidate pass, recycled through
// soloPasses: a serial evaluation allocates no scheduler state once its
// goroutine's processor holds a pass.
type soloPass struct {
	cellPass
	factory [1]func(*manet.Node) manet.Protocol
}

var soloPasses = sync.Pool{New: func() any { return new(soloPass) }}

// runCommittee evaluates the factory on every committee scenario: a
// one-candidate pass of the cell scheduler, behind every Evaluate,
// Simulate and SimulateProtocol call. A committee with any failed
// scenario degrades to FailedMetrics instead of taking down the run.
func (p *Problem) runCommittee(factory func(*manet.Node) manet.Protocol) Metrics {
	p.health.fullEvals.Add(1)
	s := soloPasses.Get().(*soloPass)
	s.factory[0] = factory
	s.prepare(p, s.factory[:], 0, len(p.scenarios), 0, nil)
	s.run()
	m, _ := s.settle(0)
	// Drop every reference into the Problem and its results before the
	// pass waits in the pool.
	s.factory[0], s.p, s.factories = nil, nil, nil
	clear(s.errs)
	soloPasses.Put(s)
	return m
}

// run evaluates every cell of the pass.
func (c *cellPass) run() {
	cellRunners.Add(1)
	helpers := c.p.reserveHelpers(len(c.factories) * len(c.waves))
	c.chunk = int64(max(1, len(c.factories)/(4*(helpers+1))))
	c.helpers.Add(helpers)
	for h := 0; h < helpers; h++ {
		go func() {
			defer c.helpers.Done()
			c.work()
			cellRunners.Add(-1)
		}()
	}
	c.work()
	cellRunners.Add(-1)
	c.helpers.Wait()
}

// reserveHelpers reserves helper goroutines for a pass of the given number
// of cells, counting them in cellRunners before they start: one per idle
// core, at most one per cell beyond the caller's first. A Problem with a
// fixed worker count (a test hook) takes exactly that many.
func (p *Problem) reserveHelpers(cells int) int {
	want := max(cells-1, 0)
	if p.workers > 0 {
		want = min(want, p.workers-1)
		cellRunners.Add(int64(want))
		return want
	}
	procs := int64(runtime.GOMAXPROCS(0))
	got := 0
	for got < want {
		busy := cellRunners.Load()
		if busy >= procs {
			break
		}
		if cellRunners.CompareAndSwap(busy, busy+1) {
			got++
		}
	}
	return got
}

// work is one worker's share of a pass: whole waves while any is
// unclaimed, then chunks of the waves still running, latest-claimed first
// (it has the most cells left).
func (c *cellPass) work() {
	// The arena is leased up front, not at the first simulation, so every
	// worker of a pass holds one at once: a cold pass then creates as
	// many arenas as any later pass of the same width needs.
	var lease arenaLease
	if c.p.arenasOn() {
		lease.arena = takeArena()
	}
	defer lease.release()
	for {
		w := int(c.nextWave.next.Add(1)) - 1
		if w >= len(c.waves) {
			break
		}
		c.drain(w, &lease)
	}
	for w := len(c.waves) - 1; w >= 0; w-- {
		c.drain(w, &lease)
	}
}

// drain claims chunks of wave w's candidates until none is left.
func (c *cellPass) drain(w int, lease *arenaLease) {
	cur := &c.waves[w].next
	n := int64(len(c.factories))
	i := c.lo + w
	for cur.Load() < n {
		j := cur.Add(c.chunk) - c.chunk
		for end := min(j+c.chunk, n); j < end; j++ {
			k := int(j)*c.stride + i
			c.terms[k], c.errs[k] = c.p.recoverScenario(c.factories[j], i, c.bound, lease)
		}
	}
}

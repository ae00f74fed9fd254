package core

import (
	"fmt"
	"math"
	"slices"
	"sync/atomic"

	"aedbmls/internal/archive"
	"aedbmls/internal/moo"
	"aedbmls/internal/operators"
	"aedbmls/internal/rng"
	"aedbmls/internal/study"
)

// engine is the state both AEDB-MLS schedules share: the resolved
// configuration, the populations of workers, the elite archive and the
// run's counters. Optimize steps each worker on its own goroutine;
// OptimizeSequential steps them round-robin on the caller's goroutine.
// Both run the same initialise and step.
type engine struct {
	p        moo.Problem
	cfg      Config
	criteria []Criterion
	lo, hi   []float64
	archive  *archive.Shared
	pops     [][]*worker

	evals, accepted, resets atomic.Int64
}

// worker is the state of one local-search procedure (Fig. 3). Its
// current solution is published atomically: under the threaded schedule
// population peers read it as their reference while the owner replaces
// it.
type worker struct {
	rng   *rng.Rand
	cur   atomic.Pointer[moo.Solution]
	spent int
	iter  int
}

// newEngine resolves cfg against p — validation, criteria defaulting and
// range checks, the default AGA archive — and seeds a fresh run. The RNG
// split order is fixed: the archive stream first, then one stream per
// worker in population-major order.
func newEngine(p moo.Problem, cfg Config, arch archive.Interface) (*engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	criteria := cfg.Criteria
	if len(criteria) == 0 {
		criteria = PerDimensionCriteria(p.Dim())
	}
	for _, c := range criteria {
		for _, idx := range c.Params {
			if idx < 0 || idx >= p.Dim() {
				return nil, fmt.Errorf("core: criterion %q touches variable %d outside dim %d", c.Name, idx, p.Dim())
			}
		}
	}
	if arch == nil {
		arch = archive.NewAGA(cfg.ArchiveCapacity, cfg.GridDivisions)
	}
	master := rng.New(cfg.Seed)
	e := &engine{p: p, cfg: cfg, criteria: criteria, archive: archive.NewShared(arch, master.Split())}
	e.lo, e.hi = p.Bounds()
	e.pops = make([][]*worker, cfg.Populations)
	for pi := range e.pops {
		e.pops[pi] = make([]*worker, cfg.Workers)
		for wi := range e.pops[pi] {
			e.pops[pi][wi] = &worker{rng: master.Split()}
		}
	}
	return e, nil
}

// evaluate spends w's budget on a whole neighborhood at once, batching
// the underlying committee evaluations when the problem supports it.
func (e *engine) evaluate(w *worker, xs [][]float64) []*moo.Solution {
	w.spent += len(xs)
	e.evals.Add(int64(len(xs)))
	return moo.EvaluateAll(e.p, xs)
}

// evaluateMoves spends w's budget on the moves xs perturbed from the
// incumbent s. A move of the paper's single-candidate step that
// reproduces s bit for bit — its reference agreed with s on every
// perturbed variable, as the worker itself or a peer reset to the same
// archive member does — is charged to the budget but not simulated
// again: it carries s's objectives, which the deterministic Problem
// would return for it. Batched steps always evaluate every move, because
// a screening ladder may treat a batch differently from its members, and
// so does a step after a stop request, which the Problem may abandon.
func (e *engine) evaluateMoves(w *worker, s *moo.Solution, xs [][]float64) []*moo.Solution {
	same := slices.EqualFunc(xs[0], s.X, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) })
	if e.cfg.neighborhood() > 1 || !same || study.Stopped(e.cfg.Stop) {
		return e.evaluate(w, xs)
	}
	w.spent++
	e.evals.Add(1)
	return []*moo.Solution{{X: xs[0], F: append([]float64(nil), s.F...), Violation: s.Violation, Aux: s.Aux}}
}

// initialise runs lines 1-3 of Fig. 3: it draws uniform random vectors
// until one is feasible, spending budget on each try, and archives it as
// w's start. It reports whether w found a start.
func (e *engine) initialise(w *worker) bool {
	for w.spent < e.cfg.EvalsPerWorker && !study.Stopped(e.cfg.Stop) {
		s := e.evaluate(w, [][]float64{operators.RandomVector(e.lo, e.hi, w.rng)})[0]
		if s.Feasible() {
			e.archive.Add(s)
			w.cur.Store(s)
			return true
		}
	}
	return false
}

// step runs one iteration of Fig. 3 (lines 6-16) for worker w of
// population pop. It reports whether the iteration ended with a reset
// from the archive, the point where the threaded schedule synchronises
// the population.
func (e *engine) step(w *worker, pop []*worker) bool {
	w.iter++
	s := w.cur.Load()
	// Line 6: random reference solution from the local population.
	t := sampleReference(pop, w.rng)
	if t == nil {
		t = s
	}
	// Lines 7-8: perturb along random search criteria and evaluate. With
	// NeighborhoodSize > 1 the iteration generates several candidate moves
	// from the same base solution and evaluates them as one batch (one
	// committee wave on batch-capable problems).
	k := e.cfg.neighborhood()
	if rem := e.cfg.EvalsPerWorker - w.spent; k > rem {
		k = rem
	}
	xs := make([][]float64, k)
	for j := range xs {
		crit := e.criteria[w.rng.Intn(len(e.criteria))]
		xs[j] = operators.PerturbBLX(s.X, t.X, crit.Params, e.cfg.Alpha, e.lo, e.hi, w.rng)
	}
	// Lines 9-12: accept and archive feasible moves. Inadmissible results
	// — stop-abandoned cells, ladder-screened triage estimates — are
	// discarded here, before any incumbent, peer or archive can see them.
	for _, cand := range e.evaluateMoves(w, s, xs) {
		if cand.Admissible() && cand.Feasible() {
			e.archive.Add(cand)
			w.cur.Store(cand)
			e.accepted.Add(1)
		}
	}
	// Lines 13-16: periodic re-initialisation from the archive.
	if w.iter%e.cfg.ResetPeriod != 0 || w.spent >= e.cfg.EvalsPerWorker {
		return false
	}
	if ns := e.archive.Sample(); ns != nil {
		w.cur.Store(ns.Clone())
	}
	e.resets.Add(1)
	return true
}

// sampleReference returns a uniformly random current solution among the
// workers of one population (nil if none has one). Current solutions
// only ever go from nil to non-nil, so a concurrent publish between the
// two passes cannot make the k-th live slot disappear.
func sampleReference(pop []*worker, r *rng.Rand) *moo.Solution {
	n := 0
	for _, w := range pop {
		if w.cur.Load() != nil {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	k := r.Intn(n)
	for _, w := range pop {
		if s := w.cur.Load(); s != nil {
			if k == 0 {
				return s
			}
			k--
		}
	}
	return nil
}

// Front is the run's reported front: the archive or — when no worker
// ever archived a feasible solution, possible only on very tight budgets
// or infeasible-dominated problems — the non-dominated subset of the
// workers' current solutions.
func (e *engine) Front() []*moo.Solution {
	front := e.archive.Archive().Contents()
	if len(front) == 0 {
		front = moo.ParetoFilter(e.Population())
	}
	archive.SortByObjective(front, 0)
	return front
}

// Population returns the workers' current solutions, population-major.
func (e *engine) Population() []*moo.Solution {
	var cur []*moo.Solution
	for _, pop := range e.pops {
		for _, w := range pop {
			if s := w.cur.Load(); s != nil {
				cur = append(cur, s)
			}
		}
	}
	return cur
}

// result adds the engine's counters to a finished run's outcome.
func (e *engine) result(r study.Result) *Result {
	return &Result{Result: r, Accepted: e.accepted.Load(), Resets: e.resets.Load()}
}

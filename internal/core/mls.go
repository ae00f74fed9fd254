// Package core implements AEDB-MLS, the paper's contribution: a massively
// parallel multi-start multi-objective local search (Sect. IV).
//
// The algorithm maintains several distributed populations; every solution
// of every population is improved simultaneously by its own local-search
// worker (Fig. 3). A worker perturbs its current solution with a BLX-α
// move (Eq. 2) along one of three sensitivity-derived search criteria,
// using a random peer from its population as the reference that scales
// the perturbation; feasible moves are always accepted and offered to a
// shared elite archive (Adaptive Grid Archiving). Every resetPeriod
// iterations a worker restarts from a random archive member and its
// population synchronises — the collaboration mechanism between
// populations.
//
// The Fig. 3 initialisation and step are written once (step.go) and run
// under two schedules. Optimize is the paper's hybrid parallel model: one
// goroutine per worker, peers in a population reading each other's
// current solutions from shared memory, and every population
// collaborating through the elite archive, one mutex-guarded
// archive.Shared.
// OptimizeSequential steps the same workers round-robin on one goroutine:
// bit-reproducible for any GOMAXPROCS, and the engine behind
// checkpoint/resume.
package core

import (
	"fmt"
	"sync"
	"time"

	"aedbmls/internal/archive"
	"aedbmls/internal/moo"
	"aedbmls/internal/operators"
	"aedbmls/internal/rng"
	"aedbmls/internal/study"
)

// Criterion is one search criterion: the subset of decision variables a
// perturbation touches. The AEDB criteria come from the sensitivity
// analysis (Sect. IV-B).
type Criterion struct {
	Name   string
	Params []int
}

// DefaultAEDBCriteria returns the paper's three search criteria, expressed
// over the canonical AEDB parameter order (aedb.Idx* constants):
//
//	(i)   energy / forwardings — border threshold (2) and neighbors
//	      threshold (4);
//	(ii)  coverage             — neighbors threshold (4);
//	(iii) broadcast-time       — min delay (0) and max delay (1).
func DefaultAEDBCriteria() []Criterion {
	return []Criterion{
		{Name: "energy+forwardings", Params: []int{2, 4}},
		{Name: "coverage", Params: []int{4}},
		{Name: "broadcast-time", Params: []int{0, 1}},
	}
}

// PerDimensionCriteria returns one single-variable criterion per decision
// dimension — the generic fallback when AEDB-MLS is applied to arbitrary
// problems.
func PerDimensionCriteria(dim int) []Criterion {
	out := make([]Criterion, dim)
	for i := range out {
		out[i] = Criterion{Name: fmt.Sprintf("x%d", i), Params: []int{i}}
	}
	return out
}

// Config parameterises AEDB-MLS. The zero value is unusable; start from
// DefaultConfig (paper values) or TestConfig (reduced budgets).
type Config struct {
	// Populations is the number of distributed populations (paper: 8).
	Populations int
	// Workers is the number of local-search threads per population
	// (paper: 12, the cores of one computing node).
	Workers int
	// EvalsPerWorker is the per-thread evaluation budget (paper: 250;
	// 8 x 12 x 250 = 24 000 evaluations per execution).
	EvalsPerWorker int
	// ResetPeriod is the number of iterations between population
	// re-initialisations from the archive (paper: 50 after tuning).
	ResetPeriod int
	// Alpha is the BLX-α perturbation magnitude (paper: 0.2 after tuning).
	Alpha float64
	// ArchiveCapacity bounds the elite archive (100, as the MOEAs' fronts).
	ArchiveCapacity int
	// GridDivisions is the AGA grid resolution per objective.
	GridDivisions int
	// Criteria are the search criteria; nil selects PerDimensionCriteria,
	// and AEDB runs should pass DefaultAEDBCriteria().
	Criteria []Criterion
	// NeighborhoodSize is the number of candidate perturbations each
	// local-search iteration generates and evaluates together — routed
	// through moo.BatchProblem (one batched committee evaluation) when the
	// problem supports it. All candidates of an iteration perturb the same
	// current solution; every feasible one is offered to the archive and
	// the last feasible one becomes the worker's new current solution.
	// 0 or 1 reproduces the paper's single-candidate step exactly (and,
	// since the fast evaluation engine became eval's serial default,
	// single-candidate steps pay the same per-evaluation cost as batched
	// ones — batching now buys wave-level amortisation, not a different
	// engine).
	NeighborhoodSize int
	// Seed drives all randomness.
	Seed uint64
	// Options checkpoint at round boundaries (see study.Options).
	// Checkpointing or resuming forces the deterministic sequential
	// engine: Optimize delegates to OptimizeSequential, because the
	// threaded schedule is not replayable. A checkpointed archive must be
	// one of the stock implementations (AGA, crowding, unbounded), and a
	// resume replaces any caller-supplied archive with the checkpointed
	// one.
	study.Options
}

// DefaultConfig returns the paper-scale configuration.
func DefaultConfig() Config {
	return Config{
		Populations:     8,
		Workers:         12,
		EvalsPerWorker:  250,
		ResetPeriod:     50,
		Alpha:           0.2,
		ArchiveCapacity: 100,
		GridDivisions:   8,
		Seed:            1,
	}
}

// TestConfig returns a reduced configuration for tests and benchmarks.
func TestConfig() Config {
	cfg := DefaultConfig()
	cfg.Populations = 2
	cfg.Workers = 3
	cfg.EvalsPerWorker = 20
	cfg.ResetPeriod = 8
	return cfg
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.Populations <= 0:
		return fmt.Errorf("core: Populations must be positive")
	case c.Workers <= 0:
		return fmt.Errorf("core: Workers must be positive")
	case c.EvalsPerWorker <= 0:
		return fmt.Errorf("core: EvalsPerWorker must be positive")
	case c.ResetPeriod <= 0:
		return fmt.Errorf("core: ResetPeriod must be positive")
	case c.Alpha <= 0 || c.Alpha >= 1:
		return fmt.Errorf("core: Alpha must be in (0,1), got %g", c.Alpha)
	case c.ArchiveCapacity <= 0:
		return fmt.Errorf("core: ArchiveCapacity must be positive")
	case c.NeighborhoodSize < 0:
		return fmt.Errorf("core: negative NeighborhoodSize")
	}
	return nil
}

// neighborhood returns the effective per-iteration candidate count.
func (c Config) neighborhood() int {
	if c.NeighborhoodSize < 1 {
		return 1
	}
	return c.NeighborhoodSize
}

// Result is the outcome of one AEDB-MLS execution. Its Front is the
// final elite archive (feasible, mutually non-dominated), its Population
// the workers' current solutions, and its Iterations the round counter
// of the sequential schedule (0 under the threaded one). Its Evaluations
// count budget units: a single-candidate move that reproduces the
// worker's incumbent bit for bit costs one unit but does not call the
// Problem, so the Problem may have been called fewer times.
type Result struct {
	study.Result
	// Accepted counts feasible perturbations that replaced a current
	// solution.
	Accepted int64
	// Resets counts population re-initialisations.
	Resets int64
}

// Optimize runs AEDB-MLS on problem p with the paper's threaded
// schedule: one goroutine per worker, racing on the shared archive and
// population, synchronised per population at every reset. The archive may
// be overridden (for the archive-policy ablation) via the optional arch;
// pass nil for the paper's AGA.
func Optimize(p moo.Problem, cfg Config, arch archive.Interface) (*Result, error) {
	if cfg.Checkpoint.Enabled() || cfg.Resume != nil {
		// Checkpoint state must be replayable; the threaded schedule is
		// not. The round-robin schedule runs the identical step.
		return OptimizeSequential(p, cfg, arch)
	}
	e, err := newEngine(p, cfg, arch)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	var wg sync.WaitGroup
	for _, pop := range e.pops {
		bar := newBarrier(len(pop))
		for _, w := range pop {
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer bar.Leave() // keeps peers' barriers consistent on early exit
				if !e.initialise(w) {
					return // budget exhausted before finding a feasible start
				}
				bar.Arrive() // line 4: wait for the local population
				for w.spent < cfg.EvalsPerWorker && !study.Stopped(cfg.Stop) {
					if e.step(w, pop) {
						bar.Arrive() // synchronise_threads() after a reset
					}
				}
			}()
		}
	}
	wg.Wait()
	return e.result(study.Result{
		Front:       e.Front(),
		Population:  e.Population(),
		Evaluations: e.evals.Load(),
		Duration:    time.Since(start),
		Interrupted: study.Stopped(cfg.Stop),
	}), nil
}

// ImproveBatch is the embeddable variant of the local search, the hook
// the paper's future-work memetic MOEAs use (see internal/cellde.Memetic):
// it spends up to iters evaluations perturbing s, drawing references from
// pop, and returns the improved solution together with the number of
// evaluations spent. Each round draws up to batch candidate
// perturbations (each with its own reference and criterion), evaluates
// them together — one committee wave on moo.BatchProblem implementations
// — and accepts, in order, every feasible candidate s does not dominate.
// A round's candidates all perturb the round's starting solution; batch
// <= 1 makes the rounds single-candidate, so the moves chain.
func ImproveBatch(p moo.Problem, s *moo.Solution, pop []*moo.Solution, iters, batch int, alpha float64,
	criteria []Criterion, r *rng.Rand) (*moo.Solution, int) {
	if len(criteria) == 0 {
		criteria = PerDimensionCriteria(p.Dim())
	}
	if batch < 1 {
		batch = 1
	}
	lo, hi := p.Bounds()
	spent := 0
	for spent < iters {
		k := batch
		if rem := iters - spent; k > rem {
			k = rem
		}
		xs := make([][]float64, k)
		for j := range xs {
			t := s
			if len(pop) > 0 {
				t = pop[r.Intn(len(pop))]
			}
			crit := criteria[r.Intn(len(criteria))]
			xs[j] = operators.PerturbBLX(s.X, t.X, crit.Params, alpha, lo, hi, r)
		}
		spent += k
		// Inadmissible results (stop-abandoned, ladder-screened) never
		// replace the incumbent.
		for _, cand := range moo.EvaluateAll(p, xs) {
			if cand.Admissible() && cand.Feasible() && !moo.Dominates(s, cand) {
				s = cand
			}
		}
	}
	return s, spent
}

// barrier is a cyclic barrier whose membership can shrink: a worker that
// exhausts its budget Leaves, and the remaining workers' synchronisations
// keep working. This implements the synchronise_threads() of Fig. 3
// without deadlocking on unequal budgets.
type barrier struct {
	mu      sync.Mutex
	cond    *sync.Cond
	parties int
	arrived int
	gen     uint64
}

func newBarrier(parties int) *barrier {
	b := &barrier{parties: parties}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// Arrive blocks until every current member of the barrier has arrived.
func (b *barrier) Arrive() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.arrived++
	if b.arrived >= b.parties {
		b.arrived = 0
		b.gen++
		b.cond.Broadcast()
		return
	}
	gen := b.gen
	for gen == b.gen {
		b.cond.Wait()
	}
}

// Leave permanently removes one member, releasing a waiting generation if
// this member was the last one outstanding.
func (b *barrier) Leave() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.parties--
	if b.parties > 0 && b.arrived >= b.parties {
		b.arrived = 0
		b.gen++
		b.cond.Broadcast()
	}
}

// Package spea2 implements the Strength Pareto Evolutionary Algorithm 2
// (Zitzler, Laumanns, Thiele 2001) as an additional reference MOEA beyond
// the two the paper compares against. SPEA2 is a contemporary of NSGA-II
// with a different selection pressure (strength-based fitness plus
// k-nearest-neighbour density) and a different elitism mechanism (a
// fixed-size environmental archive with iterative truncation); adding it
// to the comparison stresses that the reproduction's reference fronts are
// not an artifact of one particular MOEA design.
//
// Constraint handling follows the same constrained-dominance convention as
// the rest of the repository.
package spea2

import (
	"fmt"
	"math"
	"sort"

	"aedbmls/internal/moo"
	"aedbmls/internal/operators"
	"aedbmls/internal/rng"
	"aedbmls/internal/study"
)

// AlgorithmName identifies SPEA2 checkpoints.
const AlgorithmName = "spea2"

// Config parameterises SPEA2.
type Config struct {
	PopSize     int // working population size
	ArchiveSize int // environmental archive size (0: same as PopSize)
	Evaluations int
	Pc          float64
	EtaC        float64
	Pm          float64 // <= 0 means 1/dim
	EtaM        float64
	Seed        uint64
	// Options checkpoint at generation boundaries (see study.Options).
	study.Options
}

// fingerprint identifies the study this config defines on problem p.
// ArchiveSize is normalised first (Optimize defaults 0 to PopSize).
func (c Config) fingerprint(p moo.Problem) string {
	pm := c.Pm
	if pm <= 0 {
		pm = 1.0 / float64(p.Dim())
	}
	return study.Fingerprint(
		"spea2-v1",
		fmt.Sprintf("pop=%d arch=%d evals=%d pc=%x etac=%x pm=%x etam=%x seed=%d",
			c.PopSize, c.ArchiveSize, c.Evaluations, math.Float64bits(c.Pc),
			math.Float64bits(c.EtaC), math.Float64bits(pm), math.Float64bits(c.EtaM), c.Seed),
		study.ProblemFingerprint(p),
	)
}

// DefaultConfig mirrors the budgets used for the paper's MOEAs.
func DefaultConfig() Config {
	return Config{PopSize: 100, ArchiveSize: 100, Evaluations: 10000, Pc: 0.9, EtaC: 20, EtaM: 20, Seed: 1}
}

// TestConfig returns a reduced configuration for tests and benchmarks.
func TestConfig() Config {
	cfg := DefaultConfig()
	cfg.PopSize = 20
	cfg.ArchiveSize = 20
	cfg.Evaluations = 400
	return cfg
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.PopSize < 4:
		return fmt.Errorf("spea2: PopSize must be >= 4, got %d", c.PopSize)
	case c.Evaluations < c.PopSize:
		return fmt.Errorf("spea2: Evaluations %d below PopSize %d", c.Evaluations, c.PopSize)
	case c.Pc < 0 || c.Pc > 1:
		return fmt.Errorf("spea2: Pc out of [0,1]")
	case c.ArchiveSize < 0:
		return fmt.Errorf("spea2: negative ArchiveSize")
	}
	return nil
}

// Optimize runs SPEA2 on p. Execution is sequential. The result's
// Population is the final environmental archive and its Front the
// archive's non-dominated subset (see nsga2.Optimize for the
// constrained-front convention); Iterations counts generations.
func Optimize(p moo.Problem, cfg Config) (*study.Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.ArchiveSize == 0 {
		cfg.ArchiveSize = cfg.PopSize
	}
	s := &spea{p: p, cfg: cfg, pm: cfg.Pm}
	s.lo, s.hi = p.Bounds()
	if s.pm <= 0 {
		s.pm = 1.0 / float64(p.Dim())
	}
	return study.Run(s, cfg.Options)
}

// spea is one SPEA2 study as study.Run drives it. A boundary sits BEFORE
// environmental selection (a pure function of pop+arch that a resume
// re-runs). The last Step selects and then finds the budget spent, so
// the Final checkpoint sits after that selection, and resuming a
// finished study must not re-select: Run short-circuits it.
type spea struct {
	p      moo.Problem
	cfg    Config
	lo, hi []float64
	pm     float64

	r           *rng.Rand
	pop, arch   []*moo.Solution
	evals, gens int64
	finished    bool // the last selection found the budget spent
}

// Name and the methods below implement study.Algorithm.
func (s *spea) Name() string { return AlgorithmName }

// Fingerprint identifies the config and problem.
func (s *spea) Fingerprint() string { return s.cfg.fingerprint(s.p) }

// Init seeds the RNG and evaluates the initial population.
func (s *spea) Init() {
	s.r = rng.New(s.cfg.Seed)
	// Stop-abandoned initial members are dropped (see nsga2's Init).
	pop, evals := study.InitialPopulation(s.p, s.cfg.PopSize, s.r)
	s.pop, s.evals = moo.Admissible(pop), evals
}

// Restore decodes a generation boundary.
func (s *spea) Restore(cp *study.Checkpoint) error {
	var err error
	if s.pop, err = study.DecodeSolutions(cp.Population, s.p.Dim(), s.p.NumObjectives()); err != nil {
		return err
	}
	if s.arch, err = study.DecodeSolutions(cp.Elite, s.p.Dim(), s.p.NumObjectives()); err != nil {
		return err
	}
	if len(s.arch) == 0 {
		s.arch = nil // first-boundary checkpoints have no archive yet
	}
	s.r, s.evals, s.gens = cp.RNG.Rand(), cp.Evaluations, cp.Iteration
	return nil
}

// Encode records a generation boundary: the RNG, the population and
// the archive.
func (s *spea) Encode(cp *study.Checkpoint) {
	cp.RNG = study.StateOf(s.r)
	cp.Population = study.EncodeSolutions(s.pop)
	cp.Elite = study.EncodeSolutions(s.arch)
}

// More reports whether the last selection left budget for a generation.
func (s *spea) More() bool { return !s.finished }

// Step selects the archive from the union and, while budget is left,
// breeds and evaluates one generation of offspring from it. Offspring
// are evaluated together; see nsga.Step — batching is bit-identical
// because variation never draws randomness from evaluation.
func (s *spea) Step() {
	cfg := s.cfg
	union := append(append([]*moo.Solution(nil), s.pop...), s.arch...)
	s.arch = environmentalSelection(union, fitnessOf(union), cfg.ArchiveSize)
	if s.evals+int64(cfg.PopSize) > int64(cfg.Evaluations) {
		s.finished = true
		return
	}
	s.gens++
	// Mating selection on the archive by binary fitness tournament.
	archFitness := fitnessOf(s.arch)
	xs := make([][]float64, 0, cfg.PopSize)
	for len(xs) < cfg.PopSize {
		p1 := tournament(s.arch, archFitness, s.r)
		p2 := tournament(s.arch, archFitness, s.r)
		c1, c2 := operators.SBX(p1.X, p2.X, cfg.Pc, cfg.EtaC, s.lo, s.hi, s.r)
		operators.PolynomialMutation(c1, s.pm, cfg.EtaM, s.lo, s.hi, s.r)
		operators.PolynomialMutation(c2, s.pm, cfg.EtaM, s.lo, s.hi, s.r)
		xs = append(xs, c1)
		if len(xs) < cfg.PopSize {
			xs = append(xs, c2)
		}
	}
	s.evals += int64(len(xs))
	// Inadmissible offspring are dropped before they can join the union
	// (and through it the archive); the union never sees a stop-abandoned
	// penalty or a ladder screening estimate.
	s.pop = moo.Admissible(moo.EvaluateAll(s.p, xs))
}

// Progress returns the evaluations spent and the generations run.
func (s *spea) Progress() (int64, int64) { return s.evals, s.gens }

// Front is the non-dominated subset of the archive.
func (s *spea) Front() []*moo.Solution { return moo.ParetoFilter(s.arch) }

// Population is the environmental archive.
func (s *spea) Population() []*moo.Solution { return s.arch }

// fitnessOf computes the SPEA2 fitness of every solution: raw fitness
// (the summed strength of all its dominators) plus the density term
// 1/(sigma_k + 2) with k = sqrt(n). Smaller is better; values below 1 mark
// non-dominated solutions.
func fitnessOf(sols []*moo.Solution) []float64 {
	n := len(sols)
	strength := make([]float64, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j && moo.Dominates(sols[i], sols[j]) {
				strength[i]++
			}
		}
	}
	fitness := make([]float64, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j && moo.Dominates(sols[j], sols[i]) {
				fitness[i] += strength[j]
			}
		}
	}
	d := distanceMatrix(sols)
	k := int(math.Sqrt(float64(n)))
	if k < 1 {
		k = 1
	}
	row := make([]float64, 0, n-1)
	for i := 0; i < n; i++ {
		row = row[:0]
		for j := 0; j < n; j++ {
			if i != j {
				row = append(row, d[i][j])
			}
		}
		sort.Float64s(row)
		sigma := 0.0
		if len(row) > 0 {
			idx := k - 1
			if idx >= len(row) {
				idx = len(row) - 1
			}
			sigma = row[idx]
		}
		fitness[i] += 1 / (sigma + 2)
	}
	return fitness
}

// distanceMatrix computes pairwise objective-space distances.
func distanceMatrix(sols []*moo.Solution) [][]float64 {
	n := len(sols)
	d := make([][]float64, n)
	for i := range d {
		d[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			var s float64
			for k := range sols[i].F {
				diff := sols[i].F[k] - sols[j].F[k]
				s += diff * diff
			}
			dist := math.Sqrt(s)
			d[i][j], d[j][i] = dist, dist
		}
	}
	return d
}

// ranked pairs a solution with its SPEA2 fitness.
type ranked struct {
	s *moo.Solution
	f float64
}

// environmentalSelection keeps size solutions: all with fitness < 1 if
// they fit (truncating by iterative nearest-neighbour removal when too
// many), topped up with the best-fitness dominated solutions otherwise.
func environmentalSelection(union []*moo.Solution, fitness []float64, size int) []*moo.Solution {
	var nondom, rest []ranked
	for i, s := range union {
		if fitness[i] < 1 {
			nondom = append(nondom, ranked{s, fitness[i]})
		} else {
			rest = append(rest, ranked{s, fitness[i]})
		}
	}
	if len(nondom) > size {
		return truncate(extract(nondom), size)
	}
	out := extract(nondom)
	sort.Slice(rest, func(i, j int) bool { return rest[i].f < rest[j].f })
	for _, r := range rest {
		if len(out) >= size {
			break
		}
		out = append(out, r.s)
	}
	return out
}

func extract(rs []ranked) []*moo.Solution {
	out := make([]*moo.Solution, len(rs))
	for i, r := range rs {
		out[i] = r.s
	}
	return out
}

// truncate iteratively removes the solution with the smallest
// nearest-neighbour distance (ties broken by the next distances — the
// SPEA2 truncation operator) until size remain.
func truncate(sols []*moo.Solution, size int) []*moo.Solution {
	alive := make([]bool, len(sols))
	for i := range alive {
		alive[i] = true
	}
	d := distanceMatrix(sols)
	remaining := len(sols)
	for remaining > size {
		victim := -1
		var victimDists []float64
		for i := range sols {
			if !alive[i] {
				continue
			}
			ds := sortedLiveDistances(d, alive, i)
			if victim < 0 || lexLess(ds, victimDists) {
				victim = i
				victimDists = ds
			}
		}
		alive[victim] = false
		remaining--
	}
	out := make([]*moo.Solution, 0, size)
	for i, ok := range alive {
		if ok {
			out = append(out, sols[i])
		}
	}
	return out
}

func sortedLiveDistances(d [][]float64, alive []bool, i int) []float64 {
	out := make([]float64, 0, len(alive)-1)
	for j := range alive {
		if j != i && alive[j] {
			out = append(out, d[i][j])
		}
	}
	sort.Float64s(out)
	return out
}

// lexLess compares distance vectors lexicographically (SPEA2's "closer
// than" relation for truncation).
func lexLess(a, b []float64) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

// tournament is a binary tournament on SPEA2 fitness (smaller wins).
func tournament(pop []*moo.Solution, fitness []float64, r *rng.Rand) *moo.Solution {
	i, j := r.Intn(len(pop)), r.Intn(len(pop))
	if fitness[i] <= fitness[j] {
		return pop[i]
	}
	return pop[j]
}

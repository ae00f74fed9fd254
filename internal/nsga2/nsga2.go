// Package nsga2 implements NSGA-II (Deb, Pratap, Agarwal, Meyarivan 2002),
// one of the two reference MOEAs the paper validates AEDB-MLS against.
//
// It is the canonical real-coded variant: binary tournament selection
// under constrained dominance with crowding-distance tie-breaks, simulated
// binary crossover, polynomial mutation, and (mu+lambda) environmental
// selection by non-dominated fronts truncated with crowding distance.
// Parameters default to the configuration of Ruiz et al. 2012, the source
// of the paper's MOEA results (population 100, 10 000 evaluations,
// pc = 0.9, pm = 1/n, eta_c = eta_m = 20).
package nsga2

import (
	"fmt"
	"math"

	"aedbmls/internal/moo"
	"aedbmls/internal/operators"
	"aedbmls/internal/rng"
	"aedbmls/internal/study"
)

// AlgorithmName identifies NSGA-II checkpoints.
const AlgorithmName = "nsga2"

// Config parameterises NSGA-II.
type Config struct {
	PopSize     int
	Evaluations int // total evaluation budget (including the initial pop)
	Pc          float64
	EtaC        float64
	Pm          float64 // <= 0 means 1/dim
	EtaM        float64
	Seed        uint64
	// Options checkpoint at generation boundaries (see study.Options).
	study.Options
}

// fingerprint identifies the study this config defines on problem p.
func (c Config) fingerprint(p moo.Problem) string {
	pm := c.Pm
	if pm <= 0 {
		pm = 1.0 / float64(p.Dim())
	}
	return study.Fingerprint(
		"nsga2-v1",
		fmt.Sprintf("pop=%d evals=%d pc=%x etac=%x pm=%x etam=%x seed=%d",
			c.PopSize, c.Evaluations, math.Float64bits(c.Pc), math.Float64bits(c.EtaC),
			math.Float64bits(pm), math.Float64bits(c.EtaM), c.Seed),
		study.ProblemFingerprint(p),
	)
}

// DefaultConfig returns the reference configuration used for the paper's
// comparison (10 000 evaluations: the paper notes AEDB-MLS performs 2.4x
// more evaluations than the EAs, and 24 000 / 2.4 = 10 000).
func DefaultConfig() Config {
	return Config{PopSize: 100, Evaluations: 10000, Pc: 0.9, EtaC: 20, Pm: 0, EtaM: 20, Seed: 1}
}

// TestConfig returns a reduced configuration for tests and benchmarks.
func TestConfig() Config {
	cfg := DefaultConfig()
	cfg.PopSize = 20
	cfg.Evaluations = 200
	return cfg
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.PopSize < 4 || c.PopSize%2 != 0:
		return fmt.Errorf("nsga2: PopSize must be an even number >= 4, got %d", c.PopSize)
	case c.Evaluations < c.PopSize:
		return fmt.Errorf("nsga2: Evaluations %d below PopSize %d", c.Evaluations, c.PopSize)
	case c.Pc < 0 || c.Pc > 1:
		return fmt.Errorf("nsga2: Pc out of [0,1]")
	}
	return nil
}

// Optimize runs NSGA-II on p. Execution is sequential, as in the paper.
// The result's Front is the first non-dominated front of the final
// population under constrained dominance: the feasible non-dominated
// subset whenever any feasible solution exists, otherwise the
// least-violating solutions. Iterations counts generations.
func Optimize(p moo.Problem, cfg Config) (*study.Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := &nsga{p: p, cfg: cfg, pm: cfg.Pm}
	n.lo, n.hi = p.Bounds()
	if n.pm <= 0 {
		n.pm = 1.0 / float64(p.Dim())
	}
	return study.Run(n, cfg.Options)
}

// nsga is one NSGA-II study as study.Run drives it. Each Step is one
// generation; the boundary before it holds the population, from which
// the crowding distances are recomputed on resume.
type nsga struct {
	p      moo.Problem
	cfg    Config
	lo, hi []float64
	pm     float64

	r           *rng.Rand
	pop         []*moo.Solution
	cd          []float64
	evals, gens int64
}

// Name and the methods below implement study.Algorithm.
func (n *nsga) Name() string { return AlgorithmName }

// Fingerprint identifies the config and problem.
func (n *nsga) Fingerprint() string { return n.cfg.fingerprint(n.p) }

// Init seeds the RNG and evaluates the initial population.
func (n *nsga) Init() {
	n.r = rng.New(n.cfg.Seed)
	// Stop-abandoned initial members are dropped: the stop signal has
	// fired, the next boundary exits, and the reported front must not
	// contain penalty points.
	pop, evals := study.InitialPopulation(n.p, n.cfg.PopSize, n.r)
	n.pop, n.evals = moo.Admissible(pop), evals
	n.cd = crowdingByFront(n.pop)
}

// Restore decodes a generation boundary.
func (n *nsga) Restore(cp *study.Checkpoint) error {
	pop, err := study.DecodeSolutions(cp.Population, n.p.Dim(), n.p.NumObjectives())
	if err != nil {
		return err
	}
	n.pop, n.r, n.evals, n.gens = pop, cp.RNG.Rand(), cp.Evaluations, cp.Iteration
	n.cd = crowdingByFront(n.pop)
	return nil
}

// Encode records a generation boundary: the RNG and the population.
func (n *nsga) Encode(cp *study.Checkpoint) {
	cp.RNG = study.StateOf(n.r)
	cp.Population = study.EncodeSolutions(n.pop)
}

// More reports whether a whole generation fits the remaining budget.
func (n *nsga) More() bool { return n.evals+int64(n.cfg.PopSize) <= int64(n.cfg.Evaluations) }

// Step runs one generation. Its offspring are evaluated together:
// selection and variation draw no randomness from evaluation, so
// generating every offspring vector first and batching the evaluations
// (moo.BatchProblem, e.g. eval's committee waves) is bit-identical to
// evaluating one by one.
func (n *nsga) Step() {
	cfg := n.cfg
	n.gens++
	xs := make([][]float64, 0, cfg.PopSize)
	for len(xs) < cfg.PopSize {
		p1 := operators.TournamentCD(n.pop, n.cd, n.r)
		p2 := operators.TournamentCD(n.pop, n.cd, n.r)
		c1, c2 := operators.SBX(p1.X, p2.X, cfg.Pc, cfg.EtaC, n.lo, n.hi, n.r)
		operators.PolynomialMutation(c1, n.pm, cfg.EtaM, n.lo, n.hi, n.r)
		operators.PolynomialMutation(c2, n.pm, cfg.EtaM, n.lo, n.hi, n.r)
		xs = append(xs, c1)
		if len(xs) < cfg.PopSize {
			xs = append(xs, c2)
		}
	}
	n.evals += int64(len(xs))
	// Inadmissible offspring — stop-abandoned cells, ladder-screened
	// triage estimates — are dropped before the merge, so selection (and
	// therefore the final front) only ever sees completed full-fidelity
	// evaluations.
	n.pop = environmentalSelection(append(n.pop, moo.Admissible(moo.EvaluateAll(n.p, xs))...), cfg.PopSize)
	n.cd = crowdingByFront(n.pop)
}

// Progress returns the evaluations spent and the generations run.
func (n *nsga) Progress() (int64, int64) { return n.evals, n.gens }

// Front is never empty on a non-empty population: constrained dominance
// makes ParetoFilter fall back to the least-violating subset.
func (n *nsga) Front() []*moo.Solution { return moo.ParetoFilter(n.pop) }

// Population is the current population.
func (n *nsga) Population() []*moo.Solution { return n.pop }

// environmentalSelection keeps the best n of the merged population:
// whole fronts in order, the splitting front truncated by descending
// crowding distance.
func environmentalSelection(merged []*moo.Solution, n int) []*moo.Solution {
	fronts := moo.FastNonDominatedSort(merged)
	out := make([]*moo.Solution, 0, n)
	for _, front := range fronts {
		if len(out)+len(front) <= n {
			for _, i := range front {
				out = append(out, merged[i])
			}
			continue
		}
		// Truncate this front by crowding distance.
		sols := make([]*moo.Solution, len(front))
		for k, i := range front {
			sols[k] = merged[i]
		}
		d := moo.CrowdingDistances(sols)
		idx := make([]int, len(sols))
		for i := range idx {
			idx[i] = i
		}
		// Selection sort by descending distance (fronts are small).
		for i := 0; i < len(idx) && len(out) < n; i++ {
			best := i
			for j := i + 1; j < len(idx); j++ {
				if d[idx[j]] > d[idx[best]] {
					best = j
				}
			}
			idx[i], idx[best] = idx[best], idx[i]
			out = append(out, sols[idx[i]])
		}
		break
	}
	return out
}

// crowdingByFront computes crowding distances front-by-front for the whole
// population (used for tournament tie-breaking).
func crowdingByFront(pop []*moo.Solution) []float64 {
	cd := make([]float64, len(pop))
	for _, front := range moo.FastNonDominatedSort(pop) {
		sols := make([]*moo.Solution, len(front))
		for k, i := range front {
			sols[k] = pop[i]
		}
		d := moo.CrowdingDistances(sols)
		for k, i := range front {
			cd[i] = d[k]
		}
	}
	return cd
}

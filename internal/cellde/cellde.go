// Package cellde implements CellDE (Durillo, Nebro, Luna, Alba — PPSN X,
// 2008), the second reference MOEA of the paper: a cellular genetic
// algorithm whose variation operator is differential evolution.
//
// Individuals live on a toroidal grid; each one recombines with parents
// drawn from its Moore (C9) neighbourhood using the DE rand/1/bin
// operator, offspring replace their parent when not dominated by it, and
// an external crowding-distance archive collects every non-dominated
// offspring. After each sweep a feedback step re-injects random archive
// members into random cells, steering the grid towards the elite front —
// the design of the original CellDE.
//
// The package also contains Memetic, the paper's stated future work: the
// same algorithm with the AEDB-MLS local search (internal/core.ImproveBatch)
// applied to offspring.
package cellde

import (
	"fmt"
	"math"

	"aedbmls/internal/archive"
	"aedbmls/internal/core"
	"aedbmls/internal/moo"
	"aedbmls/internal/operators"
	"aedbmls/internal/rng"
	"aedbmls/internal/study"
)

// AlgorithmName identifies CellDE checkpoints.
const AlgorithmName = "cellde"

// Config parameterises CellDE.
type Config struct {
	// PopSize is the grid population; it is rounded down to a perfect
	// square (jMetal uses 10x10 = 100).
	PopSize     int
	Evaluations int
	// CR and F are the DE crossover rate and differential weight
	// (CellDE's published study uses CR = 0.1, F = 0.5).
	CR, F float64
	// ArchiveCapacity bounds the external crowding archive (100).
	ArchiveCapacity int
	// Feedback is the number of archive solutions re-injected into the
	// grid after each sweep (CellDE uses 20).
	Feedback int
	Seed     uint64

	// Memetic options (zero-valued in plain CellDE): every offspring
	// accepted into the grid receives LocalSearchIters improvement steps
	// with the AEDB-MLS operator. LocalSearchBatch > 1 groups those steps
	// into batched neighborhoods (core.ImproveBatch), one committee wave
	// per round on batch-capable problems.
	LocalSearchIters int
	LocalSearchBatch int
	LocalSearchAlpha float64
	Criteria         []core.Criterion

	// Options checkpoint at sweep boundaries (see study.Options).
	study.Options
}

// fingerprint identifies the study this config defines on problem p.
func (c Config) fingerprint(p moo.Problem) string {
	crit := ""
	for _, cr := range c.Criteria {
		crit += fmt.Sprintf("%s:%v;", cr.Name, cr.Params)
	}
	return study.Fingerprint(
		"cellde-v1",
		fmt.Sprintf("pop=%d evals=%d cr=%x f=%x cap=%d fb=%d seed=%d ls=%d lsb=%d lsa=%x",
			c.PopSize, c.Evaluations, math.Float64bits(c.CR), math.Float64bits(c.F),
			c.ArchiveCapacity, c.Feedback, c.Seed,
			c.LocalSearchIters, c.LocalSearchBatch, math.Float64bits(c.LocalSearchAlpha)),
		crit,
		study.ProblemFingerprint(p),
	)
}

// DefaultConfig returns the reference configuration used for the paper's
// comparison (pop 100, 10 000 evaluations).
func DefaultConfig() Config {
	return Config{
		PopSize: 100, Evaluations: 10000,
		CR: 0.1, F: 0.5,
		ArchiveCapacity: 100, Feedback: 20,
		Seed: 1,
	}
}

// TestConfig returns a reduced configuration for tests and benchmarks.
func TestConfig() Config {
	cfg := DefaultConfig()
	cfg.PopSize = 16
	cfg.Evaluations = 200
	cfg.Feedback = 4
	return cfg
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.PopSize < 9:
		return fmt.Errorf("cellde: PopSize must be >= 9, got %d", c.PopSize)
	case c.Evaluations < c.PopSize:
		return fmt.Errorf("cellde: Evaluations %d below PopSize %d", c.Evaluations, c.PopSize)
	case c.CR < 0 || c.CR > 1:
		return fmt.Errorf("cellde: CR out of [0,1]")
	case c.F <= 0:
		return fmt.Errorf("cellde: F must be positive")
	case c.ArchiveCapacity <= 0:
		return fmt.Errorf("cellde: ArchiveCapacity must be positive")
	}
	return nil
}

// Optimize runs CellDE (or its memetic variant when the config enables
// local search) on p. Execution is sequential, as in the paper. The
// result's Front is the external archive (feasible non-dominated
// solutions), its Population the final grid; Iterations counts sweeps.
func Optimize(p moo.Problem, cfg Config) (*study.Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	side := int(math.Sqrt(float64(cfg.PopSize)))
	c := &cellDE{p: p, cfg: cfg, n: side * side, neighbors: mooreNeighbors(side)}
	c.lo, c.hi = p.Bounds()
	return study.Run(c, cfg.Options)
}

// cellDE is one CellDE study as study.Run drives it; each Step is one
// sweep over the grid followed by the archive feedback.
type cellDE struct {
	p         moo.Problem
	cfg       Config
	n         int // grid cells
	neighbors [][]int
	lo, hi    []float64

	r             *rng.Rand
	grid          []*moo.Solution
	arch          archive.Interface
	evals, sweeps int64
}

// Name and the methods below implement study.Algorithm.
func (c *cellDE) Name() string { return AlgorithmName }

// Fingerprint identifies the config and problem.
func (c *cellDE) Fingerprint() string { return c.cfg.fingerprint(c.p) }

// Init evaluates the initial grid as one batch; the sweeps stay
// sequential by design — CellDE is an asynchronous cellular GA, so each
// cell's variation depends on offspring already placed this sweep, which
// admits no batching without changing the algorithm.
func (c *cellDE) Init() {
	c.r = rng.New(c.cfg.Seed)
	c.arch = archive.NewCrowding(c.cfg.ArchiveCapacity)
	c.grid, c.evals = study.InitialPopulation(c.p, c.n, c.r)
	for _, s := range c.grid {
		// Stop-abandoned cells stay in the grid (the run exits at the
		// first boundary) but must never seed the archive.
		if s.Admissible() && s.Feasible() {
			c.arch.Add(s)
		}
	}
}

// Restore decodes a sweep boundary; the grid must match the config.
func (c *cellDE) Restore(cp *study.Checkpoint) error {
	var err error
	if c.grid, err = study.DecodeSolutions(cp.Grid, c.p.Dim(), c.p.NumObjectives()); err != nil {
		return err
	}
	if len(c.grid) != c.n {
		return fmt.Errorf("cellde: checkpoint grid has %d cells, config wants %d", len(c.grid), c.n)
	}
	if c.arch, err = study.DecodeArchive(cp.Archive, c.p.Dim(), c.p.NumObjectives()); err != nil {
		return err
	}
	c.r, c.evals, c.sweeps = cp.RNG.Rand(), cp.Evaluations, cp.Iteration
	return nil
}

// Encode records a sweep boundary: the RNG, the grid and the archive.
func (c *cellDE) Encode(cp *study.Checkpoint) {
	cp.RNG = study.StateOf(c.r)
	cp.Grid = study.EncodeSolutions(c.grid)
	cp.Archive, _ = study.EncodeArchive(c.arch)
}

// More reports whether budget is left for another sweep.
func (c *cellDE) More() bool { return c.evals < int64(c.cfg.Evaluations) }

// Step runs one sweep over the grid, then the archive feedback.
func (c *cellDE) Step() {
	cfg, budget := c.cfg, int64(c.cfg.Evaluations)
	c.sweeps++
	for i := 0; i < c.n && c.evals < budget; i++ {
		cur := c.grid[i]
		nbrs := c.neighbors[i]
		// Two distinct neighbourhood parents by binary tournament.
		p1 := tournamentFrom(c.grid, nbrs, c.r)
		p2 := tournamentFrom(c.grid, nbrs, c.r)
		for tries := 0; tries < 4 && p2 == p1; tries++ {
			p2 = tournamentFrom(c.grid, nbrs, c.r)
		}
		trial := operators.DERand1Bin(cur.X, cur.X, p1.X, p2.X, cfg.CR, cfg.F, c.lo, c.hi, c.r)
		c.evals++
		child := moo.NewSolution(c.p, trial)
		if cfg.LocalSearchIters > 0 && c.evals < budget {
			improved, spent := core.ImproveBatch(c.p, child, solutionsAt(c.grid, nbrs), cfg.LocalSearchIters,
				cfg.LocalSearchBatch, cfg.LocalSearchAlpha, cfg.Criteria, c.r)
			c.evals += int64(spent)
			child = improved
		}
		// Replacement: the offspring takes the cell unless the parent
		// dominates it.
		if !moo.Dominates(cur, child) {
			c.grid[i] = child
		}
		if child.Feasible() {
			c.arch.Add(child)
		}
	}
	// Feedback: archive members re-enter the grid at random cells.
	contents := c.arch.Contents()
	for k := 0; k < cfg.Feedback && len(contents) > 0; k++ {
		c.grid[c.r.Intn(c.n)] = contents[c.r.Intn(len(contents))].Clone()
	}
}

// Progress returns the evaluations spent and the sweeps run.
func (c *cellDE) Progress() (int64, int64) { return c.evals, c.sweeps }

// Front is the archive, sorted by the first objective.
func (c *cellDE) Front() []*moo.Solution {
	front := c.arch.Contents()
	if len(front) == 0 {
		// No feasible solution was ever found: report the least-violating
		// non-dominated subset of the grid instead of an empty front.
		front = moo.ParetoFilter(c.grid)
	}
	archive.SortByObjective(front, 0)
	return front
}

// Population is the grid.
func (c *cellDE) Population() []*moo.Solution { return c.grid }

// Memetic returns a config with the AEDB-MLS local search enabled — the
// hybrid the paper proposes as future work ("include AEDB-MLS in it as a
// local search for fine tuning the solutions generated by CellDE").
func Memetic(base Config, iters int, alpha float64, criteria []core.Criterion) Config {
	base.LocalSearchIters = iters
	base.LocalSearchAlpha = alpha
	base.Criteria = criteria
	if base.LocalSearchAlpha <= 0 {
		base.LocalSearchAlpha = 0.2
	}
	return base
}

// mooreNeighbors precomputes the toroidal C9 neighbourhood (the 8
// surrounding cells) for each position of a side x side grid.
func mooreNeighbors(side int) [][]int {
	n := side * side
	out := make([][]int, n)
	for y := 0; y < side; y++ {
		for x := 0; x < side; x++ {
			var nbrs []int
			for dy := -1; dy <= 1; dy++ {
				for dx := -1; dx <= 1; dx++ {
					if dx == 0 && dy == 0 {
						continue
					}
					nx := (x + dx + side) % side
					ny := (y + dy + side) % side
					nbrs = append(nbrs, ny*side+nx)
				}
			}
			out[y*side+x] = nbrs
		}
	}
	return out
}

// tournamentFrom runs a binary dominance tournament over the
// neighbourhood indices.
func tournamentFrom(grid []*moo.Solution, nbrs []int, r *rng.Rand) *moo.Solution {
	a := grid[nbrs[r.Intn(len(nbrs))]]
	b := grid[nbrs[r.Intn(len(nbrs))]]
	switch {
	case moo.Dominates(a, b):
		return a
	case moo.Dominates(b, a):
		return b
	case r.Bool(0.5):
		return a
	default:
		return b
	}
}

func solutionsAt(grid []*moo.Solution, idx []int) []*moo.Solution {
	out := make([]*moo.Solution, len(idx))
	for i, j := range idx {
		out[i] = grid[j]
	}
	return out
}

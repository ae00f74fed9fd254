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
	"time"

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

	// Checkpoint enables crash-safe checkpointing at sweep boundaries;
	// Resume restores a matching checkpoint instead of initialising; Stop
	// requests cooperative interruption. See internal/study for the shared
	// protocol; resuming an interrupted run reproduces the uninterrupted
	// result bit for bit.
	Checkpoint *study.Controller
	Resume     *study.Checkpoint
	Stop       <-chan struct{}
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

// Result is the outcome of one CellDE run.
type Result struct {
	// Front is the external archive (feasible non-dominated solutions).
	Front []*moo.Solution
	// Population is the final grid.
	Population  []*moo.Solution
	Evaluations int64
	Duration    time.Duration
	Sweeps      int
	// Interrupted is true when the run exited early because Config.Stop
	// was closed.
	Interrupted bool
}

// Optimize runs CellDE (or its memetic variant when the config enables
// local search) on p. Execution is sequential, as in the paper.
func Optimize(p moo.Problem, cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	side := int(math.Sqrt(float64(cfg.PopSize)))
	n := side * side
	lo, hi := p.Bounds()
	start := time.Now()
	loop := &study.Loop{Ctrl: cfg.Checkpoint, Stop: cfg.Stop}
	interrupted := false
	var (
		r      *rng.Rand
		grid   []*moo.Solution
		arch   archive.Interface
		evals  int64
		sweeps int
		done   bool // resumed from a Final checkpoint
	)

	if cp := cfg.Resume; cp != nil {
		if err := cp.Check(AlgorithmName, cfg.fingerprint(p)); err != nil {
			return nil, err
		}
		var err error
		if grid, err = study.DecodeSolutions(cp.Grid, p.Dim(), p.NumObjectives()); err != nil {
			return nil, err
		}
		if len(grid) != n {
			return nil, fmt.Errorf("cellde: checkpoint grid has %d cells, config wants %d", len(grid), n)
		}
		if arch, err = study.DecodeArchive(cp.Archive, p.Dim(), p.NumObjectives()); err != nil {
			return nil, err
		}
		r = cp.RNG.Rand()
		evals = cp.Evaluations
		sweeps = int(cp.Iteration)
		done = cp.Final
	} else {
		r = rng.New(cfg.Seed)
		arch = archive.NewCrowding(cfg.ArchiveCapacity)

		// The initial grid is one batched evaluation; the sweeps below
		// stay sequential by design — CellDE is an asynchronous cellular
		// GA, so each cell's variation depends on offspring already placed
		// this sweep, which admits no batching without changing the
		// algorithm.
		xs := make([][]float64, n)
		for i := range xs {
			xs[i] = operators.RandomVector(lo, hi, r)
		}
		grid = moo.EvaluateAll(p, xs)
		evals += int64(n)
		for i := range grid {
			// Grid cells are long-lived parents, so a ladder-screened cell
			// is re-evaluated serially at full fidelity — the grid (and the
			// checkpoints that encode it) never holds a screening estimate.
			if grid[i].Screened {
				grid[i] = moo.NewSolution(p, xs[i])
				evals++
			}
			// Stop-abandoned cells stay in the grid (the run exits at the
			// first boundary) but must never seed the archive.
			if grid[i].Admissible() && grid[i].Feasible() {
				arch.Add(grid[i])
			}
		}
	}

	evaluate := func(x []float64) *moo.Solution {
		evals++
		return moo.NewSolution(p, x)
	}

	// encode snapshots the sweep boundary state.
	encode := func() *study.Checkpoint {
		ast, _ := study.EncodeArchive(arch)
		return &study.Checkpoint{
			Algorithm:   AlgorithmName,
			Fingerprint: cfg.fingerprint(p),
			Evaluations: evals,
			Iteration:   int64(sweeps),
			RNG:         study.StateOf(r),
			Grid:        study.EncodeSolutions(grid),
			Archive:     ast,
		}
	}

	neighbors := mooreNeighbors(side)
	budget := int64(cfg.Evaluations)
	for !done && evals < budget {
		if stopped, err := loop.Boundary(encode); err != nil {
			return nil, err
		} else if stopped {
			interrupted = true
			break
		}
		sweeps++
		for i := 0; i < n && evals < budget; i++ {
			cur := grid[i]
			nbrs := neighbors[i]
			// Two distinct neighbourhood parents by binary tournament.
			p1 := tournamentFrom(grid, nbrs, r)
			p2 := tournamentFrom(grid, nbrs, r)
			for tries := 0; tries < 4 && p2 == p1; tries++ {
				p2 = tournamentFrom(grid, nbrs, r)
			}
			trial := operators.DERand1Bin(cur.X, cur.X, p1.X, p2.X, cfg.CR, cfg.F, lo, hi, r)
			child := evaluate(trial)
			if cfg.LocalSearchIters > 0 && evals < budget {
				improved, spent := core.ImproveBatch(p, child, solutionsAt(grid, nbrs), cfg.LocalSearchIters,
					cfg.LocalSearchBatch, cfg.LocalSearchAlpha, cfg.Criteria, r)
				evals += int64(spent)
				child = improved
			}
			// Replacement: the offspring takes the cell unless the parent
			// dominates it.
			if !moo.Dominates(cur, child) {
				grid[i] = child
			}
			if child.Feasible() {
				arch.Add(child)
			}
		}
		// Feedback: archive members re-enter the grid at random cells.
		contents := arch.Contents()
		for k := 0; k < cfg.Feedback && len(contents) > 0; k++ {
			grid[r.Intn(n)] = contents[r.Intn(len(contents))].Clone()
		}
	}
	if !done && !interrupted {
		if err := loop.Finish(encode); err != nil {
			return nil, err
		}
	}

	res := &Result{
		Population:  grid,
		Evaluations: evals,
		Duration:    time.Since(start),
		Sweeps:      sweeps,
		Interrupted: interrupted,
	}
	res.Front = arch.Contents()
	if len(res.Front) == 0 {
		// No feasible solution was ever found: report the least-violating
		// non-dominated subset of the grid instead of an empty front.
		res.Front = moo.ParetoFilter(grid)
	}
	archive.SortByObjective(res.Front, 0)
	return res, nil
}

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

package study

import (
	"errors"
	"fmt"
	"time"

	"aedbmls/internal/moo"
	"aedbmls/internal/operators"
	"aedbmls/internal/rng"
)

// Options are the checkpoint, resume and stop settings every optimizer
// config embeds (core, nsga2, spea2 and cellde alike).
type Options struct {
	// Checkpoint, when non-nil with a Path, enables crash-safe
	// checkpointing at iteration boundaries on its cadence, and a Final
	// checkpoint at completion.
	Checkpoint *Controller
	// Resume, when non-nil, restores a previous run's state instead of
	// initialising. Its algorithm and fingerprint must match the study's.
	// Resuming an interrupted run and letting it finish produces the same
	// final result, bit for bit, as the uninterrupted run; resuming a
	// Final checkpoint returns the finished result without spending an
	// evaluation.
	Resume *Checkpoint
	// Stop, when non-nil, requests cooperative interruption: close it and
	// the run exits at the next iteration boundary, after writing a
	// consistent checkpoint when Checkpoint is enabled, and reports
	// Interrupted.
	Stop <-chan struct{}
}

// Algorithm is one checkpointable optimizer as Run drives it. Its state
// advances only in Init, Restore and Step, so every point between two
// Steps is a boundary a checkpoint can capture.
type Algorithm interface {
	// Name is the checkpoint algorithm name.
	Name() string
	// Fingerprint identifies the study: algorithm config and problem.
	Fingerprint() string
	// Init seeds a fresh run and evaluates its initial state.
	Init()
	// Restore replaces the fresh state with a checkpoint's: its own
	// fields (population, elite, grid, workers, archive, RNG streams,
	// counters) and its Evaluations and Iteration.
	Restore(cp *Checkpoint) error
	// Encode fills cp with the algorithm's own fields at a boundary; Run
	// fills the header, Evaluations and Iteration.
	Encode(cp *Checkpoint)
	// More reports whether budget is left for another Step.
	More() bool
	// Step runs one iteration: a generation, a sweep or a round.
	Step()
	// Progress returns the evaluations spent and the iteration counter.
	Progress() (evaluations, iterations int64)
	// Front is the non-dominated set the run reports.
	Front() []*moo.Solution
	// Population is the final population the front is drawn from.
	Population() []*moo.Solution
}

// Result is the outcome of one run of any optimizer.
type Result struct {
	// Front is the reported non-dominated set: feasible whenever any
	// feasible solution exists, otherwise the least-violating solutions.
	Front []*moo.Solution
	// Population is the final population (SPEA2: its environmental
	// archive; CellDE: its grid; AEDB-MLS: the workers' current
	// solutions).
	Population []*moo.Solution
	// Evaluations is the budget actually spent, in the algorithm's
	// budget units. For AEDB-MLS these include the moves that reproduce
	// a worker's incumbent, which are charged without calling the
	// Problem (see core.Result).
	Evaluations int64
	// Iterations is the algorithm's iteration counter, as its
	// checkpoints record it.
	Iterations int64
	// Duration is the wall-clock time.
	Duration time.Duration
	// Interrupted is true when the run exited early because Stop was
	// closed; the front then reflects the last completed boundary.
	Interrupted bool
}

// Run drives alg to completion, or to a stop, under the options.
//
// A resume is checked against alg's name and fingerprint and refused when
// it holds no member to select from; a Final checkpoint short-circuits to
// the result. Otherwise each iteration top, while alg has budget left, is
// a boundary, and a completed run writes a Final checkpoint.
//
// The boundary protocol keeps one invariant: a checkpoint written on a
// stop always describes a boundary whose iteration completed before the
// stop could have influenced any evaluation. A cadence save writes the
// current boundary (no stop has fired, so it is clean), but a stop writes
// the previous boundary's encoding instead: when the stop channel also
// reaches the evaluation layer (eval.WithStop), the just-finished
// iteration may hold abandoned evaluations, and resuming from the prior
// boundary replays that iteration deterministically instead of trusting
// it. Replaying is free, bit-wise: the algorithms are deterministic
// functions of their checkpointed state.
func Run(alg Algorithm, o Options) (*Result, error) {
	start := time.Now()
	name, fp := alg.Name(), alg.Fingerprint()
	done := false
	// resumedAt is the resumed checkpoint's evaluation count (-1 without
	// a resume). A cadence save due at that count would re-write the
	// checkpoint the run started from, so it is only counted. The cadence
	// is not seeded from the resume up front: when the count is below
	// Every no save is due there, and seeding would shift the later ones.
	resumedAt := int64(-1)
	if cp := o.Resume; cp != nil {
		if err := cp.Check(name, fp); err != nil {
			return nil, err
		}
		if err := alg.Restore(cp); err != nil {
			return nil, err
		}
		// A checkpoint can pass its checksum and fingerprint and still
		// restore no member for a Step to select from: refuse it here,
		// judged by what the restored state encodes.
		var restored Checkpoint
		alg.Encode(&restored)
		if len(restored.Population)+len(restored.Elite)+len(restored.Grid)+len(restored.Workers) == 0 {
			return nil, fmt.Errorf("study: %s checkpoint restores no population to resume from", name)
		}
		done = cp.Final
		resumedAt = cp.Evaluations
	} else {
		alg.Init()
	}

	ctrl := o.Checkpoint
	encode := func() *Checkpoint {
		cp := &Checkpoint{Algorithm: name, Fingerprint: fp}
		cp.Evaluations, cp.Iteration = alg.Progress()
		alg.Encode(cp)
		return cp
	}
	interrupted := false
	var pending *Checkpoint // the last boundary's encoding
	for !done && alg.More() {
		if Stopped(o.Stop) {
			interrupted = true
			if ctrl.Enabled() && pending != nil {
				if err := ctrl.Save(pending); err != nil && !errors.Is(err, ErrStop) {
					return nil, err
				}
			}
			break
		}
		if ctrl.Enabled() {
			pending = encode()
			if ctrl.Due(pending.Evaluations) {
				if pending.Evaluations == resumedAt {
					// This save is the checkpoint the run resumed from:
					// the cadence counts it without writing it again.
					ctrl.lastSaved = resumedAt
				} else if err := ctrl.Save(pending); errors.Is(err, ErrStop) {
					interrupted = true
					break
				} else if err != nil {
					return nil, err
				}
			}
		}
		alg.Step()
	}
	if !done && !interrupted && ctrl.Enabled() {
		cp := encode()
		cp.Final = true
		if err := ctrl.Save(cp); err != nil && !errors.Is(err, ErrStop) {
			return nil, err
		}
	}

	res := &Result{Front: alg.Front(), Population: alg.Population(), Duration: time.Since(start), Interrupted: interrupted}
	res.Evaluations, res.Iterations = alg.Progress()
	return res, nil
}

// InitialPopulation draws n uniform random vectors from p's bounds, in
// order from r, and evaluates them as one batch. Initial members are
// long-lived parents, so a ladder-screened member is re-evaluated serially
// at full fidelity rather than dropped; a stop-abandoned one is kept as
// is, for the caller to filter. It returns the members and the
// evaluations spent.
func InitialPopulation(p moo.Problem, n int, r *rng.Rand) ([]*moo.Solution, int64) {
	lo, hi := p.Bounds()
	xs := make([][]float64, n)
	for i := range xs {
		xs[i] = operators.RandomVector(lo, hi, r)
	}
	pop := moo.EvaluateAll(p, xs)
	evals := int64(n)
	for i, s := range pop {
		if s.Screened {
			pop[i] = moo.NewSolution(p, xs[i])
			evals++
		}
	}
	return pop, evals
}

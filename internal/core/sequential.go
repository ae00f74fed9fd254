package core

import (
	"fmt"

	"aedbmls/internal/archive"
	"aedbmls/internal/moo"
	"aedbmls/internal/study"
)

// AlgorithmName identifies AEDB-MLS checkpoints.
const AlgorithmName = "aedb-mls"

// OptimizeSequential executes the AEDB-MLS algorithm with the exact same
// structure as Optimize — populations, per-worker budgets, search
// criteria, archive interaction, reset protocol, and the very same step —
// but steps the workers round-robin on the calling goroutine.
//
// The parallel execution is scheduling-dependent (workers race on the
// shared population and archive, as in the paper's implementation);
// this variant is bit-for-bit reproducible for a given seed regardless of
// GOMAXPROCS, which makes it the right tool for regression baselines and
// debugging. It is also the honest 1-core baseline for speedup
// measurements, and — because every round boundary is a complete,
// replayable state — the engine behind checkpoint/resume and cooperative
// interruption (Config.Options), driven by study.Run.
func OptimizeSequential(p moo.Problem, cfg Config, arch archive.Interface) (*Result, error) {
	e, err := newEngine(p, cfg, arch)
	if err != nil {
		return nil, err
	}
	if cfg.Checkpoint.Enabled() && cfg.Resume == nil {
		// Fail before spending budget if the archive cannot be captured
		// (the error depends only on its concrete type; a resume brings
		// its own stock archive).
		if _, err := study.EncodeArchive(e.archive.Archive()); err != nil {
			return nil, fmt.Errorf("core: checkpointing needs a stock archive: %v", err)
		}
	}
	res, err := study.Run(&roundRobin{engine: e}, cfg.Options)
	if err != nil {
		return nil, err
	}
	return e.result(*res), nil
}

// roundRobin is the sequential schedule as study.Run drives it: one Step
// steps every live worker once, which makes the reset barriers line up
// exactly as in the threaded schedule. The round that finds no live
// worker still counts, so a finished run's round counter is one past its
// last working round.
type roundRobin struct {
	*engine
	round    int64
	finished bool // the last round found no live worker
}

// Init runs the initialisation phase (lines 1-4 of Fig. 3): every worker
// draws feasible random starts; the implicit barrier is the phase
// boundary. A resume never re-runs this — the restored workers already
// carry their post-initialisation (or later) state.
func (rr *roundRobin) Init() {
	for _, pop := range rr.pops {
		for _, w := range pop {
			rr.initialise(w)
		}
	}
}

// More reports whether the last round found a live worker.
func (rr *roundRobin) More() bool { return !rr.finished }

// Step steps every live worker once.
func (rr *roundRobin) Step() {
	rr.round++
	live := 0
	for _, pop := range rr.pops {
		for _, w := range pop {
			if w.cur.Load() == nil || w.spent >= rr.cfg.EvalsPerWorker {
				continue
			}
			live++
			rr.step(w, pop)
		}
	}
	rr.finished = live == 0
}

// Progress returns the evaluations spent and the round counter.
func (rr *roundRobin) Progress() (int64, int64) { return rr.evals.Load(), rr.round }

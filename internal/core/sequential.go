package core

import (
	"fmt"
	"time"

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
// replayable state — the engine behind checkpoint/resume (Config.
// Checkpoint / Config.Resume) and cooperative interruption (Config.Stop).
func OptimizeSequential(p moo.Problem, cfg Config, arch archive.Interface) (*Result, error) {
	e, err := newEngine(p, cfg, arch)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	var (
		round int64
		done  bool // resumed from a Final checkpoint: nothing left to run
	)
	if cfg.Resume != nil {
		if round, done, err = e.restore(cfg.Resume); err != nil {
			return nil, err
		}
	}
	if cfg.Checkpoint.Enabled() {
		// Fail before spending budget if the archive cannot be captured
		// (the error depends only on its concrete type).
		if _, err := study.EncodeArchive(e.archive.Archive()); err != nil {
			return nil, fmt.Errorf("core: checkpointing needs a stock archive: %v", err)
		}
	}

	if cfg.Resume == nil {
		// Initialisation phase (lines 1-4 of Fig. 3): every worker draws
		// feasible random starts; the implicit barrier is the phase
		// boundary. A resume never re-runs this — the restored workers
		// already carry their post-initialisation (or later) state.
		for _, pop := range e.pops {
			for _, w := range pop {
				e.initialise(w)
			}
		}
	}

	// Main loop: one round steps every live worker once, which makes the
	// reset barriers line up exactly as in the threaded schedule. Each
	// round top is a checkpoint boundary (see study.Loop for the
	// stop-consistency protocol).
	loop := &study.Loop{Ctrl: cfg.Checkpoint, Stop: cfg.Stop}
	encode := func() *study.Checkpoint { return e.checkpoint(round) }
	interrupted := false
	for !done {
		if stopped, err := loop.Boundary(encode); err != nil {
			return nil, err
		} else if stopped {
			interrupted = true
			break
		}
		round++
		live := 0
		for _, pop := range e.pops {
			for _, w := range pop {
				if w.cur.Load() == nil || w.spent >= cfg.EvalsPerWorker {
					continue
				}
				live++
				e.step(w, pop)
			}
		}
		if live == 0 {
			break
		}
	}
	if !done && !interrupted {
		if err := loop.Finish(encode); err != nil {
			return nil, err
		}
	}
	return e.result(start, interrupted), nil
}

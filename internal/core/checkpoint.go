package core

import (
	"fmt"
	"math"
	"strings"

	"aedbmls/internal/archive"
	"aedbmls/internal/study"
)

// fingerprint identifies the study the engine's config defines on its
// problem: every knob that changes the search trajectory, plus the
// problem's own identity. Perf-only settings stay out so a resume may,
// e.g., change evaluation parallelism.
func (e *engine) fingerprint() string {
	c := e.cfg
	crit := make([]string, len(e.criteria))
	for i, cr := range e.criteria {
		crit[i] = fmt.Sprintf("%s:%v", cr.Name, cr.Params)
	}
	return study.Fingerprint(
		"aedb-mls-v1",
		fmt.Sprintf("pops=%d workers=%d epw=%d reset=%d alpha=%x cap=%d div=%d hood=%d seed=%d",
			c.Populations, c.Workers, c.EvalsPerWorker, c.ResetPeriod,
			math.Float64bits(c.Alpha), c.ArchiveCapacity, c.GridDivisions,
			c.neighborhood(), c.Seed),
		strings.Join(crit, ";"),
		study.ProblemFingerprint(e.p),
	)
}

// checkpoint snapshots the state at a round boundary: everything the
// round-robin schedule reads.
func (e *engine) checkpoint(round int64) *study.Checkpoint {
	ast, _ := study.EncodeArchive(e.archive.Archive())
	workers := make([]study.WorkerState, 0, e.cfg.Populations*e.cfg.Workers)
	for _, pop := range e.pops {
		for _, w := range pop {
			ws := study.WorkerState{RNG: study.StateOf(w.rng), Spent: w.spent, Iter: w.iter}
			if s := w.cur.Load(); s != nil {
				ws.Current = study.EncodeSolution(s)
			}
			workers = append(workers, ws)
		}
	}
	return &study.Checkpoint{
		Algorithm:   AlgorithmName,
		Fingerprint: e.fingerprint(),
		Evaluations: e.evals.Load(),
		Iteration:   round,
		Counters:    map[string]int64{"accepted": e.accepted.Load(), "resets": e.resets.Load()},
		RNG:         study.StateOf(e.archive.Rand()),
		Archive:     ast,
		Workers:     workers,
	}
}

// restore replaces the freshly seeded state with a checkpoint's, which
// must come from the same study. Any caller-supplied archive gives way to
// the checkpointed one. It returns the checkpoint's round and whether the
// run had already finished.
func (e *engine) restore(cp *study.Checkpoint) (round int64, final bool, err error) {
	if err := cp.Check(AlgorithmName, e.fingerprint()); err != nil {
		return 0, false, err
	}
	dim, nobj := e.p.Dim(), e.p.NumObjectives()
	arch, err := study.DecodeArchive(cp.Archive, dim, nobj)
	if err != nil {
		return 0, false, err
	}
	if want := e.cfg.Populations * e.cfg.Workers; len(cp.Workers) != want {
		return 0, false, fmt.Errorf("core: checkpoint holds %d workers, config wants %d", len(cp.Workers), want)
	}
	e.archive = archive.NewShared(arch, cp.RNG.Rand())
	e.evals.Store(cp.Evaluations)
	e.accepted.Store(cp.Counter("accepted"))
	e.resets.Store(cp.Counter("resets"))
	for pi, pop := range e.pops {
		for wi, w := range pop {
			ws := cp.Workers[pi*e.cfg.Workers+wi]
			w.rng, w.spent, w.iter = ws.RNG.Rand(), ws.Spent, ws.Iter
			if len(ws.Current.X) > 0 {
				s, err := ws.Current.Decode(dim, nobj)
				if err != nil {
					return 0, false, fmt.Errorf("core: worker %d/%d: %v", pi, wi, err)
				}
				w.cur.Store(s)
			}
		}
	}
	return cp.Iteration, cp.Final, nil
}

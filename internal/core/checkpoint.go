package core

import (
	"fmt"
	"math"
	"strings"

	"aedbmls/internal/archive"
	"aedbmls/internal/study"
)

// Name and the methods below implement study.Algorithm.
func (rr *roundRobin) Name() string { return AlgorithmName }

// Fingerprint identifies the study the engine's config defines on its
// problem: every knob that changes the search trajectory, plus the
// problem's own identity. Perf-only settings stay out so a resume may,
// e.g., change evaluation parallelism.
func (rr *roundRobin) Fingerprint() string {
	c := rr.cfg
	crit := make([]string, len(rr.criteria))
	for i, cr := range rr.criteria {
		crit[i] = fmt.Sprintf("%s:%v", cr.Name, cr.Params)
	}
	return study.Fingerprint(
		"aedb-mls-v1",
		fmt.Sprintf("pops=%d workers=%d epw=%d reset=%d alpha=%x cap=%d div=%d hood=%d seed=%d",
			c.Populations, c.Workers, c.EvalsPerWorker, c.ResetPeriod,
			math.Float64bits(c.Alpha), c.ArchiveCapacity, c.GridDivisions,
			c.neighborhood(), c.Seed),
		strings.Join(crit, ";"),
		study.ProblemFingerprint(rr.p),
	)
}

// Encode snapshots a round boundary: everything the round-robin schedule
// reads.
func (rr *roundRobin) Encode(cp *study.Checkpoint) {
	cp.Archive, _ = study.EncodeArchive(rr.archive.Archive())
	cp.Workers = make([]study.WorkerState, 0, rr.cfg.Populations*rr.cfg.Workers)
	for _, pop := range rr.pops {
		for _, w := range pop {
			ws := study.WorkerState{RNG: study.StateOf(w.rng), Spent: w.spent, Iter: w.iter}
			if s := w.cur.Load(); s != nil {
				ws.Current = study.EncodeSolution(s)
			}
			cp.Workers = append(cp.Workers, ws)
		}
	}
	cp.Counters = map[string]int64{"accepted": rr.accepted.Load(), "resets": rr.resets.Load()}
	cp.RNG = study.StateOf(rr.archive.Rand())
}

// Restore replaces the freshly seeded state with a checkpoint's. Any
// caller-supplied archive gives way to the checkpointed one.
func (rr *roundRobin) Restore(cp *study.Checkpoint) error {
	dim, nobj := rr.p.Dim(), rr.p.NumObjectives()
	arch, err := study.DecodeArchive(cp.Archive, dim, nobj)
	if err != nil {
		return err
	}
	if want := rr.cfg.Populations * rr.cfg.Workers; len(cp.Workers) != want {
		return fmt.Errorf("core: checkpoint holds %d workers, config wants %d", len(cp.Workers), want)
	}
	rr.archive = archive.NewShared(arch, cp.RNG.Rand())
	rr.evals.Store(cp.Evaluations)
	rr.accepted.Store(cp.Counter("accepted"))
	rr.resets.Store(cp.Counter("resets"))
	rr.round = cp.Iteration
	for pi, pop := range rr.pops {
		for wi, w := range pop {
			ws := cp.Workers[pi*rr.cfg.Workers+wi]
			w.rng, w.spent, w.iter = ws.RNG.Rand(), ws.Spent, ws.Iter
			if len(ws.Current.X) > 0 {
				s, err := ws.Current.Decode(dim, nobj)
				if err != nil {
					return fmt.Errorf("core: worker %d/%d: %v", pi, wi, err)
				}
				w.cur.Store(s)
			}
		}
	}
	return nil
}

package experiments

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"aedbmls/internal/cellde"
	"aedbmls/internal/core"
	"aedbmls/internal/eval"
	"aedbmls/internal/moo"
	"aedbmls/internal/nsga2"
	"aedbmls/internal/study"
)

// Algorithm labels in the paper's column order.
const (
	AlgCellDE = "CellDE"
	AlgNSGAII = "NSGAII"
	AlgMLS    = "AEDB-MLS"
)

// Algorithms is the canonical ordering used by every report.
var Algorithms = []string{AlgCellDE, AlgNSGAII, AlgMLS}

// RunSet holds the raw per-run outcomes of all three algorithms on one
// density; every downstream artifact (Fig. 6, Fig. 7, Table IV, timing) is
// derived from it.
type RunSet struct {
	Density int
	Nodes   int
	Runs    int
	// Fronts[alg][run] is the feasible non-dominated front of that run.
	Fronts map[string][][]*moo.Solution
	// Durations[alg][run] is the wall-clock time of that run.
	Durations map[string][]time.Duration
	// Evals[alg][run] is the number of problem evaluations spent.
	Evals map[string][]int64
}

// RunAll executes Runs independent executions of CellDE, NSGA-II and
// AEDB-MLS on the density's frozen problem. MLS runs use their internal
// parallelism; the MOEAs are sequential, matching the paper's setup.
func RunAll(sc Scale, density int, log Logf) (*RunSet, error) {
	problem := sc.Problem(density)
	rs := &RunSet{
		Density:   density,
		Nodes:     problem.Nodes(),
		Runs:      sc.Runs,
		Fronts:    make(map[string][][]*moo.Solution),
		Durations: make(map[string][]time.Duration),
		Evals:     make(map[string][]int64),
	}
	for run := 0; run < sc.Runs; run++ {
		seed := sc.Seed + 1000*uint64(run)
		var err error

		cfg := sc.CellDE
		cfg.Seed = seed + 1
		cfg.Stop = sc.Stop
		if cfg.Checkpoint, cfg.Resume, err = sc.studyPair(AlgCellDE, density, run); err != nil {
			return nil, err
		}
		cres, err := cellde.Optimize(problem, cfg)
		if err != nil {
			return nil, fmt.Errorf("experiments: CellDE run %d: %w", run, err)
		}
		if cres.Interrupted {
			return nil, interruptedErr(AlgCellDE, density, run)
		}
		rs.record(AlgCellDE, cres.Front, cres.Duration, cres.Evaluations)

		ncfg := sc.NSGA
		ncfg.Seed = seed + 2
		ncfg.Stop = sc.Stop
		if ncfg.Checkpoint, ncfg.Resume, err = sc.studyPair(AlgNSGAII, density, run); err != nil {
			return nil, err
		}
		nres, err := nsga2.Optimize(problem, ncfg)
		if err != nil {
			return nil, fmt.Errorf("experiments: NSGA-II run %d: %w", run, err)
		}
		if nres.Interrupted {
			return nil, interruptedErr(AlgNSGAII, density, run)
		}
		rs.record(AlgNSGAII, nres.Front, nres.Duration, nres.Evaluations)

		mcfg := sc.mlsConfig(seed + 3)
		if mcfg.Checkpoint, mcfg.Resume, err = sc.studyPair(AlgMLS, density, run); err != nil {
			return nil, err
		}
		mres, err := core.Optimize(problem, mcfg, nil)
		if err != nil {
			return nil, fmt.Errorf("experiments: AEDB-MLS run %d: %w", run, err)
		}
		if mres.Interrupted {
			return nil, interruptedErr(AlgMLS, density, run)
		}
		rs.record(AlgMLS, mres.Front, mres.Duration, mres.Evaluations)

		log.printf("density %d: run %d/%d done (fronts: cellde=%d nsga2=%d mls=%d)",
			density, run+1, sc.Runs, len(cres.Front), len(nres.Front), len(mres.Front))
	}
	return rs, nil
}

// interruptedErr is the uniform cooperative-stop outcome of every driver:
// the checkpoint (when configured) holds the interrupted run's state, and
// the suite can be re-invoked to resume.
func interruptedErr(what string, density, run int) error {
	return fmt.Errorf("experiments: %s run %d (density %d) interrupted: %w", what, run, density, study.ErrStop)
}

// studyPair resolves the checkpoint controller and resume state for one
// (algorithm, density, run). Without a CheckpointDir both are nil; with
// one, an existing file is loaded for resumption (Final files make the
// optimizer short-circuit, so completed runs cost nothing on a re-run).
func (s Scale) studyPair(alg string, density, run int) (*study.Controller, *study.Checkpoint, error) {
	if s.CheckpointDir == "" {
		return nil, nil, nil
	}
	path := filepath.Join(s.CheckpointDir,
		fmt.Sprintf("%s-d%d-r%d.ckpt", strings.ToLower(alg), density, run))
	every := s.CheckpointEvery
	if every <= 0 {
		every = 1000
	}
	ctrl := &study.Controller{Path: path, Every: every}
	cp, err := study.Load(path)
	switch {
	case errors.Is(err, os.ErrNotExist):
		return ctrl, nil, nil
	case err != nil:
		return nil, nil, fmt.Errorf("experiments: checkpoint %s: %w", path, err)
	}
	return ctrl, cp, nil
}

func (rs *RunSet) record(alg string, front []*moo.Solution, d time.Duration, evals int64) {
	rs.Fronts[alg] = append(rs.Fronts[alg], front)
	rs.Durations[alg] = append(rs.Durations[alg], d)
	rs.Evals[alg] = append(rs.Evals[alg], evals)
}

// FrontPoints converts solutions to objective vectors in paper units
// (energy, coverage, forwardings) — coverage un-negated for display.
func FrontPoints(front []*moo.Solution) [][]float64 {
	out := make([][]float64, len(front))
	for i, s := range front {
		if m, ok := eval.MetricsOf(s); ok {
			out[i] = []float64{m.EnergyDBmSum, m.Coverage, m.Forwardings}
		} else {
			out[i] = append([]float64(nil), s.F...)
		}
	}
	return out
}

// ObjectivePoints converts solutions to raw minimisation-space vectors
// (as used by the indicators).
func ObjectivePoints(front []*moo.Solution) [][]float64 {
	out := make([][]float64, len(front))
	for i, s := range front {
		out[i] = append([]float64(nil), s.F...)
	}
	return out
}

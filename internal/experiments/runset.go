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
		algs := []struct {
			name     string
			optimize func(study.Options) (*study.Result, error)
		}{
			{AlgCellDE, func(o study.Options) (*study.Result, error) {
				cfg := sc.CellDE
				cfg.Seed, cfg.Options = seed+1, o
				return cellde.Optimize(problem, cfg)
			}},
			{AlgNSGAII, func(o study.Options) (*study.Result, error) {
				cfg := sc.NSGA
				cfg.Seed, cfg.Options = seed+2, o
				return nsga2.Optimize(problem, cfg)
			}},
			{AlgMLS, func(o study.Options) (*study.Result, error) {
				cfg := sc.MLS
				cfg.Seed, cfg.Options = seed+3, o
				res, err := core.Optimize(problem, cfg, nil)
				if err != nil {
					return nil, err
				}
				return &res.Result, nil
			}},
		}
		for _, alg := range algs {
			res, err := sc.execute(alg.name, density, run, alg.optimize)
			if err != nil {
				return nil, err
			}
			rs.Fronts[alg.name] = append(rs.Fronts[alg.name], res.Front)
			rs.Durations[alg.name] = append(rs.Durations[alg.name], res.Duration)
			rs.Evals[alg.name] = append(rs.Evals[alg.name], res.Evaluations)
		}
		log.printf("density %d: run %d/%d done (fronts: cellde=%d nsga2=%d mls=%d)", density, run+1, sc.Runs,
			len(rs.Fronts[AlgCellDE][run]), len(rs.Fronts[AlgNSGAII][run]), len(rs.Fronts[AlgMLS][run]))
	}
	return rs, nil
}

// execute runs one execution of an algorithm under the scale's stop
// channel and, with a CheckpointDir, its (alg, density, run) checkpoint.
// An interrupted run is an error wrapping study.ErrStop: its checkpoint
// (when configured) holds the state, and the suite can be re-invoked to
// resume.
func (s Scale) execute(alg string, density, run int, optimize func(study.Options) (*study.Result, error)) (*study.Result, error) {
	o := study.Options{Stop: s.Stop}
	var err error
	if o.Checkpoint, o.Resume, err = s.studyPair(alg, density, run); err != nil {
		return nil, err
	}
	res, err := optimize(o)
	if err != nil {
		return nil, fmt.Errorf("experiments: %s run %d: %w", alg, run, err)
	}
	if res.Interrupted {
		return nil, interruptedErr(alg, density, run)
	}
	return res, nil
}

// interruptedErr is the uniform cooperative-stop outcome of every driver.
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

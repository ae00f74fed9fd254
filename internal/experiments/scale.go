// Package experiments contains one driver per table and figure of the
// paper (see the per-experiment index in DESIGN.md): the Fast99
// sensitivity analysis (Fig. 2, Table I), the Pareto-front comparison
// (Fig. 6 and the dominance counts of Sect. VI), the quality-indicator
// study (Table IV, Fig. 7), the execution-time comparison, the Sect. V
// configuration analysis of alpha and the reset period, and the ablations
// called out in DESIGN.md.
//
// Every driver is parameterised by a Scale so the full paper protocol
// (30 runs, 24 000 evaluations per AEDB-MLS execution) and fast
// test/bench variants share one code path.
package experiments

import (
	"fmt"

	"aedbmls/internal/cellde"
	"aedbmls/internal/core"
	"aedbmls/internal/eval"
	"aedbmls/internal/nsga2"
)

// Scale bundles the experimental budgets.
type Scale struct {
	Name      string
	Densities []int
	// Runs is the number of independent executions per algorithm
	// (paper: 30).
	Runs int
	// Committee is the number of frozen networks per evaluation
	// (paper: 10).
	Committee int
	// MLS is the AEDB-MLS configuration template (seed overridden per
	// run).
	MLS core.Config
	// NSGA and CellDE are the MOEA templates. Their evaluation budgets
	// should be the MLS total divided by 2.4, the ratio reported in the
	// paper.
	NSGA   nsga2.Config
	CellDE cellde.Config
	// SensitivityN is the Fast99 sample count per factor.
	SensitivityN int
	// Settings configures the evaluation engine of every problem of
	// this scale (see eval.Settings): committee-parallel workers, the
	// reference engine, the physics arm and the multi-fidelity ladder.
	// Archives and reported fronts only ever hold full-fidelity metrics.
	eval.Settings
	// Seed is the base seed; run r of algorithm a uses
	// Seed + 1000*r + a, and the network committee uses Seed directly.
	Seed uint64
	// CheckpointDir, when non-empty, gives every (algorithm, density, run)
	// of the comparison suite its own crash-safe checkpoint file in this
	// directory: a re-run after a crash or interruption skips completed
	// runs (their Final checkpoints short-circuit) and resumes interrupted
	// ones bit-exactly. Only RunAll-driven experiments checkpoint; the
	// cheap analyses re-run from scratch.
	CheckpointDir string
	// CheckpointEvery is the save cadence in evaluations (<= 0: a default
	// of 1000).
	CheckpointEvery int64
	// Stop, when non-nil, interrupts the suite cooperatively at the next
	// optimizer boundary; RunAll then returns an error wrapping
	// study.ErrStop after saving checkpoints.
	Stop <-chan struct{}
}

// MLSEvaluations returns the total AEDB-MLS budget for this scale.
func (s Scale) MLSEvaluations() int {
	return s.MLS.Populations * s.MLS.Workers * s.MLS.EvalsPerWorker
}

// PaperScale reproduces the paper's experimental protocol: 30 runs, AEDB-MLS
// with 8 populations x 12 threads x 250 evaluations (24 000), MOEAs with
// 10 000 evaluations, all three densities.
func PaperScale() Scale {
	mls := core.DefaultConfig()
	mls.Criteria = core.DefaultAEDBCriteria()
	return Scale{
		Name:         "paper",
		Densities:    []int{100, 200, 300},
		Runs:         30,
		Committee:    10,
		MLS:          mls,
		NSGA:         nsga2.DefaultConfig(),
		CellDE:       cellde.DefaultConfig(),
		SensitivityN: 1000,
		Seed:         20130520, // IPDPSW 2013
	}
}

// SmallScale is a laptop-scale protocol preserving all structural ratios
// (MLS evaluations = 2.4x the MOEAs'), used by the default CLI runs.
func SmallScale() Scale {
	s := PaperScale()
	s.Name = "small"
	s.Runs = 5
	s.MLS.Populations = 4
	s.MLS.Workers = 3
	s.MLS.EvalsPerWorker = 40 // 480 evaluations
	s.MLS.ResetPeriod = 15
	s.NSGA.PopSize = 20
	s.NSGA.Evaluations = 200 // 480 / 2.4
	s.CellDE.PopSize = 16
	s.CellDE.Evaluations = 200
	s.CellDE.Feedback = 4
	s.SensitivityN = 129
	return s
}

// TinyScale is the smallest structurally faithful protocol; tests and
// benchmarks use it.
func TinyScale() Scale {
	s := SmallScale()
	s.Name = "tiny"
	s.Densities = []int{100}
	s.Runs = 3
	s.Committee = 3
	s.MLS.Populations = 2
	s.MLS.Workers = 2
	s.MLS.EvalsPerWorker = 15 // 60 evaluations
	s.MLS.ResetPeriod = 6
	s.NSGA.PopSize = 8
	s.NSGA.Evaluations = 24
	s.CellDE.PopSize = 9
	s.CellDE.Evaluations = 27
	s.CellDE.Feedback = 2
	s.SensitivityN = 65
	return s
}

// ScaleByName resolves "paper", "small" or "tiny".
func ScaleByName(name string) (Scale, error) {
	switch name {
	case "paper":
		return PaperScale(), nil
	case "small":
		return SmallScale(), nil
	case "tiny":
		return TinyScale(), nil
	}
	return Scale{}, fmt.Errorf("experiments: unknown scale %q (want paper, small or tiny)", name)
}

// EvalOptions returns the evaluation options every problem of this scale
// is built with.
func (s Scale) EvalOptions() []eval.Option {
	return []eval.Option{eval.WithCommittee(s.Committee), eval.WithSettings(s.Settings)}
}

// Problem builds the frozen tuning problem for a density under this scale.
func (s Scale) Problem(density int) *eval.Problem {
	return eval.NewProblem(density, s.Seed, s.EvalOptions()...)
}

// Logf is an optional progress sink; nil discards.
type Logf func(format string, args ...any)

func (l Logf) printf(format string, args ...any) {
	if l != nil {
		l(format, args...)
	}
}

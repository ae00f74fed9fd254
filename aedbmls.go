package aedbmls

import (
	"fmt"
	"time"

	"aedbmls/internal/aedb"
	"aedbmls/internal/core"
	"aedbmls/internal/eval"
)

// Config tunes the AEDB protocol for one network density with AEDB-MLS.
// Zero-valued fields take the paper's defaults (8 populations x 12 workers
// x 250 evaluations, alpha 0.2, reset every 50 iterations, a 100-solution
// AGA archive and a 10-network evaluation committee).
type Config struct {
	// Density is the network density in devices/km^2 (the paper studies
	// 100, 200 and 300; other values scale by the 0.25 km^2 arena).
	Density int
	// Seed drives the frozen network committee and all randomness.
	Seed uint64
	// Populations, Workers and EvalsPerWorker shape the parallel budget.
	Populations, Workers, EvalsPerWorker int
	// Alpha is the BLX-α perturbation magnitude in (0, 1).
	Alpha float64
	// ResetPeriod is the number of local-search iterations between
	// population re-initialisations from the elite archive.
	ResetPeriod int
	// Committee is the number of frozen networks per evaluation.
	Committee int
	// NeighborhoodSize batches the local search: each iteration generates
	// this many candidate moves and evaluates them as one committee wave
	// through the batched evaluation engine. 0 or 1 is the paper's
	// single-candidate step.
	NeighborhoodSize int
	// Settings configures the multi-fidelity ladder of the evaluation
	// engine (see eval.Settings; Tune validates it). With the ladder on,
	// batched neighborhoods are screened on a committee prefix and only
	// candidates within PromoteEps of the reference front are
	// re-evaluated in full; screened-out candidates never enter the
	// archive, so reported fronts remain exact full-committee metrics.
	eval.Settings
	// Deterministic selects the bit-reproducible round-robin execution
	// instead of the threaded one.
	Deterministic bool
}

// ProtocolConfig is one tuned AEDB parameter set together with the
// averaged metrics it achieved on the evaluation committee.
type ProtocolConfig struct {
	// The five AEDB parameters (Table III domains).
	MinDelay           float64 // s
	MaxDelay           float64 // s
	BorderThresholdDBm float64
	MarginDBm          float64
	NeighborsThreshold float64

	// Committee-averaged metrics.
	Energy        float64 // sum of forwarding TX powers, dBm
	Coverage      float64 // devices reached
	Forwardings   float64
	BroadcastTime float64 // s
}

// Result is the outcome of Tune: the Pareto front of protocol
// configurations, ordered by ascending energy.
type Result struct {
	Configs []ProtocolConfig
	// Evaluations is the budget spent, counted as the search's
	// evaluations. A move that reproduces a worker's current
	// configuration bit for bit costs one evaluation but is not
	// simulated again, so fewer committee simulations may have run.
	Evaluations int64
	Duration    time.Duration
}

// Tune runs the paper's parallel multi-objective local search and returns
// the trade-off front of AEDB configurations for the given density:
// minimal energy and forwardings, maximal coverage, broadcast time under
// two seconds. Pick the row matching your deployment priorities.
func Tune(cfg Config) (*Result, error) {
	if cfg.Density <= 0 {
		return nil, fmt.Errorf("aedbmls: Density must be positive, got %d", cfg.Density)
	}
	if err := cfg.Settings.Validate(); err != nil {
		return nil, fmt.Errorf("aedbmls: %w", err)
	}
	mls := core.DefaultConfig()
	if cfg.Populations > 0 {
		mls.Populations = cfg.Populations
	}
	if cfg.Workers > 0 {
		mls.Workers = cfg.Workers
	}
	if cfg.EvalsPerWorker > 0 {
		mls.EvalsPerWorker = cfg.EvalsPerWorker
	}
	if cfg.Alpha > 0 {
		mls.Alpha = cfg.Alpha
	}
	if cfg.ResetPeriod > 0 {
		mls.ResetPeriod = cfg.ResetPeriod
	}
	mls.Seed = cfg.Seed
	mls.Criteria = core.DefaultAEDBCriteria()
	mls.NeighborhoodSize = cfg.NeighborhoodSize

	opts := []eval.Option{eval.WithSettings(cfg.Settings)}
	if cfg.Committee > 0 {
		opts = append(opts, eval.WithCommittee(cfg.Committee))
	}
	problem := eval.NewProblem(cfg.Density, cfg.Seed, opts...)

	optimize := core.Optimize
	if cfg.Deterministic {
		optimize = core.OptimizeSequential
	}
	res, err := optimize(problem, mls, nil)
	if err != nil {
		return nil, err
	}

	out := &Result{Evaluations: res.Evaluations, Duration: res.Duration}
	for _, s := range res.Front {
		p := aedb.FromVector(s.X)
		m, _ := eval.MetricsOf(s)
		out.Configs = append(out.Configs, ProtocolConfig{
			MinDelay:           p.MinDelay,
			MaxDelay:           p.MaxDelay,
			BorderThresholdDBm: p.BorderThresholdDBm,
			MarginDBm:          p.MarginDBm,
			NeighborsThreshold: p.NeighborsThreshold,
			Energy:             m.EnergyDBmSum,
			Coverage:           m.Coverage,
			Forwardings:        m.Forwardings,
			BroadcastTime:      m.BroadcastTime,
		})
	}
	return out, nil
}

// Simulate runs one broadcast dissemination of the given configuration on
// the density's frozen network committee and returns the averaged
// metrics — a quick way to check a configuration without optimising.
func Simulate(density int, seed uint64, pc ProtocolConfig) (ProtocolConfig, error) {
	if density <= 0 {
		return pc, fmt.Errorf("aedbmls: density must be positive, got %d", density)
	}
	problem := eval.NewProblem(density, seed)
	m := problem.Simulate(aedb.Params{
		MinDelay:           pc.MinDelay,
		MaxDelay:           pc.MaxDelay,
		BorderThresholdDBm: pc.BorderThresholdDBm,
		MarginDBm:          pc.MarginDBm,
		NeighborsThreshold: pc.NeighborsThreshold,
	})
	pc.Energy = m.EnergyDBmSum
	pc.Coverage = m.Coverage
	pc.Forwardings = m.Forwardings
	pc.BroadcastTime = m.BroadcastTime
	return pc, nil
}

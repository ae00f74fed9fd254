package eval

import (
	"fmt"

	"aedbmls/internal/aedb"
	"aedbmls/internal/manet"
)

// Counterfactual re-scores one recorded scenario under perturbed AEDB
// parameter vectors without re-simulating its mobility or beaconing: the
// scenario's warm-up is captured once as a snapshot and its neighbor
// dynamics once as a beacon tape, then every Score call replays the tape
// under a fresh protocol population. This is the "what would this
// candidate have done on the exact network the trace recorded" primitive
// behind `aedb-trace counterfactual`: by the snapshot/tape equivalence
// contract (see internal/manet and the golden-corpus wall), the returned
// metrics are bit-identical to a fresh full simulation of the perturbed
// candidate on the same (seed, source) scenario.
//
// Trace hooks in cfg are stripped: a counterfactual is metrics-only, and
// leaking a recorded run's collector into replays would corrupt it.
type Counterfactual struct {
	cfg    manet.Config
	seed   uint64
	source int
	snap   *manet.Snapshot
	tape   *manet.BeaconTape // nil when the config cannot be taped (FastBeacons off)
}

// NewCounterfactual captures the scenario (cfg warmed under seed,
// broadcast from source) for repeated re-scoring. Building pays one
// warm-up simulation plus one tape recording; each Score afterwards
// costs only the broadcast cascade.
func NewCounterfactual(cfg manet.Config, seed uint64, source int) (*Counterfactual, error) {
	cfg.OnDataTx, cfg.OnDataRx, cfg.OnDataLost, cfg.OnDecision = nil, nil, nil, nil
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("eval: counterfactual config: %w", err)
	}
	if source < 0 || source >= cfg.NumNodes {
		return nil, fmt.Errorf("eval: counterfactual source %d outside [0, %d)", source, cfg.NumNodes)
	}
	snap, err := manet.BuildSnapshot(cfg, seed, cfg.WarmupTime)
	if err != nil {
		return nil, fmt.Errorf("eval: counterfactual warm-up: %w", err)
	}
	c := &Counterfactual{cfg: cfg, seed: seed, source: source, snap: snap}
	if cfg.FastBeacons {
		tape, err := snap.RecordBeaconTape(cfg.EndTime)
		if err != nil {
			return nil, fmt.Errorf("eval: counterfactual tape: %w", err)
		}
		c.tape = tape
	}
	return c, nil
}

// Seed returns the recorded scenario seed.
func (c *Counterfactual) Seed() uint64 { return c.seed }

// Source returns the recorded broadcast source node.
func (c *Counterfactual) Source() int { return c.source }

// Score replays the recorded scenario under params and returns its
// single-scenario metrics (one committee term, not an average), stopping
// at broadcast quiescence. Without a tape (accurate beacon contention)
// the restored beacons run live. Safe for concurrent calls: each replay
// instantiates its own network from the shared immutable snapshot and
// tape.
func (c *Counterfactual) Score(params aedb.Params) Metrics {
	net, st := c.snap.InstantiateReplayInto(nil, aedb.New(params), c.source, c.cfg.WarmupTime, c.tape)
	net.RunToQuiescence()
	return scenarioTerm(st, net)
}

// CounterfactualScenario builds the replayer for committee scenario i of
// this problem — the bridge from a tuning study ("candidate X regressed
// on scenario 3") to decision-level forensics.
func (p *Problem) CounterfactualScenario(i int) (*Counterfactual, error) {
	if i < 0 || i >= len(p.scenarios) {
		return nil, fmt.Errorf("eval: scenario %d outside committee [0, %d)", i, len(p.scenarios))
	}
	sc := p.scenarios[i]
	return NewCounterfactual(p.cfg, sc.seed, sc.source)
}

package experiments

import (
	"fmt"
	"strings"

	"aedbmls/internal/aedb"
	"aedbmls/internal/eval"
	"aedbmls/internal/manet"
	"aedbmls/internal/moo"
	"aedbmls/internal/spea2"
	"aedbmls/internal/study"
)

// AlgSPEA2 labels the extension baseline.
const AlgSPEA2 = "SPEA2"

// ExtendedBaselines adds SPEA2 (not part of the paper) to the algorithm
// comparison, checking that the paper's reference front is not an
// artifact of the particular MOEAs chosen: a third, independently
// designed MOEA should land in the same front region. It runs Runs SPEA2
// executions next to the comparison RunSet of one density (CellDE,
// NSGA-II and AEDB-MLS, as Fig. 6/7, Table IV and the timing comparison
// read it) and scores all four algorithms; rs is not modified. The SPEA2
// runs checkpoint and resume under a CheckpointDir as the comparison
// runs do.
func ExtendedBaselines(sc Scale, rs *RunSet, log Logf) (*HVTable, error) {
	problem := sc.Problem(rs.Density)
	var spea [][]*moo.Solution
	for run := 0; run < sc.Runs; run++ {
		res, err := sc.execute(AlgSPEA2, rs.Density, run, func(o study.Options) (*study.Result, error) {
			cfg := spea2.DefaultConfig()
			cfg.PopSize = sc.NSGA.PopSize
			cfg.ArchiveSize = sc.NSGA.PopSize
			cfg.Evaluations = sc.NSGA.Evaluations
			cfg.Seed = sc.Seed + 1000*uint64(run) + 4
			cfg.Options = o
			return spea2.Optimize(problem, cfg)
		})
		if err != nil {
			return nil, err
		}
		spea = append(spea, res.Front)
		log.printf("extended baselines: SPEA2 run %d/%d done", run+1, sc.Runs)
	}

	algs := []string{AlgCellDE, AlgNSGAII, AlgSPEA2, AlgMLS}
	groups := [][][]*moo.Solution{rs.Fronts[AlgCellDE], rs.Fronts[AlgNSGAII], spea, rs.Fronts[AlgMLS]}
	return hvTable("Extension — SPEA2 as a fourth baseline", "algorithm", rs.Density, algs, groups), nil
}

// BeaconFidelityResult compares the default instantaneous-beacon medium
// against full frame-level beacon contention (ablation A4 of the simulator
// substitution, see the per-experiment index in cmd/README.md): the AEDB
// metrics should be close,
// justifying the fast default.
type BeaconFidelityResult struct {
	Density            int
	Fast, Accurate     eval.Metrics
	CoverageDeltaPct   float64
	ForwardingDeltaPct float64
}

// BeaconFidelity runs the same configuration under both beacon models.
func BeaconFidelity(sc Scale, density int, params aedb.Params) (*BeaconFidelityResult, error) {
	fast, err := sc.simulate(density, params, func(*manet.Config) {})
	if err != nil {
		return nil, err
	}
	accurate, _ := sc.simulate(density, params, func(cfg *manet.Config) { cfg.FastBeacons = false }) // density accepted above
	res := &BeaconFidelityResult{Density: density, Fast: fast, Accurate: accurate}
	if res.Accurate.Coverage > 0 {
		res.CoverageDeltaPct = 100 * (res.Fast.Coverage - res.Accurate.Coverage) / res.Accurate.Coverage
	}
	if res.Accurate.Forwardings > 0 {
		res.ForwardingDeltaPct = 100 * (res.Fast.Forwardings - res.Accurate.Forwardings) / res.Accurate.Forwardings
	}
	return res, nil
}

// Render prints the fidelity comparison.
func (r *BeaconFidelityResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation A4 — beacon fidelity, %d devices/km^2\n\n", r.Density)
	b.WriteString(metricsTable("medium", [][]string{metricsRow("fast beacons", r.Fast), metricsRow("frame-level", r.Accurate)}))
	fmt.Fprintf(&b, "\ncoverage delta %.1f%%, forwardings delta %.1f%%\n",
		r.CoverageDeltaPct, r.ForwardingDeltaPct)
	return b.String()
}

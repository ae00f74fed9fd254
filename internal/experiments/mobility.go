package experiments

import (
	"fmt"
	"strings"

	"aedbmls/internal/aedb"
	"aedbmls/internal/eval"
	"aedbmls/internal/geom"
	"aedbmls/internal/manet"
	"aedbmls/internal/mobility"
	"aedbmls/internal/rng"
	"aedbmls/internal/textplot"
)

// MobilityRow is one mobility model's averaged AEDB metrics.
type MobilityRow struct {
	Model   string
	Metrics eval.Metrics
}

// MobilityAblationResult compares the paper's random-walk mobility against
// smoother (Gauss-Markov) and static node placements under one fixed AEDB
// configuration (ablation A6). The broadcast metrics should be in the same
// regime across models — dissemination happens within a ~2 s window, far
// faster than node movement at <= 2 m/s — which justifies evaluating the
// tuned parameters beyond the exact mobility pattern of Table II.
type MobilityAblationResult struct {
	Density int
	Params  aedb.Params
	Rows    []MobilityRow
}

// MobilityAblation runs the committee under each mobility model.
func MobilityAblation(sc Scale, density int, params aedb.Params) (*MobilityAblationResult, error) {
	models := []struct {
		name string
		make func(id int, r *rng.Rand) mobility.Model
	}{
		{"random-walk (paper)", nil}, // nil keeps the manet default
		{"gauss-markov", func(_ int, r *rng.Rand) mobility.Model {
			return mobility.NewGaussMarkov(geom.Square(500), 0.75, 1.0, 1.0, r)
		}},
		{"random-waypoint", func(_ int, r *rng.Rand) mobility.Model {
			return mobility.NewRandomWaypoint(geom.Square(500), 0.1, 2.0, 2.0, r)
		}},
		{"static", func(_ int, r *rng.Rand) mobility.Model {
			return &mobility.Static{P: geom.Vec2{X: r.Range(0, 500), Y: r.Range(0, 500)}}
		}},
	}
	res := &MobilityAblationResult{Density: density, Params: params}
	for _, m := range models {
		metrics, err := sc.simulate(density, params, func(cfg *manet.Config) { cfg.MakeMobility = m.make })
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, MobilityRow{Model: m.name, Metrics: metrics})
	}
	return res, nil
}

// simulate evaluates params on the density's committee under the Table II
// scenario as edit changes it.
func (s Scale) simulate(density int, params aedb.Params, edit func(*manet.Config)) (eval.Metrics, error) {
	nodes, ok := eval.DensityNodes[density]
	if !ok {
		return eval.Metrics{}, fmt.Errorf("experiments: unknown density %d", density)
	}
	cfg := manet.DefaultScenario(nodes)
	edit(&cfg)
	return eval.NewProblem(density, s.Seed, append(s.EvalOptions(), eval.WithConfig(cfg))...).Simulate(params), nil
}

// metricsRow formats one row of a metrics table.
func metricsRow(name string, m eval.Metrics) []string {
	return []string{name, fmt.Sprintf("%.2f", m.Coverage), fmt.Sprintf("%.2f", m.Forwardings),
		fmt.Sprintf("%.2f", m.EnergyDBmSum), fmt.Sprintf("%.3f", m.BroadcastTime)}
}

// metricsTable renders metrics rows under the AEDB metric columns.
func metricsTable(label string, rows [][]string) string {
	return textplot.Table([]string{label, "coverage", "forwardings", "energy(dBm)", "bt(s)"}, rows)
}

// Render prints the comparison.
func (r *MobilityAblationResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation A6 — mobility model, %d devices/km^2\n\n", r.Density)
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, metricsRow(row.Model, row.Metrics))
	}
	b.WriteString(metricsTable("mobility", rows))
	return b.String()
}

package experiments

import (
	"fmt"
	"strings"

	"aedbmls/internal/aedb"
	"aedbmls/internal/eval"
	"aedbmls/internal/fast99"
	"aedbmls/internal/rng"
	"aedbmls/internal/textplot"
)

// SensitivityOutputs are the model outputs analysed in Fig. 2, in the
// paper's panel order.
var SensitivityOutputs = []string{"broadcast_time", "coverage", "forwardings", "energy"}

// SensitivityResult reproduces Fig. 2 (per-output main effects and
// interactions of the five parameters) and Table I (the summary with
// effect directions) for one density.
type SensitivityResult struct {
	Density     int
	Factors     []string
	Outputs     []string
	Indices     []fast99.Result // per output
	Directions  [][]int         // per output, per factor: -1/0/+1
	Evaluations int64
}

// Sensitivity runs the extended-FAST analysis of Sect. III-B on one
// density, over the wide sensitivity domain of the paper.
func Sensitivity(sc Scale, density int, log Logf) (*SensitivityResult, error) {
	problem := eval.NewProblem(density, sc.Seed,
		append(sc.EvalOptions(), eval.WithDomain(aedb.SensitivityDomain()))...)
	lo, hi := problem.Bounds()

	model := func(x []float64) []float64 {
		m := problem.Simulate(aedb.FromVector(x))
		return []float64{m.BroadcastTime, m.Coverage, m.Forwardings, m.EnergyDBmSum}
	}
	log.printf("sensitivity: density %d, N=%d per factor (%d evaluations total)",
		density, sc.SensitivityN, sc.SensitivityN*len(lo))
	indices, err := fast99.Analyze(model, lo, hi, fast99.Config{N: sc.SensitivityN, M: 4})
	if err != nil {
		return nil, fmt.Errorf("experiments: sensitivity: %w", err)
	}
	directions := fast99.EffectDirection(model, lo, hi, min(sc.SensitivityN, 200), rng.New(sc.Seed+7))

	return &SensitivityResult{
		Density:     density,
		Factors:     append([]string(nil), aedb.ParamNames[:]...),
		Outputs:     SensitivityOutputs,
		Indices:     indices,
		Directions:  directions,
		Evaluations: problem.Evaluations(),
	}, nil
}

// RenderFigure2 renders the four panels of Fig. 2 as stacked bar charts
// (main effect '#', interactions '+').
func (r *SensitivityResult) RenderFigure2() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 2 — parameter influence (Fast99), %d devices/km^2\n\n", r.Density)
	for o, out := range r.Outputs {
		fmt.Fprintf(&b, "(%c) Influence on %s\n", 'a'+o, out)
		b.WriteString(textplot.StackedBar(r.Factors, r.Indices[o].Main, r.Indices[o].Interactions(), 50))
		b.WriteByte('\n')
	}
	return b.String()
}

// Render prints Fig. 2 and Table I.
func (r *SensitivityResult) Render() string {
	return r.RenderFigure2() + "\n" + r.RenderTableI() + "\n"
}

// magnitudeLabel maps a first-order (main-effect) index to the paper's
// qualitative vocabulary (Table I summarises the main effects of Fig. 2).
func magnitudeLabel(main float64) string {
	switch {
	case main >= 0.25:
		return "yes"
	case main >= 0.10:
		return "few"
	case main >= 0.02:
		return "very few"
	default:
		return "no"
	}
}

func directionSymbol(d int) string {
	switch {
	case d > 0:
		return "up"
	case d < 0:
		return "down"
	default:
		return "-"
	}
}

// RenderTableI renders the sensitivity summary in the shape of Table I:
// one row per parameter, one column per objective, cells carrying the
// effect direction (up = objective grows with the parameter) and the
// influence magnitude.
func (r *SensitivityResult) RenderTableI() string {
	header := append([]string{"parameter"}, "coverage", "forwardings", "energy used", "broadcast time")
	// Output order in the result: bt, coverage, forwardings, energy.
	order := []int{1, 2, 3, 0}
	rows := make([][]string, len(r.Factors))
	for f := range r.Factors {
		row := []string{r.Factors[f]}
		for _, o := range order {
			cell := fmt.Sprintf("%s %s", directionSymbol(r.Directions[o][f]),
				magnitudeLabel(r.Indices[o].Main[f]))
			row = append(row, cell)
		}
		rows[f] = row
	}
	return "Table I — summary of the parameter sensitivity analysis\n" +
		"(direction: effect of increasing the parameter on the metric; magnitude from total-order index)\n\n" +
		textplot.Table(header, rows)
}

// MostInfluential returns, for output o, the factor with the largest
// total-order index (used by tests asserting the paper's qualitative
// findings, e.g. that the delays dominate the broadcast time).
func (r *SensitivityResult) MostInfluential(output string) (string, float64) {
	for o, name := range r.Outputs {
		if name != output {
			continue
		}
		best, bestV := 0, -1.0
		for f, v := range r.Indices[o].Total {
			if v > bestV {
				best, bestV = f, v
			}
		}
		return r.Factors[best], bestV
	}
	return "", 0
}

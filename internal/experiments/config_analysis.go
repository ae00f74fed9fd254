package experiments

import (
	"fmt"
	"strings"

	"aedbmls/internal/core"
	"aedbmls/internal/moo"
	"aedbmls/internal/textplot"
)

// ConfigCell is one (alpha, reset) combination of the Sect. V parameter
// study, scored by median hypervolume over the repetitions.
type ConfigCell struct {
	Alpha    float64
	Reset    int
	MedianHV float64
	HVs      []float64
}

// ConfigAnalysisResult reproduces the Sect. V configuration analysis:
// alpha in {0.1, 0.2, 0.3} x reset in {15, 25, 50} on the sparsest
// network; the paper selects alpha = 0.2, reset = 50.
type ConfigAnalysisResult struct {
	Density int
	Cells   []ConfigCell
	Best    ConfigCell
}

// ConfigAnalysis sweeps the candidate values of the BLX-α magnitude and
// the reset period, running sc.Runs MLS executions per combination on the
// least dense network and comparing median hypervolume against the
// combined reference of the sweep.
func ConfigAnalysis(sc Scale, log Logf) (*ConfigAnalysisResult, error) {
	alphas := []float64{0.1, 0.2, 0.3}
	resets := []int{15, 25, 50}
	density := sc.Densities[0]
	problem := sc.Problem(density)

	var cells []ConfigCell
	var fronts [][][]*moo.Solution
	for _, alpha := range alphas {
		for _, reset := range resets {
			ci := len(cells)
			cells = append(cells, ConfigCell{Alpha: alpha, Reset: reset})
			fronts = append(fronts, nil)
			for run := 0; run < sc.Runs; run++ {
				cfg := sc.mlsConfig(sc.Seed + uint64(1000*run) + uint64(ci))
				cfg.Alpha = alpha
				// The reset candidates are defined against the paper's
				// 250-iteration budget; scale proportionally so reduced
				// budgets still reset a comparable number of times.
				cfg.ResetPeriod = scaleReset(reset, cfg.EvalsPerWorker)
				res, err := core.Optimize(problem, cfg, nil)
				if err != nil {
					return nil, fmt.Errorf("experiments: config analysis: %w", err)
				}
				if res.Interrupted {
					return nil, interruptedErr(fmt.Sprintf("config analysis (alpha=%.1f reset=%d)", alpha, reset), density, run)
				}
				fronts[ci] = append(fronts[ci], res.Front)
			}
			log.printf("config analysis: alpha=%.1f reset=%d done", alpha, reset)
		}
	}

	hvs, medians := medianHV(fronts...)
	res := &ConfigAnalysisResult{Density: density, Cells: cells}
	for i := range cells {
		cells[i].HVs, cells[i].MedianHV = hvs[i], medians[i]
		if cells[i].MedianHV > res.Best.MedianHV {
			res.Best = cells[i]
		}
	}
	return res, nil
}

// scaleReset maps a paper-scale reset period (out of 250 iterations per
// worker) onto the current per-worker budget, keeping at least 2.
func scaleReset(reset, evalsPerWorker int) int {
	return max(reset*evalsPerWorker/250, 2)
}

// Render prints the sweep as a table.
func (r *ConfigAnalysisResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Section V configuration analysis — %d devices/km^2\n\n", r.Density)
	header := []string{"alpha", "reset", "median HV"}
	var rows [][]string
	for _, c := range r.Cells {
		rows = append(rows, []string{
			fmt.Sprintf("%.1f", c.Alpha), fmt.Sprintf("%d", c.Reset), fmt.Sprintf("%.4f", c.MedianHV),
		})
	}
	b.WriteString(textplot.Table(header, rows))
	fmt.Fprintf(&b, "\nselected: alpha=%.1f, reset=%d (paper selected alpha=0.2, reset=50)\n",
		r.Best.Alpha, r.Best.Reset)
	return b.String()
}

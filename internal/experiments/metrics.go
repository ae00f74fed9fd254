package experiments

import (
	"fmt"
	"strings"

	"aedbmls/internal/archive"
	"aedbmls/internal/indicators"
	"aedbmls/internal/moo"
	"aedbmls/internal/stats"
	"aedbmls/internal/textplot"
)

// MetricNames are the three indicators of the paper, in Table IV order.
var MetricNames = []string{"spread", "igd", "hypervolume"}

// MetricsResult reproduces the indicator study for one density: for each
// algorithm, the 30-run samples of spread, IGD and hypervolume computed
// against the combined reference front after normalisation (the paper's
// protocol), feeding Table IV and Fig. 7.
type MetricsResult struct {
	Density int
	// Samples[metric][alg] is the per-run indicator sample.
	Samples map[string]map[string][]float64
	// RefSize is the size of the combined normalisation front.
	RefSize int
}

// ComputeMetrics derives the indicator samples from a RunSet. The
// reference front merges the best solutions of all three algorithms over
// all runs (the paper's "approximation of the true Pareto front").
func ComputeMetrics(rs *RunSet) *MetricsResult {
	ref := archive.NewUnbounded()
	for _, alg := range Algorithms {
		for _, front := range rs.Fronts[alg] {
			archive.AddAll(ref, front)
		}
	}
	refPts := ObjectivePoints(ref.Contents())
	norm := indicators.NewNormalizer(refPts)
	refN := norm.Apply(refPts)
	refPoint := []float64{1.1, 1.1, 1.1}

	res := &MetricsResult{
		Density: rs.Density,
		Samples: make(map[string]map[string][]float64),
		RefSize: len(refPts),
	}
	for _, m := range MetricNames {
		res.Samples[m] = make(map[string][]float64)
	}
	for _, alg := range Algorithms {
		for _, front := range rs.Fronts[alg] {
			pts := norm.Apply(ObjectivePoints(front))
			res.Samples["spread"][alg] = append(res.Samples["spread"][alg], indicators.Spread(pts, refN))
			res.Samples["igd"][alg] = append(res.Samples["igd"][alg], indicators.IGD(pts, refN))
			res.Samples["hypervolume"][alg] = append(res.Samples["hypervolume"][alg], indicators.Hypervolume(pts, refPoint))
		}
	}
	return res
}

// PairwiseCell compares algorithm a against b on a metric with the
// Wilcoxon rank-sum test at 95% confidence, returning the paper's
// triangle notation: "win" if a is significantly better, "loss" if worse,
// "-" otherwise.
func (m *MetricsResult) PairwiseCell(metric, a, b string) string {
	w := stats.Wilcoxon(m.Samples[metric][a], m.Samples[metric][b])
	if !w.Significant(0.05) {
		return "-"
	}
	// Spread and IGD are minimised, hypervolume maximised.
	aBetter := w.Direction < 0
	if metric == "hypervolume" {
		aBetter = w.Direction > 0
	}
	if aBetter {
		return "win"
	}
	return "loss"
}

// RenderTableIV renders the pairwise Wilcoxon comparison across densities
// in the layout of Table IV: for each metric, rows CellDE and NSGAII
// against columns NSGAII and AEDB-MLS, each cell holding one symbol per
// density ('^' row wins, 'v' row loses, '-' not significant).
func RenderTableIV(results []*MetricsResult) string {
	symbol := map[string]string{"win": "^", "loss": "v", "-": "-"}
	var b strings.Builder
	b.WriteString("Table IV — pairwise Wilcoxon rank-sum comparison (95% confidence)\n")
	b.WriteString("(one symbol per density, in ascending density order; '^' row better than column, 'v' worse, '-' no significance)\n\n")
	for _, metric := range MetricNames {
		fmt.Fprintf(&b, "%s:\n", metric)
		header := []string{"", AlgNSGAII, AlgMLS}
		var rows [][]string
		for _, rowAlg := range []string{AlgCellDE, AlgNSGAII} {
			row := []string{rowAlg}
			for _, colAlg := range []string{AlgNSGAII, AlgMLS} {
				if rowAlg == colAlg {
					row = append(row, "")
					continue
				}
				var cell strings.Builder
				for _, r := range results {
					cell.WriteString(symbol[r.PairwiseCell(metric, rowAlg, colAlg)])
				}
				row = append(row, cell.String())
			}
			rows = append(rows, row)
		}
		b.WriteString(textplot.Table(header, rows))
		b.WriteByte('\n')
	}
	return b.String()
}

// RenderFigure7 renders the boxplot panels of Fig. 7 for this density:
// one row per algorithm per metric.
func (m *MetricsResult) RenderFigure7() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 7 — indicator distributions, %d devices/km^2 (normalised against a %d-point reference)\n\n",
		m.Density, m.RefSize)
	for _, metric := range MetricNames {
		fmt.Fprintf(&b, "(%s)\n", metric)
		lo, hi := boxRange(m.Samples[metric])
		for _, alg := range Algorithms {
			bp := stats.NewBoxplot(m.Samples[metric][alg])
			b.WriteString(textplot.BoxRow(alg,
				[5]float64{bp.WhiskerLo, bp.Q1, bp.Median, bp.Q3, bp.WhiskerHi}, lo, hi, 48))
			b.WriteByte('\n')
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func boxRange(samples map[string][]float64) (lo, hi float64) {
	first := true
	for _, xs := range samples {
		for _, v := range xs {
			if first || v < lo {
				lo = v
			}
			if first || v > hi {
				hi = v
			}
			first = false
		}
	}
	if first {
		return 0, 1
	}
	if hi == lo {
		hi = lo + 1
	}
	return lo, hi
}

// medianHV unions every front of every group into one reference front,
// scores each front by its normalised hypervolume against it, and returns
// the per-front scores and the median of each group.
func medianHV(groups ...[][]*moo.Solution) (hvs [][]float64, medians []float64) {
	all := archive.NewUnbounded()
	for _, fronts := range groups {
		for _, f := range fronts {
			archive.AddAll(all, f)
		}
	}
	ref := ObjectivePoints(all.Contents())
	hvs = make([][]float64, len(groups))
	medians = make([]float64, len(groups))
	for g, fronts := range groups {
		for _, f := range fronts {
			hvs[g] = append(hvs[g], indicators.HypervolumeNormalized(ObjectivePoints(f), ref))
		}
		medians[g] = stats.Median(hvs[g])
	}
	return hvs, medians
}

// HVTable scores groups of fronts (archive policies in A1, algorithms in
// A5) by median normalised hypervolume against the union of all of them
// and by mean front size.
type HVTable struct {
	Title   string
	Label   string // header of the name column
	Density int
	Rows    []HVRow
}

// HVRow is one group of an HVTable.
type HVRow struct {
	Name      string
	MedianHV  float64
	FrontSize float64
}

func hvTable(title, label string, density int, names []string, groups [][][]*moo.Solution) *HVTable {
	_, medians := medianHV(groups...)
	t := &HVTable{Title: title, Label: label, Density: density}
	for g, fronts := range groups {
		var sizes []float64
		for _, f := range fronts {
			sizes = append(sizes, float64(len(f)))
		}
		t.Rows = append(t.Rows, HVRow{Name: names[g], MedianHV: medians[g], FrontSize: stats.Mean(sizes)})
	}
	return t
}

// Render prints the table.
func (t *HVTable) Render() string {
	var rows [][]string
	for _, r := range t.Rows {
		rows = append(rows, []string{r.Name, fmt.Sprintf("%.4f", r.MedianHV), fmt.Sprintf("%.1f", r.FrontSize)})
	}
	return fmt.Sprintf("%s, %d devices/km^2\n\n", t.Title, t.Density) +
		textplot.Table([]string{t.Label, "median HV", "mean front size"}, rows)
}

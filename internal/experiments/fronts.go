package experiments

import (
	"fmt"
	"strings"

	"aedbmls/internal/archive"
	"aedbmls/internal/moo"
	"aedbmls/internal/textplot"
)

// FrontsResult reproduces Fig. 6 for one density: the Reference Pareto
// front approximation (best CellDE + NSGA-II solutions over all runs,
// merged through AGA, as in the paper) against the AEDB-MLS approximation
// (best MLS solutions over all runs, AGA-merged), plus the
// mutual-domination counts reported in Sect. VI.
type FrontsResult struct {
	Density   int
	Reference []*moo.Solution
	MLS       []*moo.Solution
	// RefDominatedByMLS counts reference solutions dominated by at least
	// one MLS solution (paper: 13 / 11 / 15 for the three densities).
	RefDominatedByMLS int
	// RefDominatingMLS counts reference solutions that dominate at least
	// one MLS solution (paper: 54 / 40 / 17).
	RefDominatingMLS int
}

// BuildFronts derives the Fig. 6 artifact from a RunSet, merging run
// fronts with an AGA archive of the given capacity (the paper uses the
// same AGA method and a 100-solution limit).
func BuildFronts(rs *RunSet, capacity int) *FrontsResult {
	ref := archive.NewAGA(capacity, 8)
	for _, alg := range []string{AlgCellDE, AlgNSGAII} {
		for _, front := range rs.Fronts[alg] {
			archive.AddAll(ref, front)
		}
	}
	mls := archive.NewAGA(capacity, 8)
	for _, front := range rs.Fronts[AlgMLS] {
		archive.AddAll(mls, front)
	}
	res := &FrontsResult{
		Density:   rs.Density,
		Reference: ref.Contents(),
		MLS:       mls.Contents(),
	}
	archive.SortByObjective(res.Reference, 0)
	archive.SortByObjective(res.MLS, 0)
	for _, r := range res.Reference {
		dominated, dominating := false, false
		for _, m := range res.MLS {
			if moo.Dominates(m, r) {
				dominated = true
			}
			if moo.Dominates(r, m) {
				dominating = true
			}
		}
		if dominated {
			res.RefDominatedByMLS++
		}
		if dominating {
			res.RefDominatingMLS++
		}
	}
	return res
}

// RenderFigure6 renders the three pairwise projections of the 3-D fronts
// ('o' reference, '*' AEDB-MLS), in paper units.
func (r *FrontsResult) RenderFigure6() string {
	refPts := FrontPoints(r.Reference)
	mlsPts := FrontPoints(r.MLS)
	proj := func(pts [][]float64, i, j int) [][2]float64 {
		out := make([][2]float64, len(pts))
		for k, p := range pts {
			out[k] = [2]float64{p[i], p[j]}
		}
		return out
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 6 — Pareto front approximations, %d devices/km^2\n", r.Density)
	fmt.Fprintf(&b, "reference ('o', CellDE+NSGA-II best of runs): %d solutions; AEDB-MLS ('*'): %d solutions\n\n",
		len(r.Reference), len(r.MLS))
	axes := [][3]any{
		{0, 1, "coverage vs energy"},
		{1, 2, "forwardings vs coverage"},
		{0, 2, "forwardings vs energy"},
	}
	names := []string{"energy", "coverage", "forwardings"}
	for _, ax := range axes {
		i, j := ax[0].(int), ax[1].(int)
		b.WriteString(textplot.Scatter(
			[][][2]float64{proj(refPts, i, j), proj(mlsPts, i, j)},
			[]rune{'o', '*'}, 64, 14, names[i], names[j]))
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "mutual domination: AEDB-MLS dominates %d reference solutions; %d reference solutions dominate MLS solutions\n",
		r.RefDominatedByMLS, r.RefDominatingMLS)
	return b.String()
}

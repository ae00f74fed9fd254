package eval_test

import (
	"testing"

	"aedbmls/internal/aedb"
	"aedbmls/internal/core"
	"aedbmls/internal/eval"
	"aedbmls/internal/operators"
	"aedbmls/internal/rng"
)

// sweepNeighborhood is the MLS-style neighborhood of the root package's
// batch benchmarks (batchNeighborhood in bench_test.go): BLX-alpha
// perturbations of a mid-domain configuration towards feasible anchors,
// drawn from the same stream so the sweep rows stay comparable across
// BENCH files.
func sweepNeighborhood(n int) [][]float64 {
	r := rng.New(7)
	lo, hi := aedb.DefaultDomain().Bounds()
	base := aedb.Params{MinDelay: 0.1, MaxDelay: 0.5, BorderThresholdDBm: -80, MarginDBm: 1, NeighborsThreshold: 10}.Vector()
	anchors := [][]float64{
		{0.05, 0.30, -88, 0.5, 5},
		{0.15, 0.60, -82, 1.5, 20},
		{0.02, 0.45, -76, 2.5, 40},
	}
	criteria := core.DefaultAEDBCriteria()
	xs := make([][]float64, n)
	for i := range xs {
		a, b := anchors[r.Intn(len(anchors))], anchors[r.Intn(len(anchors))]
		u := r.Float64()
		ref := make([]float64, len(base))
		for k := range ref {
			ref[k] = a[k] + u*(b[k]-a[k])
		}
		crit := criteria[r.Intn(len(criteria))]
		xs[i] = operators.PerturbBLX(base, ref, crit.Params, 0.2, lo, hi, r)
	}
	return xs
}

// BenchmarkMultiProblemSweep measures the many-Problems workload the
// process-wide caches target (an experiments.Scale density sweep, a
// sensitivity run, a service building a Problem per request): each
// iteration constructs FRESH Problems for all three paper densities from
// one committee seed and evaluates a small neighborhood on each, so
// per-Problem setup — warm-up simulation and beacon-tape recording —
// dominates unless the process-wide caches amortise it across Problems
// and densities. The unshared variant opts out of both caches and pays
// the full per-Problem rebuild.
func BenchmarkMultiProblemSweep(b *testing.B) {
	xs := sweepNeighborhood(8)
	for _, shared := range []bool{true, false} {
		name := "shared"
		var opts []eval.Option
		if !shared {
			name = "unshared"
			opts = []eval.Option{eval.WithoutSharedCaches}
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, density := range []int{100, 200, 300} {
					p := eval.NewProblem(density, 1, opts...)
					p.EvaluateBatch(xs)
				}
			}
		})
	}
}

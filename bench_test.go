// Benchmarks regenerating every table and figure of the paper at reduced
// scale (see DESIGN.md's per-experiment index; cmd/aedb-experiments runs
// the same code at full scale). Each benchmark iteration executes one
// complete experiment unit, so ns/op measures end-to-end artifact cost.
//
// Run with:
//
//	go test -bench=. -benchmem
package aedbmls_test

import (
	"runtime"
	"testing"

	"aedbmls/internal/aedb"
	"aedbmls/internal/archive"
	"aedbmls/internal/cellde"
	"aedbmls/internal/core"
	"aedbmls/internal/eval"
	"aedbmls/internal/experiments"
	"aedbmls/internal/manet"
	"aedbmls/internal/moo"
	"aedbmls/internal/nsga2"
	"aedbmls/internal/operators"
	"aedbmls/internal/rng"
)

// referenceParams is a mid-domain AEDB configuration used by the
// simulation micro-benchmarks.
var referenceParams = aedb.Params{
	MinDelay: 0.1, MaxDelay: 0.5,
	BorderThresholdDBm: -80, MarginDBm: 1, NeighborsThreshold: 10,
}

// BenchmarkTableII_Simulation measures one full 40 s network simulation
// under the Table II scenario, per density (E1).
func BenchmarkTableII_Simulation(b *testing.B) {
	for _, density := range []int{100, 200, 300} {
		nodes := eval.DensityNodes[density]
		b.Run(benchName(density), func(b *testing.B) {
			cfg := manet.DefaultScenario(nodes)
			for i := 0; i < b.N; i++ {
				net, err := manet.New(cfg, uint64(i+1), aedb.New(referenceParams))
				if err != nil {
					b.Fatal(err)
				}
				net.StartBroadcast(0, cfg.WarmupTime)
				net.Run()
			}
		})
	}
}

// BenchmarkEvaluation measures one committee evaluation (10 networks),
// the unit of cost every optimiser pays (E1/E6 substrate).
func BenchmarkEvaluation(b *testing.B) {
	for _, density := range []int{100, 200, 300} {
		b.Run(benchName(density), func(b *testing.B) {
			p := eval.NewProblem(density, 1)
			x := referenceParams.Vector()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.Evaluate(x)
			}
		})
	}
}

// batchNeighborhood builds the 64-candidate MLS-style neighborhood the
// batch benchmarks stream: BLX-alpha perturbations of referenceParams
// along the paper's search criteria, with references interpolated among
// feasible population-like anchors — the workload a worker's batched step
// actually produces (population members are feasible, so their delays sit
// well under the 2 s broadcast budget).
func batchNeighborhood(n int) [][]float64 {
	r := rng.New(7)
	lo, hi := aedb.DefaultDomain().Bounds()
	base := referenceParams.Vector()
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

// BenchmarkEvaluateBatch measures one batched evaluation of a 64-vector
// neighborhood (the unit of the MLS batched step and of a MOEA offspring
// generation). Compare against 64x BenchmarkEvaluation ns/op — or
// directly against BenchmarkEvaluateSerial64 — for the batch speedup
// recorded in BENCH_PR2.json.
func BenchmarkEvaluateBatch(b *testing.B) {
	xs := batchNeighborhood(64)
	for _, density := range []int{100, 200, 300} {
		b.Run(benchName(density), func(b *testing.B) {
			p := eval.NewProblem(density, 1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.EvaluateBatch(xs)
			}
		})
	}
}

// BenchmarkEvaluateBatchReference runs the same 64-vector neighborhood
// through the full-tail reference engine — the paired slow arm of the CI
// smoke gate (scripts/bench.sh --smoke): because both arms run in one
// process on one machine, their ratio is robust to runner speed where an
// absolute ns/op baseline is not.
func BenchmarkEvaluateBatchReference(b *testing.B) {
	xs := batchNeighborhood(64)
	for _, density := range []int{100, 200, 300} {
		b.Run(benchName(density), func(b *testing.B) {
			p := eval.NewProblem(density, 1, eval.WithReferencePath(true))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.EvaluateBatch(xs)
			}
		})
	}
}

// BenchmarkEvaluateSerial64 is the serial baseline of the batch speedup:
// the same 64-vector neighborhood through 64 Evaluate calls.
func BenchmarkEvaluateSerial64(b *testing.B) {
	xs := batchNeighborhood(64)
	for _, density := range []int{100, 200, 300} {
		b.Run(benchName(density), func(b *testing.B) {
			p := eval.NewProblem(density, 1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, x := range xs {
					p.Evaluate(x)
				}
			}
		})
	}
}

// BenchmarkEvaluationParallelCommittee measures one committee evaluation
// with the committee fanned across GOMAXPROCS scenario workers — the
// single-evaluation latency knob. On a single-core host it degenerates
// to the serial path plus scheduling overhead.
func BenchmarkEvaluationParallelCommittee(b *testing.B) {
	workers := runtime.GOMAXPROCS(0)
	for _, density := range []int{100, 200, 300} {
		b.Run(benchName(density), func(b *testing.B) {
			p := eval.NewProblem(density, 1, eval.WithSettings(eval.Settings{ScenarioWorkers: workers}))
			x := referenceParams.Vector()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.Evaluate(x)
			}
		})
	}
}

// BenchmarkFigure2_Sensitivity regenerates one Fig. 2 panel set (E3): a
// Fast99 analysis at the minimum valid sample count.
func BenchmarkFigure2_Sensitivity(b *testing.B) {
	sc := experiments.TinyScale()
	sc.Committee = 2
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Sensitivity(sc, 100, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTableI_SensitivitySummary renders Table I from a cached
// analysis, measuring the summary path (E4).
func BenchmarkTableI_SensitivitySummary(b *testing.B) {
	sc := experiments.TinyScale()
	sc.Committee = 2
	res, err := experiments.Sensitivity(sc, 100, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := res.RenderTableI(); len(out) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkFigure6_Fronts regenerates the Fig. 6 artifact (three-algorithm
// runs, AGA merge, dominance counts) at tiny scale (E6/E9).
func BenchmarkFigure6_Fronts(b *testing.B) {
	sc := experiments.TinyScale()
	sc.Runs = 1
	for i := 0; i < b.N; i++ {
		rs, err := experiments.RunAll(sc, 100, nil)
		if err != nil {
			b.Fatal(err)
		}
		fr := experiments.BuildFronts(rs, 100)
		if len(fr.Reference) == 0 {
			b.Fatal("empty reference front")
		}
	}
}

// BenchmarkTableIV_Wilcoxon measures the indicator + Wilcoxon pipeline on
// a fixed RunSet (E7).
func BenchmarkTableIV_Wilcoxon(b *testing.B) {
	sc := experiments.TinyScale()
	rs, err := experiments.RunAll(sc, 100, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mr := experiments.ComputeMetrics(rs)
		if out := experiments.RenderTableIV([]*experiments.MetricsResult{mr}); len(out) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkFigure7_Boxplots measures the boxplot rendering path (E8).
func BenchmarkFigure7_Boxplots(b *testing.B) {
	sc := experiments.TinyScale()
	rs, err := experiments.RunAll(sc, 100, nil)
	if err != nil {
		b.Fatal(err)
	}
	mr := experiments.ComputeMetrics(rs)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := mr.RenderFigure7(); len(out) == 0 {
			b.Fatal("empty figure")
		}
	}
}

// BenchmarkSectionV_ConfigAnalysis runs the alpha x reset sweep (E5) at
// minimum scale.
func BenchmarkSectionV_ConfigAnalysis(b *testing.B) {
	sc := experiments.TinyScale()
	sc.Runs = 1
	sc.Committee = 2
	for i := 0; i < b.N; i++ {
		if _, err := experiments.ConfigAnalysis(sc, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTiming_MLSvsMOEA regenerates the execution-time comparison
// (E10): one run of each algorithm at proportional budgets.
func BenchmarkTiming_MLSvsMOEA(b *testing.B) {
	sc := experiments.TinyScale()
	sc.Runs = 1
	for i := 0; i < b.N; i++ {
		rs, err := experiments.RunAll(sc, 100, nil)
		if err != nil {
			b.Fatal(err)
		}
		tr := experiments.ComputeTiming(sc, rs)
		if tr.EvalRatio <= 0 {
			b.Fatal("degenerate timing")
		}
	}
}

// BenchmarkAblation_Archive compares archive policies inside AEDB-MLS (A1).
func BenchmarkAblation_Archive(b *testing.B) {
	p := eval.NewProblem(100, 1, eval.WithCommittee(2))
	cfg := core.TestConfig()
	cfg.Criteria = core.DefaultAEDBCriteria()
	policies := map[string]func() archive.Interface{
		"aga":       func() archive.Interface { return archive.NewAGA(100, 8) },
		"crowding":  func() archive.Interface { return archive.NewCrowding(100) },
		"unbounded": func() archive.Interface { return archive.NewUnbounded() },
	}
	for name, mk := range policies {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg.Seed = uint64(i + 1)
				if _, err := core.Optimize(p, cfg, mk()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblation_Parallelism sweeps worker layouts at a fixed budget
// (A2), exposing the scaling behind the paper's 38x speedup claim.
func BenchmarkAblation_Parallelism(b *testing.B) {
	p := eval.NewProblem(100, 1, eval.WithCommittee(2))
	layouts := [][2]int{{1, 1}, {1, 2}, {2, 2}, {2, 4}}
	const total = 96
	for _, layout := range layouts {
		pops, workers := layout[0], layout[1]
		b.Run(benchName(pops*100+workers), func(b *testing.B) {
			cfg := core.TestConfig()
			cfg.Populations = pops
			cfg.Workers = workers
			cfg.EvalsPerWorker = total / (pops * workers)
			cfg.Criteria = core.DefaultAEDBCriteria()
			for i := 0; i < b.N; i++ {
				cfg.Seed = uint64(i + 1)
				if _, err := core.Optimize(p, cfg, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFutureWork_MemeticCellDE compares plain vs memetic CellDE (A3).
func BenchmarkFutureWork_MemeticCellDE(b *testing.B) {
	p := eval.NewProblem(100, 1, eval.WithCommittee(2))
	for _, memetic := range []bool{false, true} {
		name := "plain"
		cfg := cellde.TestConfig()
		if memetic {
			name = "memetic"
			cfg = cellde.Memetic(cfg, 2, 0.2, core.DefaultAEDBCriteria())
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg.Seed = uint64(i + 1)
				if _, err := cellde.Optimize(p, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblation_BeaconFidelity compares the fast and frame-level
// beacon media (A4).
func BenchmarkAblation_BeaconFidelity(b *testing.B) {
	sc := experiments.TinyScale()
	sc.Committee = 2
	for i := 0; i < b.N; i++ {
		if _, err := experiments.BeaconFidelity(sc, 100, referenceParams); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblation_Mobility compares mobility models under one tuned
// configuration (A6).
func BenchmarkAblation_Mobility(b *testing.B) {
	sc := experiments.TinyScale()
	sc.Committee = 2
	for i := 0; i < b.N; i++ {
		if _, err := experiments.MobilityAblation(sc, 100, referenceParams); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtension_SPEA2 runs the four-way baseline comparison (A5).
func BenchmarkExtension_SPEA2(b *testing.B) {
	sc := experiments.TinyScale()
	sc.Runs = 1
	sc.Committee = 2
	for i := 0; i < b.N; i++ {
		if _, err := experiments.ExtendedBaselines(sc, 100, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMLS_SequentialVsParallel contrasts the deterministic
// round-robin execution with the threaded one at the same budget; the
// ratio is the machine's effective parallel speedup for the MLS workload.
func BenchmarkMLS_SequentialVsParallel(b *testing.B) {
	p := eval.NewProblem(100, 1, eval.WithCommittee(2))
	cfg := core.TestConfig()
	cfg.Populations = 2
	cfg.Workers = 2
	cfg.EvalsPerWorker = 25
	cfg.Criteria = core.DefaultAEDBCriteria()
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cfg.Seed = uint64(i + 1)
			if _, err := core.OptimizeSequential(p, cfg, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("parallel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cfg.Seed = uint64(i + 1)
			if _, err := core.Optimize(p, cfg, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAlgorithms measures the three optimisers on a cheap synthetic
// problem, isolating algorithm overhead from simulation cost.
func BenchmarkAlgorithms(b *testing.B) {
	p := syntheticProblem{}
	b.Run("mls", func(b *testing.B) {
		cfg := core.TestConfig()
		cfg.EvalsPerWorker = 100
		for i := 0; i < b.N; i++ {
			cfg.Seed = uint64(i + 1)
			if _, err := core.Optimize(p, cfg, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("nsga2", func(b *testing.B) {
		cfg := nsga2.TestConfig()
		cfg.Evaluations = 600
		for i := 0; i < b.N; i++ {
			cfg.Seed = uint64(i + 1)
			if _, err := nsga2.Optimize(p, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cellde", func(b *testing.B) {
		cfg := cellde.TestConfig()
		cfg.Evaluations = 600
		for i := 0; i < b.N; i++ {
			cfg.Seed = uint64(i + 1)
			if _, err := cellde.Optimize(p, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkArchiveAdd measures AGA insertion pressure.
func BenchmarkArchiveAdd(b *testing.B) {
	r := rng.New(1)
	ar := archive.NewAGA(100, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x := r.Float64()
		ar.Add(&moo.Solution{X: []float64{x}, F: []float64{x, 1 - x, r.Float64()}})
	}
}

// BenchmarkPerturbBLX measures the MLS move operator.
func BenchmarkPerturbBLX(b *testing.B) {
	r := rng.New(1)
	lo, hi := aedb.DefaultDomain().Bounds()
	x := operators.RandomVector(lo, hi, r)
	t := operators.RandomVector(lo, hi, r)
	idx := []int{2, 4}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		operators.PerturbBLX(x, t, idx, 0.2, lo, hi, r)
	}
}

// syntheticProblem is a trivial 5-variable tri-objective problem for
// algorithm-overhead benchmarks.
type syntheticProblem struct{}

func (syntheticProblem) Name() string       { return "synthetic" }
func (syntheticProblem) Dim() int           { return 5 }
func (syntheticProblem) NumObjectives() int { return 3 }
func (syntheticProblem) Bounds() (lo, hi []float64) {
	return []float64{0, 0, 0, 0, 0}, []float64{1, 1, 1, 1, 1}
}
func (syntheticProblem) Evaluate(x []float64) (f []float64, violation float64, aux any) {
	s := x[2] + x[3] + x[4]
	return []float64{x[0] + s, x[1] + s, (1 - x[0]) + (1 - x[1]) + s}, 0, nil
}

func benchName(v int) string {
	const digits = "0123456789"
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = digits[v%10]
		v /= 10
	}
	return string(buf[i:])
}

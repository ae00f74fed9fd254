package core

import (
	"math"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"aedbmls/internal/archive"
	"aedbmls/internal/benchproblems"
	"aedbmls/internal/moo"
	"aedbmls/internal/rng"
	"aedbmls/internal/study"
)

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := DefaultConfig()
	bad.Populations = 0
	if bad.Validate() == nil {
		t.Error("zero populations accepted")
	}
	bad = DefaultConfig()
	bad.Alpha = 1.5
	if bad.Validate() == nil {
		t.Error("alpha > 1 accepted")
	}
	bad = DefaultConfig()
	bad.ResetPeriod = 0
	if bad.Validate() == nil {
		t.Error("zero reset period accepted")
	}
}

func TestDefaultConfigMatchesPaper(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.Populations != 8 || cfg.Workers != 12 || cfg.EvalsPerWorker != 250 {
		t.Fatalf("paper layout wrong: %+v", cfg)
	}
	if cfg.Populations*cfg.Workers*cfg.EvalsPerWorker != 24000 {
		t.Fatal("total budget is not 24000")
	}
	if cfg.Alpha != 0.2 || cfg.ResetPeriod != 50 {
		t.Fatalf("tuned parameters wrong: alpha=%v reset=%d", cfg.Alpha, cfg.ResetPeriod)
	}
}

func TestDefaultAEDBCriteria(t *testing.T) {
	crit := DefaultAEDBCriteria()
	if len(crit) != 3 {
		t.Fatalf("criteria count = %d, want 3", len(crit))
	}
	// Criterion (i): border + neighbors thresholds.
	if len(crit[0].Params) != 2 || crit[0].Params[0] != 2 || crit[0].Params[1] != 4 {
		t.Fatalf("energy criterion params = %v", crit[0].Params)
	}
	// Criterion (ii): neighbors threshold only.
	if len(crit[1].Params) != 1 || crit[1].Params[0] != 4 {
		t.Fatalf("coverage criterion params = %v", crit[1].Params)
	}
	// Criterion (iii): the two delays.
	if len(crit[2].Params) != 2 || crit[2].Params[0] != 0 || crit[2].Params[1] != 1 {
		t.Fatalf("broadcast-time criterion params = %v", crit[2].Params)
	}
}

func TestOptimizeOnConstrainedProblem(t *testing.T) {
	p := benchproblems.ConstrainedSchaffer()
	cfg := TestConfig()
	cfg.EvalsPerWorker = 100
	cfg.Seed = 7
	res, err := Optimize(p, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Front) == 0 {
		t.Fatal("empty front")
	}
	for _, s := range res.Front {
		if !s.Feasible() {
			t.Fatalf("infeasible archive member: %v", s)
		}
		if s.X[0] < 0.5-1e-9 {
			t.Fatalf("front member violates x >= 0.5: %v", s.X[0])
		}
	}
	// Mutually non-dominated.
	for i, a := range res.Front {
		for j, b := range res.Front {
			if i != j && moo.Dominates(a, b) {
				t.Fatal("front contains dominated member")
			}
		}
	}
	// The known Pareto set is x in [0.5, 2]; the search should find
	// points across that range.
	var minX, maxX = 4.0, -4.0
	for _, s := range res.Front {
		if s.X[0] < minX {
			minX = s.X[0]
		}
		if s.X[0] > maxX {
			maxX = s.X[0]
		}
	}
	if minX > 0.8 || maxX < 1.7 {
		t.Fatalf("front poorly spread over [0.5, 2]: [%v, %v]", minX, maxX)
	}
}

func TestOptimizeBudgetRespected(t *testing.T) {
	p := benchproblems.ZDT1(5)
	cfg := TestConfig()
	cfg.Seed = 8
	res, err := Optimize(p, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	budget := int64(cfg.Populations * cfg.Workers * cfg.EvalsPerWorker)
	if res.Evaluations > budget {
		t.Fatalf("spent %d evaluations, budget %d", res.Evaluations, budget)
	}
	if res.Evaluations < budget/2 {
		t.Fatalf("spent only %d of %d evaluations", res.Evaluations, budget)
	}
}

func TestOptimizeSingleWorkerDeterministic(t *testing.T) {
	// With one population and one worker there is no scheduling
	// nondeterminism: identical seeds must give identical fronts.
	p := benchproblems.ZDT1(4)
	cfg := TestConfig()
	cfg.Populations = 1
	cfg.Workers = 1
	cfg.EvalsPerWorker = 150
	cfg.Seed = 99
	r1, err := Optimize(p, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Optimize(p, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Front) != len(r2.Front) {
		t.Fatalf("front sizes differ: %d vs %d", len(r1.Front), len(r2.Front))
	}
	for i := range r1.Front {
		if !moo.EqualF(r1.Front[i], r2.Front[i]) {
			t.Fatalf("front member %d differs", i)
		}
	}
}

// TestOptimizeConvergesOnSchaffer holds the deterministic round-robin
// schedule to the convergence bounds on Schaffer's problem and the
// threaded schedule of the same configuration to structural checks only:
// the threaded run's archive depends on how its workers interleave, so
// bounds on it fail on some schedules.
func TestOptimizeConvergesOnSchaffer(t *testing.T) {
	p := benchproblems.Schaffer()
	cfg := TestConfig()
	cfg.Populations = 2
	cfg.Workers = 2
	cfg.EvalsPerWorker = 150
	cfg.Seed = 11
	res, err := OptimizeSequential(p, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	checkSchafferConvergence(t, res)

	threaded, err := Optimize(p, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	budget := int64(cfg.Populations * cfg.Workers * cfg.EvalsPerWorker)
	if threaded.Evaluations > budget || threaded.Evaluations < budget/2 {
		t.Fatalf("threaded run spent %d evaluations, budget %d", threaded.Evaluations, budget)
	}
	if len(threaded.Front) == 0 {
		t.Fatal("threaded run archived nothing")
	}
	for i, a := range threaded.Front {
		if len(a.X) != 1 || len(a.F) != 2 {
			t.Fatalf("threaded front point %d has shape x%d f%d", i, len(a.X), len(a.F))
		}
		for _, b := range threaded.Front {
			if moo.Dominates(b, a) {
				t.Fatalf("threaded front point %v is dominated by %v", a.F, b.F)
			}
		}
	}
}

// checkSchafferConvergence asserts a front of Schaffer's problem is
// well populated, hugs the analytic front and covers it without holes.
func checkSchafferConvergence(t *testing.T, res *Result) {
	t.Helper()
	// On Schaffer's problem the Pareto set is x in [0, 2]; every archived
	// solution must lie there (anything else is dominated), and a modest
	// budget should cover the front densely enough for a small IGD
	// against the analytic front.
	if len(res.Front) < 20 {
		t.Fatalf("front size = %d, want a well-populated archive", len(res.Front))
	}
	// Archive-level non-dominance can keep points marginally outside the
	// Pareto set; in objective space they must still hug the analytic
	// front f2 = (sqrt(f1) - 2)^2.
	for _, s := range res.Front {
		x := s.X[0]
		cx := math.Min(math.Max(x, 0), 2)
		d0 := s.F[0] - cx*cx
		d1 := s.F[1] - (cx-2)*(cx-2)
		if math.Sqrt(d0*d0+d1*d1) > 0.75 {
			t.Fatalf("archived far-from-front point x=%v f=%v", x, s.F)
		}
	}
	// IGD against the analytic front (101 points), in raw objective units
	// (f ranges over [0, 4]).
	var worst float64
	for i := 0; i <= 100; i++ {
		x := 2 * float64(i) / 100
		rf := []float64{x * x, (x - 2) * (x - 2)}
		best := 1e18
		for _, s := range res.Front {
			d := (s.F[0]-rf[0])*(s.F[0]-rf[0]) + (s.F[1]-rf[1])*(s.F[1]-rf[1])
			if d < best {
				best = d
			}
		}
		if best > worst {
			worst = best
		}
	}
	// No hole larger than 1 objective unit (the front spans 4 units).
	if worst > 1.0 {
		t.Fatalf("front has a coverage hole: max squared gap %v", worst)
	}
}

func TestOptimizeWithCustomArchive(t *testing.T) {
	p := benchproblems.Schaffer()
	cfg := TestConfig()
	cfg.Seed = 12
	ar := archive.NewCrowding(20)
	res, err := Optimize(p, cfg, ar)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Front) == 0 || len(res.Front) > 20 {
		t.Fatalf("crowding-archive front size = %d", len(res.Front))
	}
}

// TestOptimizeRejectsBadCriteria: every MLS entry point validates the
// criteria against the problem's dimension and returns an error instead
// of indexing out of range.
func TestOptimizeRejectsBadCriteria(t *testing.T) {
	p := benchproblems.Schaffer()
	cfg := TestConfig()
	cfg.Criteria = []Criterion{{Name: "bad", Params: []int{7}}}
	checkpointed := cfg
	checkpointed.Checkpoint = &study.Controller{Path: filepath.Join(t.TempDir(), "mls.ckpt")}
	for _, tc := range []struct {
		name string
		run  func() (*Result, error)
	}{
		{"Optimize", func() (*Result, error) { return Optimize(p, cfg, nil) }},
		{"OptimizeSequential", func() (*Result, error) { return OptimizeSequential(p, cfg, nil) }},
		{"Optimize+Checkpoint", func() (*Result, error) { return Optimize(p, checkpointed, nil) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := tc.run(); err == nil {
				t.Fatal("criterion outside dim accepted")
			}
		})
	}
}

func TestPerDimensionCriteria(t *testing.T) {
	crit := PerDimensionCriteria(3)
	if len(crit) != 3 {
		t.Fatalf("got %d criteria", len(crit))
	}
	for i, c := range crit {
		if len(c.Params) != 1 || c.Params[0] != i {
			t.Fatalf("criterion %d = %v", i, c.Params)
		}
	}
}

func TestImprove(t *testing.T) {
	p := benchproblems.Schaffer()
	r := rng.New(13)
	start := moo.NewSolution(p, []float64{3.5}) // poor solution
	pop := []*moo.Solution{
		moo.NewSolution(p, []float64{1}),
		moo.NewSolution(p, []float64{2}),
	}
	improved, spent := ImproveBatch(p, start, pop, 40, 1, 0.3, nil, r)
	if spent != 40 {
		t.Fatalf("spent = %d, want 40", spent)
	}
	if moo.Dominates(start, improved) {
		t.Fatal("ImproveBatch returned a solution dominated by its input")
	}
}

func TestImproveEmptyPopulation(t *testing.T) {
	p := benchproblems.Schaffer()
	r := rng.New(14)
	start := moo.NewSolution(p, []float64{3})
	improved, _ := ImproveBatch(p, start, nil, 10, 1, 0.2, nil, r)
	if improved == nil {
		t.Fatal("ImproveBatch with empty population returned nil")
	}
}

func TestBarrier(t *testing.T) {
	const n = 8
	b := newBarrier(n)
	var mu sync.Mutex
	phase := make([]int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for round := 0; round < 5; round++ {
				mu.Lock()
				phase[i] = round
				// No goroutine may be more than one round ahead.
				for j := range phase {
					if phase[j] < round-1 || phase[j] > round+1 {
						mu.Unlock()
						t.Errorf("barrier desync: %v", phase)
						return
					}
				}
				mu.Unlock()
				b.Arrive()
			}
			b.Leave()
		}(i)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("barrier deadlocked")
	}
}

func TestBarrierLeaveReleasesWaiters(t *testing.T) {
	b := newBarrier(2)
	done := make(chan struct{})
	go func() {
		b.Arrive() // waits for the second party
		close(done)
	}()
	time.Sleep(10 * time.Millisecond)
	b.Leave() // the other party quits instead of arriving
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Leave did not release the waiting party")
	}
}

// TestPopulationSample: the reference draw of Fig. 3 line 6 is uniform
// over the population's workers that hold a current solution.
func TestPopulationSample(t *testing.T) {
	pop := []*worker{{}, {}, {}}
	r := rng.New(15)
	if sampleReference(pop, r) != nil {
		t.Fatal("empty population sampled non-nil")
	}
	s := &moo.Solution{F: []float64{1}}
	pop[1].cur.Store(s)
	for i := 0; i < 10; i++ {
		if sampleReference(pop, r) != s {
			t.Fatal("sample missed the only live slot")
		}
	}
	s2 := &moo.Solution{F: []float64{2}}
	pop[2].cur.Store(s2)
	saw := map[*moo.Solution]bool{}
	for i := 0; i < 200; i++ {
		saw[sampleReference(pop, r)] = true
	}
	if !saw[s] || !saw[s2] || saw[nil] {
		t.Fatal("sample not covering exactly the live slots")
	}
}

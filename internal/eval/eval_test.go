package eval

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"aedbmls/internal/aedb"
	"aedbmls/internal/moo"
)

// tinyProblem keeps test evaluations cheap (3 networks instead of 10).
func tinyProblem(density int, seed uint64) *Problem {
	return NewProblem(density, seed, WithCommittee(3))
}

func TestProblemShape(t *testing.T) {
	p := tinyProblem(100, 1)
	if p.Dim() != aedb.NumParams || p.NumObjectives() != 3 {
		t.Fatalf("dim=%d objectives=%d", p.Dim(), p.NumObjectives())
	}
	lo, hi := p.Bounds()
	if len(lo) != 5 || len(hi) != 5 {
		t.Fatalf("bounds lengths %d/%d", len(lo), len(hi))
	}
	if lo[aedb.IdxBorderThreshold] != -95 || hi[aedb.IdxBorderThreshold] != -70 {
		t.Fatalf("border bounds [%v, %v], want Table III", lo[2], hi[2])
	}
	if p.Nodes() != 25 {
		t.Fatalf("100 dev/km^2 -> %d nodes, want 25", p.Nodes())
	}
	if p.Committee() != 3 {
		t.Fatalf("committee = %d", p.Committee())
	}
}

func TestDensityNodeCounts(t *testing.T) {
	for density, want := range map[int]int{100: 25, 200: 50, 300: 75} {
		if got := NewProblem(density, 1).Nodes(); got != want {
			t.Errorf("density %d -> %d nodes, want %d", density, got, want)
		}
	}
}

func TestEvaluateObjectiveMapping(t *testing.T) {
	p := tinyProblem(100, 2)
	x := aedb.Params{MinDelay: 0.1, MaxDelay: 0.5, BorderThresholdDBm: -82, MarginDBm: 1, NeighborsThreshold: 10}.Vector()
	f, viol, aux := p.Evaluate(x)
	m := aux.(Metrics)
	if f[0] != m.EnergyDBmSum || f[1] != -m.Coverage || f[2] != m.Forwardings {
		t.Fatalf("objective mapping wrong: f=%v metrics=%+v", f, m)
	}
	if m.BroadcastTime < BroadcastTimeLimit && viol != 0 {
		t.Fatalf("violation %v for bt %v", viol, m.BroadcastTime)
	}
	if m.BroadcastTime >= BroadcastTimeLimit && viol != m.BroadcastTime-BroadcastTimeLimit {
		t.Fatalf("violation %v for bt %v", viol, m.BroadcastTime)
	}
}

func TestEvaluateDeterministic(t *testing.T) {
	p := tinyProblem(100, 3)
	x := aedb.Params{MinDelay: 0.2, MaxDelay: 1, BorderThresholdDBm: -85, MarginDBm: 0.5, NeighborsThreshold: 20}.Vector()
	f1, v1, _ := p.Evaluate(x)
	f2, v2, _ := p.Evaluate(x)
	for i := range f1 {
		if f1[i] != f2[i] {
			t.Fatalf("objective %d differs across evaluations: %v vs %v", i, f1[i], f2[i])
		}
	}
	if v1 != v2 {
		t.Fatalf("violations differ: %v vs %v", v1, v2)
	}
}

func TestCommitteeFrozenAcrossProblemInstances(t *testing.T) {
	x := aedb.Params{MinDelay: 0.1, MaxDelay: 0.4, BorderThresholdDBm: -80, MarginDBm: 1, NeighborsThreshold: 15}.Vector()
	p1 := tinyProblem(100, 42)
	p2 := tinyProblem(100, 42)
	f1, _, _ := p1.Evaluate(x)
	f2, _, _ := p2.Evaluate(x)
	for i := range f1 {
		if f1[i] != f2[i] {
			t.Fatal("same-seed problems disagree (committee not frozen)")
		}
	}
	p3 := tinyProblem(100, 43)
	f3, _, _ := p3.Evaluate(x)
	same := true
	for i := range f1 {
		if f1[i] != f3[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different-seed problems agree exactly (suspicious)")
	}
}

func TestHighDelayViolatesConstraint(t *testing.T) {
	// Delays near 5 s (the sensitivity domain) on a multi-hop network
	// must blow the 2 s broadcast-time budget.
	p := NewProblem(100, 4, WithCommittee(3), WithDomain(aedb.SensitivityDomain()))
	x := aedb.Params{MinDelay: 4.5, MaxDelay: 5, BorderThresholdDBm: -90, MarginDBm: 1, NeighborsThreshold: 45}.Vector()
	_, viol, aux := p.Evaluate(x)
	m := aux.(Metrics)
	if m.Coverage < 3 {
		t.Skipf("committee too sparse for multi-hop (coverage %v)", m.Coverage)
	}
	if viol <= 0 {
		t.Fatalf("5 s delays feasible? bt=%v viol=%v", m.BroadcastTime, viol)
	}
}

func TestEvalCounter(t *testing.T) {
	p := tinyProblem(100, 5)
	x := aedb.Params{MinDelay: 0.1, MaxDelay: 0.3, BorderThresholdDBm: -80, MarginDBm: 1, NeighborsThreshold: 10}.Vector()
	p.Evaluate(x)
	p.Evaluate(x)
	if got := p.Evaluations(); got != 2 {
		t.Fatalf("evaluations = %d, want 2", got)
	}
	p.ResetEvaluations()
	if p.Evaluations() != 0 {
		t.Fatal("reset failed")
	}
}

func TestConcurrentEvaluationsSafe(t *testing.T) {
	p := tinyProblem(100, 6)
	x := aedb.Params{MinDelay: 0.1, MaxDelay: 0.3, BorderThresholdDBm: -80, MarginDBm: 1, NeighborsThreshold: 10}.Vector()
	want, _, _ := p.Evaluate(x)
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f, _, _ := p.Evaluate(x)
			for i := range f {
				if f[i] != want[i] {
					errs <- "concurrent evaluation diverged"
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	if msg, ok := <-errs; ok {
		t.Fatal(msg)
	}
}

func TestBorderThresholdMonotonicity(t *testing.T) {
	// A wider forwarding area (higher border threshold) must not reduce
	// coverage or forwardings on average — the sensitivity-analysis
	// relationship in Table I.
	p := tinyProblem(200, 7)
	base := aedb.Params{MinDelay: 0.1, MaxDelay: 0.4, MarginDBm: 1, NeighborsThreshold: 50}
	narrow := base
	narrow.BorderThresholdDBm = -93
	wide := base
	wide.BorderThresholdDBm = -72
	mN := p.Simulate(narrow)
	mW := p.Simulate(wide)
	if mW.Forwardings < mN.Forwardings {
		t.Fatalf("wider border reduced forwardings: %v -> %v", mN.Forwardings, mW.Forwardings)
	}
}

func TestMetricsOf(t *testing.T) {
	p := tinyProblem(100, 8)
	x := aedb.Params{MinDelay: 0.1, MaxDelay: 0.3, BorderThresholdDBm: -80, MarginDBm: 1, NeighborsThreshold: 10}.Vector()
	s := moo.NewSolution(p, x)
	m, ok := MetricsOf(s)
	if !ok {
		t.Fatal("MetricsOf failed on an eval-produced solution")
	}
	if math.Abs(s.F[1]+m.Coverage) > 1e-12 {
		t.Fatal("solution objectives inconsistent with attached metrics")
	}
	if _, ok := MetricsOf(&moo.Solution{}); ok {
		t.Fatal("MetricsOf accepted a foreign solution")
	}
}

func TestSimulateProtocolMatchesSimulateForAEDB(t *testing.T) {
	p := tinyProblem(100, 9)
	params := aedb.Params{MinDelay: 0.1, MaxDelay: 0.3, BorderThresholdDBm: -80, MarginDBm: 1, NeighborsThreshold: 10}
	m1 := p.Simulate(params)
	m2 := p.SimulateProtocol(aedb.New(params))
	if m1.Coverage != m2.Coverage || m1.EnergyDBmSum != m2.EnergyDBmSum {
		t.Fatalf("Simulate and SimulateProtocol disagree: %+v vs %+v", m1, m2)
	}
}

func TestCustomDensityFallback(t *testing.T) {
	p := NewProblem(40, 10, WithCommittee(2)) // 40 dev/km^2 -> 10 nodes
	if p.Nodes() != 10 {
		t.Fatalf("nodes = %d, want 10", p.Nodes())
	}
}

// TestWarmStartBitIdentical is the central equivalence table test: across
// densities and committee seeds, the warm-start snapshot path must return
// bit-identical metrics (all six fields) to the from-scratch path.
func TestWarmStartBitIdentical(t *testing.T) {
	params := aedb.Params{MinDelay: 0.05, MaxDelay: 0.4, BorderThresholdDBm: -83, MarginDBm: 1.2, NeighborsThreshold: 12}
	for _, density := range []int{100, 200, 300} {
		for seed := uint64(1); seed <= 3; seed++ {
			warm := NewProblem(density, seed, WithCommittee(3))
			cold := NewProblem(density, seed, WithCommittee(3), without(layerWarmStart))
			mw := warm.Simulate(params)
			mc := cold.Simulate(params)
			if mw != mc {
				t.Errorf("density %d seed %d: warm %+v != cold %+v", density, seed, mw, mc)
			}
			// SimulateProtocol covers the sixth field (Collisions) too.
			pw := warm.SimulateProtocol(aedb.New(params))
			pc := cold.SimulateProtocol(aedb.New(params))
			if pw != pc {
				t.Errorf("density %d seed %d: protocol warm %+v != cold %+v", density, seed, pw, pc)
			}
		}
	}
}

// TestWarmStartDeterministic: two same-seed problems evaluating through
// snapshots agree exactly, and repeated evaluations on one problem agree
// with the first.
func TestWarmStartDeterministic(t *testing.T) {
	params := aedb.Params{MinDelay: 0.1, MaxDelay: 0.6, BorderThresholdDBm: -87, MarginDBm: 0.8, NeighborsThreshold: 25}
	p1 := NewProblem(200, 99, WithCommittee(3))
	p2 := NewProblem(200, 99, WithCommittee(3))
	a1 := p1.Simulate(params)
	a2 := p1.Simulate(params)
	b1 := p2.Simulate(params)
	if a1 != a2 {
		t.Fatalf("repeated warm evaluations diverged: %+v vs %+v", a1, a2)
	}
	if a1 != b1 {
		t.Fatalf("same-seed problems diverged: %+v vs %+v", a1, b1)
	}
}

// TestLargeCommittee: committees beyond DefaultCommittee draw additional
// frozen scenarios instead of silently truncating, and extend (not
// reshuffle) the default committee.
func TestLargeCommittee(t *testing.T) {
	p := NewProblem(100, 5, WithCommittee(15))
	if p.Committee() != 15 {
		t.Fatalf("committee = %d, want 15", p.Committee())
	}
	small := NewProblem(100, 5, WithCommittee(4))
	big := NewProblem(100, 5, WithCommittee(12))
	for i := 0; i < 4; i++ {
		if small.scenarios[i] != big.scenarios[i] {
			t.Fatalf("scenario %d differs across committee sizes: %+v vs %+v", i, small.scenarios[i], big.scenarios[i])
		}
	}
	def := NewProblem(100, 5)
	for i := 0; i < DefaultCommittee; i++ {
		if def.scenarios[i] != big.scenarios[i] {
			t.Fatalf("default committee scenario %d not a prefix of the larger committee", i)
		}
	}
	// A degenerate request clamps to one scenario.
	if got := NewProblem(100, 5, WithCommittee(0)).Committee(); got != 1 {
		t.Fatalf("committee(0) = %d, want 1", got)
	}
}

// TestWarmStartConcurrent exercises the lazy snapshot build under
// concurrent first use.
func TestWarmStartConcurrent(t *testing.T) {
	p := NewProblem(100, 31, WithCommittee(3))
	x := aedb.Params{MinDelay: 0.1, MaxDelay: 0.3, BorderThresholdDBm: -80, MarginDBm: 1, NeighborsThreshold: 10}.Vector()
	ref := NewProblem(100, 31, WithCommittee(3), without(layerWarmStart))
	want, _, _ := ref.Evaluate(x)
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f, _, _ := p.Evaluate(x)
			for i := range f {
				if f[i] != want[i] {
					errs <- "concurrent warm-start evaluation diverged from cold reference"
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	if msg, ok := <-errs; ok {
		t.Fatal(msg)
	}
}

func TestWarmStartErrorSurfaced(t *testing.T) {
	p := tinyProblem(100, 77)
	if err := p.WarmStartError(); err != nil {
		t.Fatalf("error before any build: %v", err)
	}
	x := aedb.Params{MinDelay: 0.1, MaxDelay: 0.3, BorderThresholdDBm: -80, MarginDBm: 1, NeighborsThreshold: 10}.Vector()
	p.Evaluate(x)
	if err := p.WarmStartError(); err != nil {
		t.Fatalf("healthy warm start reports error: %v", err)
	}
	// Force a build failure and confirm it surfaces. The failed state is
	// the Problem's own: the store's entry for the scenario stays healthy.
	failed := &child{}
	failed.snap.err = fmt.Errorf("synthetic failure")
	failed.snap.done.Store(true)
	p.states[0].Store(failed)
	if err := p.WarmStartError(); err == nil {
		t.Fatal("failed snapshot build not surfaced")
	}
}

package eval

import (
	"sync"
	"testing"

	"aedbmls/internal/aedb"
	"aedbmls/internal/moo"
	"aedbmls/internal/rng"
)

// neighborhood builds a deterministic set of n in-domain parameter
// vectors spread over the Table III box — the shape of an MLS
// neighborhood or a MOEA offspring generation.
func neighborhood(n int, seed uint64) [][]float64 {
	r := rng.New(seed)
	lo, hi := aedb.DefaultDomain().Bounds()
	xs := make([][]float64, n)
	for i := range xs {
		x := make([]float64, len(lo))
		for k := range x {
			x[k] = lo[k] + r.Float64()*(hi[k]-lo[k])
		}
		xs[i] = x
	}
	return xs
}

func assertBatchMatchesSerial(t *testing.T, name string, p *Problem, ref *Problem, xs [][]float64) {
	t.Helper()
	got := p.EvaluateBatch(xs)
	if len(got) != len(xs) {
		t.Fatalf("%s: %d results for %d vectors", name, len(got), len(xs))
	}
	for j, x := range xs {
		f, viol, aux := ref.Evaluate(x)
		for k := range f {
			if got[j].F[k] != f[k] {
				t.Fatalf("%s: vector %d objective %d: batch %v != serial %v", name, j, k, got[j].F[k], f[k])
			}
		}
		if got[j].Violation != viol {
			t.Fatalf("%s: vector %d violation: batch %v != serial %v", name, j, got[j].Violation, viol)
		}
		if got[j].Aux.(Metrics) != aux.(Metrics) {
			t.Fatalf("%s: vector %d metrics: batch %+v != serial %+v", name, j, got[j].Aux, aux)
		}
	}
}

// TestEvaluateBatchBitIdentical is the central equivalence table of this
// PR: across densities, committee seeds and committee sizes, the batched
// fast path (beacon-tape replay + quiescence early stop) must return
// bit-identical objectives, violations and Metrics to serial Evaluate.
func TestEvaluateBatchBitIdentical(t *testing.T) {
	for _, tc := range []struct {
		density, committee int
		seed               uint64
	}{
		{100, 1, 1}, {100, 3, 1}, {100, 3, 2}, {100, 10, 3},
		{200, 3, 1}, {200, 5, 2},
		{300, 3, 1}, {300, 3, 7},
	} {
		xs := neighborhood(4, tc.seed*101)
		p := NewProblem(tc.density, tc.seed, WithCommittee(tc.committee))
		ref := NewProblem(tc.density, tc.seed, WithCommittee(tc.committee))
		assertBatchMatchesSerial(t, "fast", p, ref, xs)
		// The same problem must serve mixed Evaluate/EvaluateBatch calls
		// consistently (batch after the serial reference warmed the cache).
		assertBatchMatchesSerial(t, "fast-mixed", ref, ref, xs)
	}
}

// TestEvaluateBatchPathVariants: every engine configuration — fast path
// off, serial waves, parallel waves, cold (no warm start) — agrees with
// serial Evaluate exactly.
func TestEvaluateBatchPathVariants(t *testing.T) {
	xs := neighborhood(5, 9)
	ref := NewProblem(100, 11, WithCommittee(3))
	for name, opts := range map[string][]Option{
		"reference-path":  {WithReferencePath(true)},
		"serial-waves":    {withWorkers(1)},
		"parallel-waves":  {withWorkers(8)},
		"cold":            {without(layerWarmStart)},
		"cold-reference":  {without(layerWarmStart), WithReferencePath(true)},
		"no-buffer-reuse": {without(layerArenas)},
		"no-sharing":      {without(layerShared)},
		"no-sharing-ref":  {without(layerShared), WithReferencePath(true)},
	} {
		p := NewProblem(100, 11, append([]Option{WithCommittee(3)}, opts...)...)
		assertBatchMatchesSerial(t, name, p, ref, xs)
	}
}

// TestScenarioWorkersBitIdentical: the cell scheduler must give
// bit-identical results for any forced worker count, on all four entry
// points: a one-worker pass is the serial reference.
func TestScenarioWorkersBitIdentical(t *testing.T) {
	params := aedb.Params{MinDelay: 0.08, MaxDelay: 0.45, BorderThresholdDBm: -84, MarginDBm: 1.1, NeighborsThreshold: 14}
	x := params.Vector()
	xs := neighborhood(6, 71)
	for _, density := range []int{100, 300} {
		serial := NewProblem(density, 5, WithCommittee(4), withWorkers(1))
		wantF, wantV, _ := serial.Evaluate(x)
		wantM := serial.Simulate(params)
		wantP := serial.SimulateProtocol(aedb.NewFlooding(0.05, 0.2))
		wantB := serial.EvaluateBatch(xs)
		for _, workers := range []int{2, 4, 8, 16} {
			p := NewProblem(density, 5, WithCommittee(4), withWorkers(workers))
			f, v, _ := p.Evaluate(x)
			for k := range f {
				if f[k] != wantF[k] {
					t.Fatalf("density %d workers %d: objective %d %v != %v", density, workers, k, f[k], wantF[k])
				}
			}
			if v != wantV {
				t.Fatalf("density %d workers %d: violation %v != %v", density, workers, v, wantV)
			}
			if m := p.Simulate(params); m != wantM {
				t.Fatalf("density %d workers %d: Simulate %+v != %+v", density, workers, m, wantM)
			}
			if m := p.SimulateProtocol(aedb.NewFlooding(0.05, 0.2)); m != wantP {
				t.Fatalf("density %d workers %d: SimulateProtocol %+v != %+v", density, workers, m, wantP)
			}
			for j, r := range p.EvaluateBatch(xs) {
				if r.Aux.(Metrics) != wantB[j].Aux.(Metrics) {
					t.Fatalf("density %d workers %d: batch vector %d %+v != %+v", density, workers, j, r.Aux, wantB[j].Aux)
				}
			}
		}
	}
}

// TestEvaluateBatchFrameBeacons: the frame-level beacon medium cannot
// record tapes; the batch engine must fall back and still match serial.
func TestEvaluateBatchFrameBeacons(t *testing.T) {
	cfg := func() Option {
		c := NewProblem(100, 1).cfg // default Table II scenario
		c.FastBeacons = false
		return WithConfig(c)
	}()
	p := NewProblem(100, 13, WithCommittee(2), cfg)
	ref := NewProblem(100, 13, WithCommittee(2), cfg)
	assertBatchMatchesSerial(t, "frame-beacons", p, ref, neighborhood(3, 21))
}

func TestEvaluateBatchCountsEvaluations(t *testing.T) {
	p := NewProblem(100, 17, WithCommittee(2))
	xs := neighborhood(6, 3)
	p.EvaluateBatch(xs)
	if got := p.Evaluations(); got != int64(len(xs)) {
		t.Fatalf("evaluations = %d, want %d", got, len(xs))
	}
	if out := p.EvaluateBatch(nil); out != nil {
		t.Fatalf("empty batch returned %v", out)
	}
	if got := p.Evaluations(); got != int64(len(xs)) {
		t.Fatalf("empty batch changed the counter to %d", got)
	}
}

// TestEvaluateAllUsesEvalBatch: the moo-level helper must route an eval
// problem through the batch engine and produce solutions identical to
// serial construction.
func TestEvaluateAllUsesEvalBatch(t *testing.T) {
	p := NewProblem(100, 23, WithCommittee(2))
	xs := neighborhood(4, 5)
	sols := moo.EvaluateAll(p, xs)
	for j, x := range xs {
		want := moo.NewSolution(p, x)
		if !moo.EqualF(sols[j], want) {
			t.Fatalf("solution %d: %v != %v", j, sols[j], want)
		}
		if _, ok := MetricsOf(sols[j]); !ok {
			t.Fatalf("solution %d lost its Metrics aux", j)
		}
	}
}

// TestWaveArenaConcurrentStress is the concurrency gate of the wave
// arena: one shared Problem with buffer reuse ON (the default) is hit by
// concurrent Evaluate and EvaluateBatch callers — so arenas circulate
// through the pool across goroutines while snapshot, tape and masked
// warm-up builds race on first use — and every result must equal the
// serial reference engine's. Run under -race this doubles as the data-race
// detector for the arena recycling.
func TestWaveArenaConcurrentStress(t *testing.T) {
	xs := neighborhood(5, 61)
	ref := NewProblem(100, 53, WithCommittee(3), WithReferencePath(true))
	want := make([]Metrics, len(xs))
	for j, x := range xs {
		_, _, aux := ref.Evaluate(x)
		want[j] = aux.(Metrics)
	}

	p := NewProblem(100, 53, WithCommittee(3), withWorkers(4))
	if p.layers&layerArenas == 0 {
		t.Fatal("buffer reuse must default on — this stress test covers the wave arena")
	}
	var wg sync.WaitGroup
	errs := make(chan string, 16)
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for iter := 0; iter < 3; iter++ {
				if w%2 == 0 {
					for j, r := range p.EvaluateBatch(xs) {
						if r.Aux.(Metrics) != want[j] {
							errs <- "arena EvaluateBatch diverged from the reference engine"
							return
						}
					}
				} else {
					for j, x := range xs {
						_, _, aux := p.Evaluate(x)
						if aux.(Metrics) != want[j] {
							errs <- "arena Evaluate diverged from the reference engine"
							return
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	if msg, ok := <-errs; ok {
		t.Fatal(msg)
	}
}

// TestConcurrentBatchAndEvaluateStress hammers one Problem with
// concurrent EvaluateBatch and Evaluate calls (first use, so snapshot and
// tape builds race too) and requires every result to equal the serial
// reference. Run under -race this is the concurrency-safety gate of the
// evaluation engine.
func TestConcurrentBatchAndEvaluateStress(t *testing.T) {
	xs := neighborhood(4, 31)
	ref := NewProblem(100, 37, WithCommittee(3))
	want := make([]Metrics, len(xs))
	for j, x := range xs {
		_, _, aux := ref.Evaluate(x)
		want[j] = aux.(Metrics)
	}

	p := NewProblem(100, 37, WithCommittee(3), withWorkers(4))
	var wg sync.WaitGroup
	errs := make(chan string, 16)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for iter := 0; iter < 3; iter++ {
				if w%2 == 0 {
					for j, r := range p.EvaluateBatch(xs) {
						if r.Aux.(Metrics) != want[j] {
							errs <- "concurrent EvaluateBatch diverged"
							return
						}
					}
				} else {
					for j, x := range xs {
						_, _, aux := p.Evaluate(x)
						if aux.(Metrics) != want[j] {
							errs <- "concurrent Evaluate diverged"
							return
						}
					}
				}
				if err := p.WarmStartError(); err != nil {
					errs <- err.Error()
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	if msg, ok := <-errs; ok {
		t.Fatal(msg)
	}
}

// TestCellSchedulerConcurrentStress is the concurrency gate of the cell
// scheduler: many goroutines mix Evaluate and EvaluateBatch on Problems of
// two densities, shared between them, with helpers forced into every pass
// — so wave cursors are raced by helpers, arenas of both node counts
// circulate through the process-wide pool, and snapshot and tape builds
// race on first use. Every result must equal the serial one. Run under
// -race it is the data-race detector for the scheduler.
func TestCellSchedulerConcurrentStress(t *testing.T) {
	xs := neighborhood(7, 83)
	type shared struct {
		p    *Problem
		want []Metrics
	}
	var problems []shared
	for _, density := range []int{100, 300} {
		ref := NewProblem(density, 59, WithCommittee(4), withWorkers(1))
		want := make([]Metrics, len(xs))
		for j, x := range xs {
			_, _, aux := ref.Evaluate(x)
			want[j] = aux.(Metrics)
		}
		problems = append(problems,
			shared{NewProblem(density, 59, WithCommittee(4), withWorkers(3)), want},
			shared{NewProblem(density, 59, WithCommittee(4)), want})
	}
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for w := 0; w < 12; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sh := problems[w%len(problems)]
			for iter := 0; iter < 2; iter++ {
				if (w/len(problems)+iter)%2 == 0 {
					for j, r := range sh.p.EvaluateBatch(xs[w%3:]) {
						if r.Aux.(Metrics) != sh.want[w%3+j] {
							errs <- "concurrent EvaluateBatch diverged from serial"
							return
						}
					}
					continue
				}
				for j, x := range xs {
					_, _, aux := sh.p.Evaluate(x)
					if aux.(Metrics) != sh.want[j] {
						errs <- "concurrent Evaluate diverged from serial"
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	if msg, ok := <-errs; ok {
		t.Fatal(msg)
	}
	if n := cellRunners.Load(); n != 0 {
		t.Fatalf("%d cell runners still registered after every pass returned", n)
	}
}

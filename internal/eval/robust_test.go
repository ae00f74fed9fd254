package eval

import (
	"math"
	"testing"
	"time"

	"aedbmls/internal/faultinject"
)

// robustProblem builds a small, fast problem for supervision tests.
func robustProblem(opts ...Option) *Problem {
	base := []Option{WithCommittee(2)}
	return NewProblem(100, 424242, append(base, opts...)...)
}

var robustX = []float64{0.5, 0.5, 0.5, 0.5, 0.5}

func sameF(t *testing.T, want, got []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
			t.Fatalf("objective %d differs: %v vs %v", i, want, got)
		}
	}
}

// TestTransientPanicIsInvisible is the core supervision property: a fault
// that panics one scenario attempt once is absorbed by retry, and the
// evaluation result is bit-identical to an undisturbed run.
func TestTransientPanicIsInvisible(t *testing.T) {
	faultinject.Reset()
	defer faultinject.Reset()

	baseline, bviol, _ := robustProblem().Evaluate(robustX)

	if err := faultinject.Configure("site=eval.scenario,kind=panic,after=1,times=1"); err != nil {
		t.Fatal(err)
	}
	p := robustProblem()
	f, viol, _ := p.Evaluate(robustX)
	sameF(t, baseline, f)
	if math.Float64bits(bviol) != math.Float64bits(viol) {
		t.Fatalf("violation differs: %v vs %v", bviol, viol)
	}
	h := p.Health()
	if h.Panics != 1 || h.Retries != 1 || h.Failures != 0 {
		t.Fatalf("health after transient panic: %+v", h)
	}
	if err := p.Err(); err != nil {
		t.Fatalf("transient fault left a sticky error: %v", err)
	}
}

// TestPermanentFaultDegradesCandidate: a fault that fires on every attempt
// exhausts retries and the candidate gets the finite penalty outcome —
// the process survives and the failure is surfaced through Health and Err.
func TestPermanentFaultDegradesCandidate(t *testing.T) {
	faultinject.Reset()
	defer faultinject.Reset()
	if err := faultinject.Configure("site=eval.scenario,kind=error"); err != nil {
		t.Fatal(err)
	}
	p := robustProblem()
	f, viol, aux := p.Evaluate(robustX)
	want := FailedMetrics()
	if f[0] != want.EnergyDBmSum || f[1] != -want.Coverage || f[2] != want.Forwardings {
		t.Fatalf("degraded objectives %v, want penalty", f)
	}
	if viol < failedPenalty/2 {
		t.Fatalf("degraded candidate not infeasible: violation %v", viol)
	}
	if m, ok := aux.(Metrics); !ok || m != want {
		t.Fatalf("degraded Aux = %#v, want FailedMetrics", aux)
	}
	for i := range f {
		if math.IsInf(f[i], 0) || math.IsNaN(f[i]) {
			t.Fatalf("penalty objective %d is not finite: %v", i, f[i])
		}
	}
	h := p.Health()
	if h.Failures == 0 || h.Errors == 0 {
		t.Fatalf("health after permanent fault: %+v", h)
	}
	if p.Err() == nil {
		t.Fatal("Err() nil after degradation")
	}
}

// TestConstructionErrorDegrades exercises the former panic site: with warm
// start off, scenario construction runs on every evaluation, and a failure
// there (injected at the exact boundary) degrades the candidate instead of
// killing the process.
func TestConstructionErrorDegrades(t *testing.T) {
	faultinject.Reset()
	defer faultinject.Reset()
	if err := faultinject.Configure("site=eval.build,kind=error"); err != nil {
		t.Fatal(err)
	}
	p := robustProblem(without(layerWarmStart))
	f, _, _ := p.Evaluate(robustX)
	if f[0] != failedPenalty {
		t.Fatalf("construction failure did not degrade: %v", f)
	}
	if p.Health().Failures == 0 {
		t.Fatalf("health: %+v", p.Health())
	}
}

// TestEvalTimeoutDegrades: an attempt stuck past the per-evaluation
// timeout is abandoned and counts as a failure.
func TestEvalTimeoutDegrades(t *testing.T) {
	faultinject.Reset()
	defer faultinject.Reset()
	if err := faultinject.Configure("site=eval.scenario,kind=delay,delay=200ms"); err != nil {
		t.Fatal(err)
	}
	p := robustProblem(WithEvalTimeout(10*time.Millisecond), WithMaxRetries(0))
	f, _, _ := p.Evaluate(robustX)
	if f[0] != failedPenalty {
		t.Fatalf("timed-out evaluation did not degrade: %v", f)
	}
	if h := p.Health(); h.Timeouts == 0 {
		t.Fatalf("health: %+v", h)
	}
}

// TestBatchDegradesOnlyFailedCandidate: in a batch, a permanently failing
// cell penalises its candidate and leaves the others bit-identical.
func TestBatchDegradesOnlyFailedCandidate(t *testing.T) {
	faultinject.Reset()
	defer faultinject.Reset()

	other := []float64{0.2, 0.8, 0.3, 0.6, 0.4}
	baseline, _, _ := robustProblem().Evaluate(other)

	// Serial batch (workers=1, no fallback pass): cells run in order
	// c0s0, c1s0, c0s1, c1s1; candidate 0's first cell gets the fault on
	// its first attempt (hit 1) and its retry (hit 2), exhausting
	// maxRetries=1.
	if err := faultinject.Configure("site=eval.scenario,kind=error,after=1,times=2"); err != nil {
		t.Fatal(err)
	}
	p := robustProblem(withWorkers(1))
	out := p.EvaluateBatch([][]float64{robustX, other})
	if out[0].F[0] != failedPenalty {
		t.Fatalf("candidate 0 not degraded: %v", out[0].F)
	}
	sameF(t, baseline, out[1].F)
	if h := p.Health(); h.Failures != 1 {
		t.Fatalf("health: %+v", h)
	}
}

// TestSerialFallbackRecoversParallelFailures: cells that fail inside a
// parallel wave (retries disabled, two one-shot faults) are re-attempted
// serially and the batch result is bit-identical to an undisturbed run.
func TestSerialFallbackRecoversParallelFailures(t *testing.T) {
	faultinject.Reset()
	defer faultinject.Reset()

	b0, _, _ := robustProblem().Evaluate(robustX)
	other := []float64{0.2, 0.8, 0.3, 0.6, 0.4}
	b1, _, _ := robustProblem().Evaluate(other)

	if err := faultinject.Configure("site=eval.scenario,kind=error,times=2"); err != nil {
		t.Fatal(err)
	}
	p := robustProblem(withWorkers(2), WithMaxRetries(0))
	out := p.EvaluateBatch([][]float64{robustX, other})
	sameF(t, b0, out[0].F)
	sameF(t, b1, out[1].F)
	h := p.Health()
	if h.SerialFallbacks != 2 || h.Failures != 0 {
		t.Fatalf("health: %+v", h)
	}
}

// TestStopAbandonsEvaluation: a closed stop channel makes evaluations
// return immediately with the penalty outcome, without counting failures.
// Batched results additionally carry the explicit Stopped marker so
// callers discard them instead of aliasing the penalty point into
// populations or archives (the bug this pins down: stop-abandoned cells
// used to be indistinguishable from genuine evaluations).
func TestStopAbandonsEvaluation(t *testing.T) {
	faultinject.Reset()
	stop := make(chan struct{})
	close(stop)
	p := robustProblem(WithStop(stop))
	f, _, _ := p.Evaluate(robustX)
	if f[0] != failedPenalty {
		t.Fatalf("stopped evaluation returned %v", f)
	}
	out := p.EvaluateBatch([][]float64{robustX, robustX})
	for i, r := range out {
		if r.F[0] != failedPenalty {
			t.Fatalf("stopped batch cell %d returned %v", i, r.F)
		}
		if !r.Stopped {
			t.Fatalf("stopped batch cell %d not marked Stopped: %+v", i, r)
		}
		if r.Screened {
			t.Fatalf("stopped batch cell %d marked Screened: %+v", i, r)
		}
	}
	if h := p.Health(); h.Failures != 0 {
		t.Fatalf("stop counted as failure: %+v", h)
	}
	if err := p.Err(); err != nil {
		t.Fatalf("stop left sticky error: %v", err)
	}
}

// TestStopAbandonsLadderScreening: the stop contract holds on the
// screening rung too — a ladder-enabled batch under a closed stop channel
// marks every cell Stopped (not Screened) and touches no failure or
// promotion counters.
func TestStopAbandonsLadderScreening(t *testing.T) {
	faultinject.Reset()
	stop := make(chan struct{})
	close(stop)
	p := robustProblem(WithStop(stop), WithFidelity(Fidelity{Committee: 1}))
	out := p.EvaluateBatch([][]float64{robustX, robustX})
	for i, r := range out {
		if !r.Stopped || r.Screened {
			t.Fatalf("ladder stop cell %d: %+v", i, r)
		}
	}
	h := p.Health()
	if h.Failures != 0 || h.Screened != 0 || h.Promoted != 0 {
		t.Fatalf("ladder stop touched counters: %+v", h)
	}
}

// TestFingerprintPinned pins the paper-default fingerprint of each paper
// density. Study checkpoints record it and a resume refuses any other,
// so a refactor that moves these bytes orphans every saved study; change
// them only together with a deliberate fingerprint bump.
func TestFingerprintPinned(t *testing.T) {
	for density, want := range map[int]string{
		100: "1c4adc421de9fac41ba94af6c04d01b82763d5a94a825e133aef32173d068369",
		200: "f7a17e1f87a2b3462f0b8dc970da6a3e025e4b3ef7839f61162eee73e2ff20fb",
		300: "ea9081cbf5f899ab06683731bb4075b386af8f40cc9ecfbccec013c513dbc42c",
	} {
		if got := NewProblem(density, 20130520).Fingerprint(); got != want {
			t.Errorf("d%d fingerprint = %s, want %s", density, got, want)
		}
	}
}

// TestFingerprintIdentity: equal studies fingerprint equally; identity
// changes (density, seed, committee, physics arm, domain) all move the
// fingerprint; perf knobs do not.
func TestFingerprintIdentity(t *testing.T) {
	base := NewProblem(100, 7, WithCommittee(3)).Fingerprint()
	if got := NewProblem(100, 7, WithCommittee(3)).Fingerprint(); got != base {
		t.Fatal("identical problems fingerprint differently")
	}
	perf := NewProblem(100, 7, WithCommittee(3),
		WithReferencePath(true), withWorkers(2),
		withLayers(0), WithMaxRetries(5)).Fingerprint()
	if perf != base {
		t.Fatal("perf knobs moved the fingerprint")
	}
	// A disabled fidelity ladder must leave the fingerprint byte-identical
	// (old checkpoints keep resuming); an enabled one must move it, and so
	// must changing its rung or its promotion slack mid-study.
	if got := NewProblem(100, 7, WithCommittee(3), WithFidelity(Fidelity{})).Fingerprint(); got != base {
		t.Fatal("disabled fidelity ladder moved the fingerprint")
	}
	ladder := NewProblem(100, 7, WithCommittee(3), WithFidelity(Fidelity{Committee: 2})).Fingerprint()
	if ladder == base {
		t.Fatal("enabled fidelity ladder did not move the fingerprint")
	}
	for name, p := range map[string]*Problem{
		"density":   NewProblem(200, 7, WithCommittee(3)),
		"seed":      NewProblem(100, 8, WithCommittee(3)),
		"committee": NewProblem(100, 7, WithCommittee(4)),
		"physics":   NewProblem(100, 7, WithCommittee(3), exactArm),
		"rung": NewProblem(100, 7, WithCommittee(3),
			WithFidelity(Fidelity{Committee: 2, Horizon: 0.5})),
		"eps": NewProblem(100, 7, WithCommittee(3),
			WithSettings(Settings{Fidelity: Fidelity{Committee: 2}, PromoteEps: 0.1})),
	} {
		if p.Fingerprint() == base {
			t.Errorf("%s change did not move the fingerprint", name)
		}
	}
	for name, p := range map[string]*Problem{
		"rung": NewProblem(100, 7, WithCommittee(3),
			WithFidelity(Fidelity{Committee: 2, Horizon: 0.5})),
		"eps": NewProblem(100, 7, WithCommittee(3),
			WithSettings(Settings{Fidelity: Fidelity{Committee: 2}, PromoteEps: 0.1})),
	} {
		if p.Fingerprint() == ladder {
			t.Errorf("ladder %s change did not move the fingerprint", name)
		}
	}
}

// TestSettingsMatchKeptSetters: a Problem configured through one
// WithSettings value and one configured through the per-field setter
// (WithFidelity) report the same identity, field for field; a setter
// after WithSettings overrides only its own field; and WithSettings
// leaves the reference engine and the physics arm, which are not
// settings, alone.
func TestSettingsMatchKeptSetters(t *testing.T) {
	rung := Fidelity{Committee: 2, Horizon: 0.5}
	for name, tc := range map[string]struct {
		s    Settings
		opts []Option
	}{
		"default": {Settings{}, nil},
		"ladder":  {Settings{Fidelity: rung}, []Option{WithFidelity(rung)}},
	} {
		a := NewProblem(100, 7, WithCommittee(3), WithSettings(tc.s))
		b := NewProblem(100, 7, append([]Option{WithCommittee(3)}, tc.opts...)...)
		if a.Fingerprint() != b.Fingerprint() || a.Fidelity() != b.Fidelity() ||
			a.PromoteEpsilon() != b.PromoteEpsilon() {
			t.Errorf("%s: WithSettings and the setters disagree: fidelity %v/%v eps %v/%v",
				name, a.Fidelity(), b.Fidelity(), a.PromoteEpsilon(), b.PromoteEpsilon())
		}
	}
	p := NewProblem(100, 7, WithCommittee(3),
		WithSettings(Settings{Fidelity: rung, PromoteEps: 0.1}), WithFidelity(Fidelity{Committee: 1}))
	if p.Fidelity() != (Fidelity{Committee: 1}) || p.PromoteEpsilon() != 0.1 {
		t.Fatalf("a setter after WithSettings changed more than its field: fidelity %v eps %v",
			p.Fidelity(), p.PromoteEpsilon())
	}
	if p := NewProblem(100, 7, WithCommittee(3), WithReferencePath(true), WithSettings(Settings{})); !p.reference {
		t.Fatal("WithSettings reset the reference engine")
	}
	if p := NewProblem(100, 7, WithCommittee(3), exactArm, WithSettings(Settings{})); !p.cfg.ExactPhysics {
		t.Fatal("WithSettings reset the physics arm")
	}
}

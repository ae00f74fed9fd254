package eval

import "fmt"

// Settings is the evaluation configuration a caller chooses: the one
// value aedbmls.Config and experiments.Scale embed and the CLIs bind
// flags to (cliutil.AddEvalFlags). ExactPhysics, Fidelity and PromoteEps
// change what an evaluation computes, so they enter Fingerprint;
// ScenarioWorkers and ReferencePath only change its speed, with
// bit-identical Metrics. The zero value is the default engine.
type Settings struct {
	// ScenarioWorkers fans the committee of every Evaluate, Simulate and
	// SimulateProtocol call across up to this many goroutines
	// (committee-parallel evaluation). Per-scenario results are reduced
	// in committee order, so metrics are bit-identical for any value.
	// <= 1 keeps each evaluation on its calling goroutine, which is right
	// whenever the optimiser above already saturates the cores.
	ScenarioWorkers int
	// ReferencePath selects the reference evaluation engine: full-tail
	// simulations with complete per-node frame accounting, no beacon-tape
	// replay and directly built (never masked) warm-up snapshots, on
	// every path. The default engine (quiescence early stop, beacon-tape
	// replay, arena buffer reuse) is bit-identical at the Metrics,
	// objective and violation level; the reference engine is the
	// comparison arm of the golden corpus and the equivalence tests.
	ReferencePath bool
	// ExactPhysics computes every reception power as radio.RxPower — a
	// square root plus an interface Model.Loss call per candidate
	// receiver — instead of the fused d2-space kernel (radio.NewKernel).
	// The arms agree within a ULP-scaled bound on every reception power
	// (radio.FuzzKernelVsReference) and on every discrete metric of the
	// golden corpus; the energy sums differ in the last bits, so the
	// golden corpus records both arms and the shared caches never serve
	// one arm's tapes or snapshots to the other. Set it for runs that
	// must extend reference-physics results bit-for-bit.
	ExactPhysics bool
	// Fidelity is the screening rung of the multi-fidelity ladder on
	// batched evaluations (see WithFidelity); the zero value keeps every
	// evaluation at full fidelity.
	Fidelity Fidelity
	// PromoteEps is the promotion slack of the ladder gate (default
	// DefaultPromoteEps): a screened candidate is triaged out only when
	// some reference-front point is better by at least PromoteEps
	// RELATIVE TO THAT POINT'S OWN MAGNITUDE in EVERY objective (with
	// PromoteEps times the broadcast-time limit as the slack of the
	// feasibility comparison). Larger values promote more candidates —
	// safer, slower. It needs an enabled Fidelity (see Validate).
	PromoteEps float64
}

// Validate rejects settings that would otherwise be dropped silently: a
// negative PromoteEps, and a positive one with the ladder off.
func (s Settings) Validate() error {
	if s.PromoteEps < 0 {
		return fmt.Errorf("eval: promote-eps must be >= 0, got %g", s.PromoteEps)
	}
	if s.PromoteEps > 0 && !s.Fidelity.Enabled() {
		return fmt.Errorf("eval: promote-eps %g has no effect without a fidelity rung", s.PromoteEps)
	}
	return nil
}

// WithSettings replaces the Problem's Settings. Options apply in order,
// so a later WithReferencePath or WithFidelity overrides its one field.
func WithSettings(s Settings) Option { return func(p *Problem) { p.settings = s } }

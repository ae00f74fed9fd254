package eval

import "fmt"

// Settings is the evaluation configuration a caller chooses: the one
// value aedbmls.Config and experiments.Scale embed and the CLIs bind
// flags to (cliutil.AddEvalFlags). Every field changes what an evaluation
// computes, so every field enters Fingerprint (the ladder's two once the
// ladder engages). The zero value is the default engine. Neither parallelism nor the engine is a setting: the
// cell scheduler sizes itself from the idle cores (see cells.go), and the
// bit-identical reference engine is a test oracle (WithReferencePath).
type Settings struct {
	// ExactPhysics computes every reception power as radio.RxPower — a
	// square root plus an interface Model.Loss call per candidate
	// receiver — instead of the fused d2-space kernel (radio.NewKernel).
	// The arms agree within a ULP-scaled bound on every reception power
	// (radio.FuzzKernelVsReference) and on every discrete metric of the
	// golden corpus; the energy sums differ in the last bits, so the
	// golden corpus records both arms and the scenario store never serves
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
// so a later WithFidelity overrides its one field.
func WithSettings(s Settings) Option { return func(p *Problem) { p.settings = s } }

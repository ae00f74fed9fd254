package eval

import (
	"fmt"
	"math"
)

// Settings is the evaluation configuration a caller chooses: the one
// value aedbmls.Config and experiments.Scale embed and the CLIs bind
// flags to (cliutil.AddEvalFlags). Both fields are the fidelity ladder's;
// they change which candidates are evaluated at full fidelity, so they
// enter Fingerprint once the ladder engages. The zero value is the
// default engine. Neither parallelism, the engine nor the physics is a
// setting: the cell scheduler sizes itself from the idle cores (see
// cells.go), the bit-identical reference engine is a test oracle
// (WithReferencePath), and so is the reference path-loss formula
// (manet.Config.ExactPhysics through WithConfig).
type Settings struct {
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

// Validate rejects settings that would otherwise be dropped silently or
// misapplied: a negative or non-finite PromoteEps (a NaN slack, or an
// infinite one against a zero objective, makes every gate comparison
// false, so the gate would triage candidates that beat the reference
// front), and a positive one with the ladder off.
func (s Settings) Validate() error {
	if !(s.PromoteEps >= 0) || math.IsInf(s.PromoteEps, 1) {
		return fmt.Errorf("eval: promote-eps must be finite and >= 0, got %g", s.PromoteEps)
	}
	if s.PromoteEps > 0 && !s.Fidelity.Enabled() {
		return fmt.Errorf("eval: promote-eps %g has no effect without a fidelity rung", s.PromoteEps)
	}
	return nil
}

// WithSettings replaces the Problem's Settings. Options apply in order,
// so a later WithFidelity overrides its one field.
func WithSettings(s Settings) Option { return func(p *Problem) { p.settings = s } }

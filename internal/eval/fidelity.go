// Multi-fidelity evaluation ladder.
//
// The ladder exploits two structural facts of the committee evaluation:
// the frozen scenarios NEST (scenario i is identical for every committee
// size >= i+1, see NewProblem), so a committee subset is a prefix rather
// than a reshuffle; and every simulation exposes a bounded-run primitive
// (sim.StepUntil), so the broadcast phase can be truncated at a fraction
// of its horizon. A batched candidate is therefore first SCREENED on a
// cheap rung — a committee prefix at a truncated horizon — and only
// promoted to the full-fidelity rung when its screening estimate is
// within epsilon of the Problem's reference front under constrained
// dominance. Candidates the gate triages out are returned with the
// screening estimate marked moo.BatchResult.Screened; the optimizers
// discard them at their evaluation boundary, so ONLY full-fidelity
// results ever reach an incumbent, a population slot or an archive, and
// the paper metrics stay exact.
//
// The ladder sits ABOVE the caching layers: screening and full-fidelity
// passes replay the same shared warm-up snapshots and beacon tapes (a
// truncated replay simply stops consuming the tape earlier), so enabling
// it changes which simulations run, never how any simulation runs. The
// serial Evaluate/Simulate path is always full fidelity — the ladder is a
// batch-triage policy, not an evaluation mode — which keeps the golden
// corpus, MLS initialisation and per-cell CellDE sweeps bit-identical
// with the ladder on or off.
//
// The reference front the gate compares against is the non-dominated set
// of every full-fidelity outcome this Problem has produced — a
// conservative over-approximation of any optimizer archive front built
// from those evaluations. It starts empty (the first batch promotes
// everything, bootstrapping the front from full evaluations) and is
// process-local: it is deliberately NOT part of checkpoints, so a
// resumed ladder-enabled study is a legitimate continuation but not a
// bit-identical replay of the uninterrupted run. Fingerprint folds the
// ladder configuration in whenever it is enabled, so a resume can never
// silently change rungs mid-study.
package eval

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"

	"aedbmls/internal/manet"
	"aedbmls/internal/moo"
)

// Fidelity describes the screening rung of the evaluation ladder.
// The zero value disables the ladder.
type Fidelity struct {
	// Committee is the number of committee scenarios the screening rung
	// evaluates — a prefix of the frozen committee, since scenarios nest.
	// <= 0 means the full committee.
	Committee int
	// Horizon is the fraction (0,1] of the broadcast window
	// (EndTime - WarmupTime) the screening simulations run before being
	// truncated; quiescence still ends them early. <= 0 or >= 1 means the
	// full horizon.
	Horizon float64
}

// Enabled reports whether f asks for any reduction at all. Whether the
// ladder actually engages also depends on the Problem (a screening
// committee >= the full committee at full horizon is a no-op); see
// Problem.ladderActive.
func (f Fidelity) Enabled() bool {
	return f.Committee > 0 || (f.Horizon > 0 && f.Horizon < 1)
}

// String renders the rung in the CLI's "C:H" form.
func (f Fidelity) String() string {
	if !f.Enabled() {
		return "off"
	}
	if f.Horizon > 0 && f.Horizon < 1 {
		return fmt.Sprintf("%d:%g", f.Committee, f.Horizon)
	}
	return strconv.Itoa(f.Committee)
}

// ParseFidelity parses the CLI form of a screening rung: "C" (committee
// prefix size at full horizon) or "C:H" (prefix size plus horizon
// fraction in (0,1]). "" and "0" disable the ladder.
func ParseFidelity(s string) (Fidelity, error) {
	s = strings.TrimSpace(s)
	if s == "" || s == "0" || s == "off" {
		return Fidelity{}, nil
	}
	cs, hs, hasH := strings.Cut(s, ":")
	c, err := strconv.Atoi(cs)
	if err != nil || c < 0 {
		return Fidelity{}, fmt.Errorf("eval: bad fidelity committee %q (want \"C\" or \"C:H\")", s)
	}
	f := Fidelity{Committee: c}
	if hasH {
		h, err := strconv.ParseFloat(hs, 64)
		if err != nil || !(h > 0 && h <= 1) { // NaN too
			return Fidelity{}, fmt.Errorf("eval: bad fidelity horizon %q (want a fraction in (0,1])", s)
		}
		f.Horizon = h
	}
	return f, nil
}

// DefaultPromoteEps is the promotion slack when the ladder is enabled
// without an explicit Settings.PromoteEps. The default is 0 — pure
// weak-dominance racing: a screening estimate is triaged exactly when a
// reference-front point is at least as good everywhere. This is the
// right default for committee-averaged objectives, whose coarse
// granularity (counts averaged over a handful of scenarios) produces
// exact ties that any positive margin would shield from triage,
// collapsing the ladder's throughput win; a positive slack remains the
// conservative opt-in when screening estimates are too noisy to race.
const DefaultPromoteEps = 0

// WithFidelity sets Settings.Fidelity: EvaluateBatch screens every
// candidate on the given rung first and re-evaluates only gate survivors
// at full fidelity (see the package comment at the top of fidelity.go).
// Serial Evaluate/Simulate calls are always full fidelity. The zero
// Fidelity (or one requesting no reduction) leaves every path
// bit-identical to a ladder-free Problem.
func WithFidelity(f Fidelity) Option { return func(p *Problem) { p.settings.Fidelity = f } }

// Fidelity returns the configured screening rung (zero when the ladder
// is disabled).
func (p *Problem) Fidelity() Fidelity { return p.settings.Fidelity }

// PromoteEpsilon returns the promotion slack the ladder gate applies.
func (p *Problem) PromoteEpsilon() float64 { return p.settings.PromoteEps }

// ladderActive reports whether EvaluateBatch should screen: the
// configured rung must reduce SOMETHING relative to this Problem's
// committee and horizon.
func (p *Problem) ladderActive() bool {
	if !p.settings.Fidelity.Enabled() {
		return false
	}
	return p.screenCommittee() < len(p.scenarios) || p.screenHorizon() < 1
}

// screenCommittee resolves the screening prefix size against the actual
// committee.
func (p *Problem) screenCommittee() int {
	c := p.settings.Fidelity.Committee
	if c <= 0 || c > len(p.scenarios) {
		return len(p.scenarios)
	}
	return c
}

// screenHorizon resolves the screening horizon fraction.
func (p *Problem) screenHorizon() float64 {
	h := p.settings.Fidelity.Horizon
	if h <= 0 || h >= 1 {
		return 1
	}
	return h
}

// screenBound converts the horizon fraction into an absolute simulation
// end time for the screening rung (0 = run to the configured EndTime).
func (p *Problem) screenBound() float64 {
	h := p.screenHorizon()
	if h >= 1 {
		return 0
	}
	return p.cfg.WarmupTime + h*(p.cfg.EndTime-p.cfg.WarmupTime)
}

// ladderState is the Problem's reference front: the non-dominated set
// (under Deb's constrained dominance) of every full-fidelity outcome the
// Problem has produced, against which screening estimates are gated.
type ladderState struct {
	mu    sync.Mutex
	front []frontEntry
}

// frontEntry is one reference-front point.
type frontEntry struct {
	f    []float64
	viol float64
}

// maxLadderFront caps the reference front so the gate stays O(front) per
// candidate with bounded memory. Optimizer archives in this repository
// hold <= ~100 points; past the cap new non-dominated points are simply
// not recorded (the gate stays conservative: a smaller front triages
// less, never more full evaluations than the archive warrants).
const maxLadderFront = 256

// entryDominates applies Deb's constrained-dominance rule to two
// reference-front points (mirrors moo.Dominates without allocating
// Solutions).
func entryDominates(a, b frontEntry) bool {
	af, bf := a.viol <= 0, b.viol <= 0
	switch {
	case af && !bf:
		return true
	case !af && bf:
		return false
	case !af && !bf:
		return a.viol < b.viol
	default:
		return moo.ParetoDominates(a.f, b.f)
	}
}

// observe folds one full-fidelity outcome into the reference front.
// Callers hold l.mu.
func (l *ladderState) observe(f []float64, viol float64) {
	e := frontEntry{f: append([]float64(nil), f...), viol: viol}
	for _, q := range l.front {
		if entryDominates(q, e) || (q.viol == e.viol && equalVec(q.f, e.f)) {
			return
		}
	}
	keep := l.front[:0]
	for _, q := range l.front {
		if !entryDominates(e, q) {
			keep = append(keep, q)
		}
	}
	l.front = keep
	if len(l.front) < maxLadderFront {
		l.front = append(l.front, e)
	}
}

func equalVec(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// triaged reports whether a screening estimate (f, viol) should be
// triaged out: some reference-front point epsilon-dominates it — beats
// it by at least the relative margin in every objective under Deb's
// rule. A candidate within epsilon of the front (in particular any
// candidate the front does not dominate at all) is promoted. Callers
// hold l.mu.
func (l *ladderState) triaged(f []float64, viol float64, eps float64) bool {
	for _, q := range l.front {
		if entryEpsDominates(q, f, viol, eps) {
			return true
		}
	}
	return false
}

// entryEpsDominates reports whether front point q dominates the
// candidate (f, viol) with slack: feasible q dominates a candidate whose
// violation exceeds eps times the broadcast-time limit; between two
// infeasible points the candidate must violate by that much more;
// between feasible points q must be better by eps RELATIVE to its own
// magnitude — q.f[k] + eps|q.f[k]| <= f[k] — in every objective k. The
// margin is point-relative rather than front-range-relative so one
// wide-spanning objective (the energy sum spans orders of magnitude
// across a front) cannot inflate every margin and disable the gate.
func entryEpsDominates(q frontEntry, f []float64, viol float64, eps float64) bool {
	epsViol := eps * BroadcastTimeLimit
	qf, cf := q.viol <= 0, viol <= 0
	switch {
	case qf && !cf:
		return viol > epsViol
	case !qf && cf:
		return false
	case !qf && !cf:
		return viol > q.viol+epsViol
	}
	for k := range f {
		if v := q.f[k]; v+eps*math.Abs(v) > f[k] {
			return false
		}
	}
	return true
}

// FrontSize returns the current size of the ladder's reference front
// (0 when the ladder is disabled or nothing full-fidelity has been
// observed yet).
func (p *Problem) FrontSize() int {
	p.ladder.mu.Lock()
	defer p.ladder.mu.Unlock()
	return len(p.ladder.front)
}

// observeFull records a completed full-fidelity outcome in the reference
// front, skipping penalty outcomes (a degraded candidate carries no
// information about the objective landscape).
func (p *Problem) observeFull(f []float64, viol float64) {
	if !p.ladderActive() {
		return
	}
	if len(f) > 0 && f[0] >= failedPenalty {
		return
	}
	p.ladder.mu.Lock()
	p.ladder.observe(f, viol)
	p.ladder.mu.Unlock()
}

// ladderBatch is EvaluateBatch's screening path: one cheap wave pass
// over the whole batch, the promotion gate, and a full-fidelity pass
// over the survivors. When the screening rung runs at full horizon, its
// cells are the very simulations the full pass would run on the same
// committee prefix, so the full pass reuses them and simulates only the
// remaining scenarios.
//
// The gate triages a candidate when its screening estimate is
// epsilon-dominated by EITHER reference set:
//
//   - the full-fidelity front (every full outcome this Problem has
//     produced) — a cross-fidelity comparison, deliberately biased
//     toward promotion because truncated estimates under-count energy
//     and forwardings;
//   - the screening front (the non-dominated set of past screening
//     estimates at this same rung) — the like-for-like racing
//     comparison, which is what actually triages at depth: an estimate
//     epsilon-dominated by the best estimates ever seen has, with
//     margin, never turned into an archive entry.
//
// Gate decisions within one batch are all taken against the pre-batch
// fronts — deterministic and order-independent — and both fronts are
// grown afterwards (screen front from the promoted estimates, full
// front from the promoted full-fidelity results).
func (p *Problem) ladderBatch(factories []func(*manet.Node) manet.Protocol) []moo.BatchResult {
	n := len(factories)
	sc, nsc := p.screenCommittee(), len(p.scenarios)
	screenTerms := make([]Metrics, n*sc)
	sm, serr := p.runWaves(factories, 0, sc, p.screenBound(), screenTerms)
	p.health.screenEvals.Add(int64(n))

	out := make([]moo.BatchResult, n)
	eps := p.PromoteEpsilon()
	cut := make([]bool, n)
	p.ladder.mu.Lock()
	for j := range factories {
		if errors.Is(serr[j], ErrStopped) {
			continue
		}
		r := batchResultOf(sm[j], false, false)
		cut[j] = p.ladder.triaged(r.F, r.Violation, eps)
	}
	p.ladder.mu.Unlock()

	promote := make([]int, 0, n)
	triaged := 0
	p.screenFront.mu.Lock()
	for j := range factories {
		if errors.Is(serr[j], ErrStopped) {
			out[j] = batchResultOf(sm[j], true, false)
			continue
		}
		r := batchResultOf(sm[j], false, false)
		if cut[j] || p.screenFront.triaged(r.F, r.Violation, eps) {
			r.Screened = true
			out[j] = r
			triaged++
			continue
		}
		promote = append(promote, j)
	}
	// Every valid estimate grows the screening front — after all of this
	// batch's gate decisions, so ordering within the batch cannot matter.
	for j := range factories {
		if errors.Is(serr[j], ErrStopped) {
			continue
		}
		r := batchResultOf(sm[j], false, false)
		if r.F[0] < failedPenalty {
			p.screenFront.observe(r.F, r.Violation)
		}
	}
	p.screenFront.mu.Unlock()
	p.health.screened.Add(int64(triaged))

	if len(promote) == 0 {
		return out
	}
	// The full pass reuses the screening cells when they ran at full
	// horizon and every promoted candidate's screening succeeded (a
	// degraded screening re-runs its whole committee, as any candidate
	// would).
	reuse := 0
	if p.screenBound() == 0 {
		reuse = sc
		for _, j := range promote {
			if serr[j] != nil {
				reuse = 0
				break
			}
		}
	}
	sub := make([]func(*manet.Node) manet.Protocol, len(promote))
	terms := make([]Metrics, len(promote)*nsc)
	for k, j := range promote {
		sub[k] = factories[j]
		copy(terms[k*nsc:k*nsc+reuse], screenTerms[j*sc:j*sc+reuse])
	}
	fm, ferr := p.runWaves(sub, reuse, nsc, 0, terms)
	p.health.promoted.Add(int64(len(promote)))
	p.health.fullEvals.Add(int64(len(promote)))
	for k, j := range promote {
		stopped := errors.Is(ferr[k], ErrStopped)
		out[j] = batchResultOf(fm[k], stopped, false)
		if !stopped {
			p.observeFull(out[j].F, out[j].Violation)
		}
	}
	return out
}

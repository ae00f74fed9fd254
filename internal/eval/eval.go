// Package eval defines the AEDB tuning problem of the paper: evaluating a
// five-parameter AEDB configuration means simulating one broadcast on each
// of ten fixed networks and averaging the observed metrics (Eq. 1).
//
// Objectives (all minimised, per the moo convention):
//
//	f0 = energy      — sum of data-transmission power levels in dBm
//	f1 = -coverage   — devices reached (negated: the paper maximises it)
//	f2 = forwardings — non-source data transmissions
//
// subject to the broadcast-time constraint bt < 2 s. The ten networks are
// frozen per density (derived deterministically from the problem seed), so
// every candidate configuration is judged on exactly the same scenarios,
// as in the paper.
//
// # Warm-start evaluation
//
// The warm-up phase of each committee scenario (mobility + beaconing from
// t=0 to WarmupTime) depends only on the frozen scenario seed, never on
// the parameter vector under evaluation. The problem therefore builds one
// manet.Snapshot per scenario on first use and every Evaluate clones from
// it, simulating only the broadcast phase. The snapshot path is
// bit-identical to a from-scratch simulation (see manet/snapshot.go for
// the determinism contract); the equivalence tests compare it against
// the from-scratch path by clearing layerWarmStart (see layers).
//
// # The default fast path, and the reference path
//
// Every evaluation path — serial Evaluate, committee-parallel Evaluate,
// EvaluateBatch — defaults to the throughput engine: beacon-tape replay
// (the scenario's protocol-independent beacon evolution is recorded once
// and served lazily to every simulation, see manet/tape.go) plus
// broadcast-quiescence early stop (each simulation ends the moment the
// last live forwarding decision is resolved, see manet.RunToQuiescence),
// with instantiation buffers recycled through per-goroutine arenas
// (manet.Arena). Objectives, violations and Metrics are bit-identical to
// the reference engine; per-node frame accounting inside the simulations
// is not (the dead tail of each simulation is skipped and beacon traffic
// is replayed, not re-simulated).
//
// Settings.ReferencePath opts a Problem out: every simulation then runs
// the full-tail reference engine with complete per-node accounting. The
// golden-metrics corpus and the equivalence tables hold the two engines
// bit-identical at the Metrics level.
//
// # Cross-density warm-up sharing
//
// The committee scenarios are frozen from the problem seed alone — not
// the density — so the same scenario seed instantiates the 25-, 50- and
// 75-node committees of densities 100/200/300 as nested prefixes of one
// node population. The warm-up snapshot of each scenario is therefore
// built once at the largest paper committee size and masked down
// (manet.Snapshot.Mask) for smaller densities, through a process-wide
// cache shared by every Problem with a shareable (default-shaped)
// configuration. Masked and directly built snapshots are bit-identical
// on every metric.
//
// # Process-wide beacon-tape sharing
//
// Beacon tapes get the same treatment: for share-eligible configurations
// the tape of each committee scenario is recorded once per process at the
// largest paper committee size (from the shared warm-up parent) and keyed
// by (config fingerprint, scenario seed, node count), so concurrent and
// sequential Problems over the same scenario generator replay one
// recording, and each smaller density's tape is derived from the parent
// as a masked prefix (manet.BeaconTape.Mask) instead of re-recorded.
// Shared/masked and per-Problem-recorded tapes are bit-identical on every
// metric. Both caches are capped (maxSharedWarmups, maxSharedTapes);
// past a cap a Problem builds its own snapshots and tapes.
//
// # Batched and committee-parallel evaluation
//
//   - EvaluateBatch (the moo.BatchProblem implementation) evaluates a
//     whole set of parameter vectors — an MLS neighborhood, a MOEA
//     offspring generation — scenario-major: one snapshot-clone wave per
//     committee scenario streams every candidate through that scenario,
//     reusing one arena per wave, and waves fan out across up to
//     WithBatchWorkers goroutines.
//   - Settings.ScenarioWorkers fans the committee of every single
//     Evaluate/Simulate/SimulateProtocol call across goroutines,
//     reducing single-evaluation latency on idle cores.
//
// Every path accumulates the committee average through the same ordered
// reduction (reduceCommittee), so results are bit-identical across all of
// them for any worker count.
package eval

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"aedbmls/internal/aedb"
	"aedbmls/internal/faultinject"
	"aedbmls/internal/geom"
	"aedbmls/internal/manet"
	"aedbmls/internal/moo"
	"aedbmls/internal/radio"
	"aedbmls/internal/rng"
)

// BroadcastTimeLimit is the feasibility constraint of Eq. 1.
const BroadcastTimeLimit = 2.0

// DefaultCommittee is the number of fixed networks per evaluation.
const DefaultCommittee = 10

// Density labels used throughout the paper (devices/km^2 -> nodes in the
// 0.25 km^2 arena).
var DensityNodes = map[int]int{100: 25, 200: 50, 300: 75}

// Metrics is the raw (pre-negation) averaged outcome of one evaluation.
type Metrics struct {
	EnergyDBmSum  float64 // paper's energy objective
	Coverage      float64 // devices reached, source excluded
	Forwardings   float64
	BroadcastTime float64
	EnergyMJ      float64 // physical radiated energy (reporting only)
	Collisions    float64
}

// String renders the metrics in paper units.
func (m Metrics) String() string {
	return fmt.Sprintf("energy=%.2f coverage=%.2f forwardings=%.2f bt=%.3fs",
		m.EnergyDBmSum, m.Coverage, m.Forwardings, m.BroadcastTime)
}

// scenario is one frozen network of the committee.
type scenario struct {
	seed   uint64
	source int
}

// warmSlot lazily holds one scenario's warm-start snapshot, or the error
// that prevented building it. done flips (atomically, after snap/err are
// written) when the build has completed, so readers outside the once can
// inspect err without racing an in-flight build.
type warmSlot struct {
	once sync.Once
	snap *manet.Snapshot
	err  error
	done atomic.Bool
}

// tapeSlot lazily holds one scenario's beacon tape for the batch fast
// path (nil when recording is unavailable for the configuration).
type tapeSlot struct {
	once sync.Once
	tape *manet.BeaconTape
}

// Problem is the AEDB tuning problem for one network density. It is safe
// for concurrent Evaluate and EvaluateBatch calls; each call builds its
// simulations from the frozen seeds (via the shared warm-start snapshots,
// or from scratch).
type Problem struct {
	cfg          manet.Config
	domain       aedb.Domain
	committee    int
	scenarios    []scenario
	density      int
	settings     Settings
	layers       layers
	batchWorkers int
	maxRetries   int
	retryBackoff time.Duration
	evalTimeout  time.Duration
	stop         <-chan struct{}
	ladder       ladderState
	screenFront  ladderState
	snaps        []warmSlot
	tapes        []tapeSlot
	arenas       sync.Pool
	evals        atomic.Int64
	health       health
}

// layers is the engine's mask of bit-identical throughput layers, all on
// by default. Only this package's tests and benchmarks clear bits, to A/B
// one layer against the others; callers choose engines through Settings.
type layers uint8

const (
	// layerWarmStart clones each simulation from the scenario's warm-up
	// snapshot; off, every simulation runs from t=0.
	layerWarmStart layers = 1 << iota
	// layerSharedWarmups masks snapshots from the process-wide warm-up
	// cache; off, the Problem builds its own at its own node count (the
	// shared tape cache still records its parents from shared warm-ups).
	layerSharedWarmups
	// layerSharedTapes replays beacon tapes from the process-wide tape
	// cache; off, the Problem records its own from its own snapshots.
	layerSharedTapes
	// layerArenas recycles instantiation buffers (node/RNG blocks,
	// neighbor index, event heap, grid, neighbor tables) through pooled
	// arenas; off, every simulation allocates afresh.
	layerArenas
	allLayers = layerWarmStart | layerSharedWarmups | layerSharedTapes | layerArenas
)

// health is the Problem's supervision counter block (see Health).
type health struct {
	panics          atomic.Int64
	errors          atomic.Int64
	retries         atomic.Int64
	timeouts        atomic.Int64
	failures        atomic.Int64
	serialFallbacks atomic.Int64
	screenEvals     atomic.Int64
	screened        atomic.Int64
	promoted        atomic.Int64
	fullEvals       atomic.Int64
	lastErr         atomic.Value // error
}

// Health is a snapshot of a Problem's evaluation-supervision counters.
// A long-running study surfaces it so operators can distinguish "clean
// run" from "run that survived N worker faults". The JSON field names
// are part of the tuning service's /healthz wire format.
type Health struct {
	// Panics counts simulation panics recovered into errors.
	Panics int64 `json:"panics"`
	// Errors counts non-panic evaluation errors (scenario construction
	// failures, injected faults).
	Errors int64 `json:"errors"`
	// Retries counts supervised re-attempts after a failure.
	Retries int64 `json:"retries"`
	// Timeouts counts attempts abandoned at the per-evaluation timeout.
	Timeouts int64 `json:"timeouts"`
	// Failures counts candidate evaluations degraded to FailedMetrics
	// after every retry (and the serial fallback) was exhausted.
	Failures int64 `json:"failures"`
	// SerialFallbacks counts scenario cells that failed inside a parallel
	// wave and were re-attempted serially.
	SerialFallbacks int64 `json:"serial_fallbacks"`
	// ScreenEvals counts candidates evaluated on the ladder's cheap
	// screening rung (committee prefix, truncated horizon).
	ScreenEvals int64 `json:"screen_evals"`
	// Screened counts candidates the promotion gate triaged out: their
	// screening estimate was epsilon-dominated by the reference front, so
	// they were never evaluated at full fidelity.
	Screened int64 `json:"screened"`
	// Promoted counts screened candidates that passed the gate and were
	// re-evaluated at full fidelity.
	Promoted int64 `json:"promoted"`
	// FullEvals counts full-fidelity committee evaluations across every
	// path (serial, ladder-off batches, ladder promotions). The ladder's
	// throughput win is this counter dropping relative to a ladder-off
	// run of the same budget.
	FullEvals int64 `json:"full_evals"`
}

// Health returns the current supervision counters.
func (p *Problem) Health() Health {
	return Health{
		Panics:          p.health.panics.Load(),
		Errors:          p.health.errors.Load(),
		Retries:         p.health.retries.Load(),
		Timeouts:        p.health.timeouts.Load(),
		Failures:        p.health.failures.Load(),
		SerialFallbacks: p.health.serialFallbacks.Load(),
		ScreenEvals:     p.health.screenEvals.Load(),
		Screened:        p.health.screened.Load(),
		Promoted:        p.health.promoted.Load(),
		FullEvals:       p.health.fullEvals.Load(),
	}
}

// Err returns the most recent evaluation failure that degraded a
// candidate, or nil if every evaluation so far succeeded.
func (p *Problem) Err() error {
	if e, ok := p.health.lastErr.Load().(error); ok {
		return e
	}
	return nil
}

// ErrStopped marks an evaluation abandoned because the Problem's stop
// channel (WithStop) closed. Results of the interrupted call are
// unspecified and must be discarded by the caller; optimizers do so by
// checking their own stop signal before applying evaluation results.
var ErrStopped = errors.New("eval: stopped")

// failedPenalty is the objective value of a degraded candidate. It is a
// large FINITE number, not Inf/NaN: the penalty must push the candidate
// behind every real one under constrained dominance (the huge
// BroadcastTime makes it maximally infeasible) without poisoning
// crowding-distance normalisation, which divides by objective ranges and
// would turn an Inf range into NaN sort keys.
const failedPenalty = 1e18

// FailedMetrics is the deterministic penalty outcome a candidate receives
// when its committee evaluation failed permanently (after retries and the
// serial fallback): worst-possible on every objective and hugely
// infeasible, so selection discards it against any genuine evaluation.
func FailedMetrics() Metrics {
	return Metrics{
		EnergyDBmSum:  failedPenalty,
		Coverage:      -failedPenalty, // objective is -Coverage: minimised, so this is worst
		Forwardings:   failedPenalty,
		BroadcastTime: failedPenalty,
	}
}

// Option customises a Problem.
type Option func(*Problem)

// WithDomain overrides the decision-space box (e.g. the wider sensitivity
// domain).
func WithDomain(d aedb.Domain) Option { return func(p *Problem) { p.domain = d } }

// WithCommittee overrides the number of frozen networks (default 10).
// Committees larger than the default draw additional frozen scenarios
// from the same master stream, so a larger committee extends — rather
// than reshuffles — a smaller one with the same problem seed.
func WithCommittee(n int) Option {
	return func(p *Problem) {
		if n < 1 {
			n = 1
		}
		p.committee = n
	}
}

// WithConfig overrides the manet scenario (node count is preserved from
// the density unless the config sets it).
func WithConfig(cfg manet.Config) Option { return func(p *Problem) { p.cfg = cfg } }

// WithBatchWorkers caps the goroutines an EvaluateBatch call fans its
// scenario waves across. 0 (the default) uses GOMAXPROCS; 1 keeps the
// batch on the calling goroutine.
func WithBatchWorkers(n int) Option { return func(p *Problem) { p.batchWorkers = n } }

// WithReferencePath sets Settings.ReferencePath: the full-tail reference
// engine on every path, serial Evaluate as well as EvaluateBatch.
func WithReferencePath(enabled bool) Option {
	return func(p *Problem) { p.settings.ReferencePath = enabled }
}

// WithMaxRetries sets how many times a failed scenario attempt (panic,
// construction error, timeout) is retried with backoff before the
// candidate degrades to FailedMetrics (default 1; 0 disables retries).
// Deterministic simulations fail deterministically, so retries exist for
// environmental failures — resource exhaustion, injected faults — not
// logic errors.
func WithMaxRetries(n int) Option {
	return func(p *Problem) {
		if n < 0 {
			n = 0
		}
		p.maxRetries = n
	}
}

// WithEvalTimeout bounds each supervised scenario attempt (default 0: no
// timeout). A timed-out attempt counts as a failure (retried, then
// degraded); its goroutine is abandoned and its arena is never returned
// to the pool, so a wedged simulation cannot corrupt later evaluations.
func WithEvalTimeout(d time.Duration) Option { return func(p *Problem) { p.evalTimeout = d } }

// WithStop threads a cancellation signal into the Problem: once the
// channel closes, committee and batch evaluations abandon their remaining
// scenarios and return immediately. Results of interrupted calls are
// garbage by contract — the optimizer checks the same signal at its own
// boundaries and discards them (see ErrStopped).
func WithStop(stop <-chan struct{}) Option { return func(p *Problem) { p.stop = stop } }

// NewProblem builds the tuning problem for a density in devices/km^2
// (100, 200 or 300 in the paper; other values scale by area). The seed
// freezes the network committee.
func NewProblem(density int, seed uint64, opts ...Option) *Problem {
	nodes, ok := DensityNodes[density]
	if !ok {
		nodes = manet.NodesForDensity(manet.DefaultScenario(1).Area, float64(density))
		if nodes < 2 {
			nodes = 2
		}
	}
	p := &Problem{
		cfg:          manet.DefaultScenario(nodes),
		domain:       aedb.DefaultDomain(),
		committee:    DefaultCommittee,
		density:      density,
		layers:       allLayers,
		maxRetries:   1,
		retryBackoff: 5 * time.Millisecond,
	}
	for _, o := range opts {
		o(p)
	}
	if p.cfg.NumNodes <= 0 {
		p.cfg.NumNodes = nodes
	}
	// Settings.ExactPhysics and a WithConfig carrying ExactPhysics both
	// opt into the reference physics arm; neither can silently opt the
	// other out.
	p.cfg.ExactPhysics = p.cfg.ExactPhysics || p.settings.ExactPhysics
	p.settings.ExactPhysics = p.cfg.ExactPhysics
	// Freeze the committee: scenario seeds and source draws come from a
	// master stream that depends only on the problem seed — NOT the
	// density — so scenario i of every density is the same node
	// population at a different prefix size (the cross-density warm-up
	// sharing contract; see Snapshot.Mask). Scenario i is also the same
	// for every committee size >= i+1, so larger committees extend
	// smaller ones.
	master := rng.New(seed)
	for i := 0; i < p.committee; i++ {
		sSeed := master.Uint64()
		srcDraw := master.Uint64()
		p.scenarios = append(p.scenarios, scenario{
			seed:   sSeed,
			source: int(srcDraw % uint64(p.cfg.NumNodes)),
		})
	}
	p.snaps = make([]warmSlot, len(p.scenarios))
	p.tapes = make([]tapeSlot, len(p.scenarios))
	p.arenas.New = func() any { return manet.NewArena() }
	return p
}

// Name implements moo.Problem.
func (p *Problem) Name() string { return fmt.Sprintf("aedb-tuning-%ddev", p.density) }

// Density returns the density label (devices/km^2).
func (p *Problem) Density() int { return p.density }

// Nodes returns the number of devices per network.
func (p *Problem) Nodes() int { return p.cfg.NumNodes }

// Committee returns the number of frozen networks per evaluation.
func (p *Problem) Committee() int { return len(p.scenarios) }

// ExactPhysics reports whether the problem evaluates the reference
// per-call path-loss physics (Settings.ExactPhysics) instead of the fused
// d2-space kernel.
func (p *Problem) ExactPhysics() bool { return p.settings.ExactPhysics }

// Dim implements moo.Problem.
func (p *Problem) Dim() int { return aedb.NumParams }

// NumObjectives implements moo.Problem.
func (p *Problem) NumObjectives() int { return 3 }

// Bounds implements moo.Problem.
func (p *Problem) Bounds() (lo, hi []float64) { return p.domain.Bounds() }

// Evaluations returns the number of Evaluate calls served so far.
func (p *Problem) Evaluations() int64 { return p.evals.Load() }

// ResetEvaluations zeroes the evaluation counter.
func (p *Problem) ResetEvaluations() { p.evals.Store(0) }

// Evaluate implements moo.Problem. It is always full fidelity — the
// ladder (WithFidelity) only screens batched evaluations — and its
// outcome feeds the ladder's reference front when the ladder is enabled.
func (p *Problem) Evaluate(x []float64) (f []float64, violation float64, aux any) {
	m := p.Simulate(aedb.FromVector(x))
	f = []float64{m.EnergyDBmSum, -m.Coverage, m.Forwardings}
	violation = m.BroadcastTime - BroadcastTimeLimit
	if violation < 0 {
		violation = 0
	}
	p.observeFull(f, violation)
	return f, violation, m
}

// Simulate runs the committee for a configuration and returns the averaged
// raw metrics. It is the fitness function of Eq. 1 before negation.
func (p *Problem) Simulate(params aedb.Params) Metrics {
	p.evals.Add(1)
	return p.runCommittee(aedb.New(params))
}

// scenarioTerm converts one scenario outcome into its term of the
// committee average.
func scenarioTerm(st *manet.BroadcastStats, net *manet.Network) Metrics {
	return Metrics{
		EnergyDBmSum:  st.TxPowerSumDBm,
		Coverage:      float64(st.Coverage()),
		Forwardings:   float64(st.Forwards),
		BroadcastTime: st.BroadcastTime(),
		EnergyMJ:      st.TxEnergyMJ,
		Collisions:    float64(net.Collisions),
	}
}

// reduceCommittee averages per-scenario terms in committee order. It is
// the single definition of the committee average's floating-point op
// order: every evaluation path (serial, committee-parallel, batched)
// funnels through it, which is what makes their results bit-identical.
func reduceCommittee(terms []Metrics) Metrics {
	var sum Metrics
	for _, t := range terms {
		sum.EnergyDBmSum += t.EnergyDBmSum
		sum.Coverage += t.Coverage
		sum.Forwardings += t.Forwardings
		sum.BroadcastTime += t.BroadcastTime
		sum.EnergyMJ += t.EnergyMJ
		sum.Collisions += t.Collisions
	}
	n := float64(len(terms))
	sum.EnergyDBmSum /= n
	sum.Coverage /= n
	sum.Forwardings /= n
	sum.BroadcastTime /= n
	sum.EnergyMJ /= n
	sum.Collisions /= n
	return sum
}

// runCommittee evaluates the factory on every committee scenario, fanning
// across scenario workers when configured. A committee whose scenarios
// cannot all be evaluated — even after supervised retries and the serial
// fallback — degrades to FailedMetrics instead of taking down the run.
func (p *Problem) runCommittee(factory func(*manet.Node) manet.Protocol) Metrics {
	p.health.fullEvals.Add(1)
	terms := make([]Metrics, len(p.scenarios))
	errs := make([]error, len(p.scenarios))
	p.forEachScenario(len(p.scenarios), p.settings.ScenarioWorkers, func(i int) {
		terms[i], errs[i] = p.supervisedScenario(factory, i, 0)
	})
	if err := p.settleCommittee(factory, terms, errs, p.settings.ScenarioWorkers > 1, 0); err != nil {
		return FailedMetrics()
	}
	return reduceCommittee(terms)
}

// settleCommittee resolves per-scenario failures after a committee pass:
// cells that failed inside a parallel wave get one serial re-attempt
// (resource-pressure failures often clear once the other workers are
// quiet), and any still-failed cell degrades the whole committee. The
// first surviving error is recorded in the health block and returned.
// A stop-induced abandonment is returned without touching the failure
// counters — the caller is discarding the result anyway.
func (p *Problem) settleCommittee(factory func(*manet.Node) manet.Protocol, terms []Metrics, errs []error, wasParallel bool, bound float64) error {
	for i, err := range errs {
		if err == nil || errors.Is(err, ErrStopped) {
			continue
		}
		if wasParallel {
			p.health.serialFallbacks.Add(1)
			terms[i], errs[i] = p.supervisedScenario(factory, i, bound)
		}
	}
	for _, err := range errs {
		if errors.Is(err, ErrStopped) {
			return err
		}
	}
	for i, err := range errs {
		if err != nil {
			p.health.failures.Add(1)
			p.health.lastErr.Store(fmt.Errorf("eval: committee degraded at scenario %d: %w", i, err))
			return err
		}
	}
	return nil
}

// maxRetryBackoff caps the exponential retry backoff: retries exist for
// transient environmental failures, and half a second is already far
// beyond any resource-pressure recovery window a simulation worker
// needs. Without the cap the shift grows without bound — WithMaxRetries
// (20) would sleep ~44 minutes on its last attempt, and shifts >= 63
// overflow time.Duration into a negative (no-op) sleep.
const maxRetryBackoff = 500 * time.Millisecond

// retryDelay returns the clamped exponential backoff before retry
// attempt (1-based): base << (attempt-1), saturating at maxRetryBackoff.
func retryDelay(base time.Duration, attempt int) time.Duration {
	if base <= 0 || attempt < 1 {
		return 0
	}
	if base >= maxRetryBackoff {
		return maxRetryBackoff
	}
	shift := uint(attempt - 1)
	// base < maxRetryBackoff here, so the quotient below is >= 1 and the
	// comparison saturates before base << shift could ever overflow.
	if shift >= 63 || base > maxRetryBackoff>>shift {
		return maxRetryBackoff
	}
	return base << shift
}

// supervisedScenario runs one (candidate, scenario) cell under the
// supervisor: panics recover into errors, each failed attempt is retried
// up to maxRetries times with clamped exponential backoff, and attempts
// are bounded by the per-evaluation timeout when one is configured.
// A positive bound truncates the simulation at that absolute time (the
// ladder's screening rung); 0 runs the full horizon.
func (p *Problem) supervisedScenario(factory func(*manet.Node) manet.Protocol, i int, bound float64) (Metrics, error) {
	var lastErr error
	for attempt := 0; attempt <= p.maxRetries; attempt++ {
		if stopRequested(p.stop) {
			return Metrics{}, ErrStopped
		}
		if attempt > 0 {
			p.health.retries.Add(1)
			time.Sleep(retryDelay(p.retryBackoff, attempt))
		}
		m, err := p.attemptScenario(factory, i, bound)
		if err == nil {
			return m, nil
		}
		if errors.Is(err, ErrStopped) {
			return Metrics{}, err
		}
		p.health.errors.Add(1)
		lastErr = err
	}
	return Metrics{}, lastErr
}

// attemptScenario is one bounded attempt of a cell. With no timeout it
// runs inline; with one it runs in a goroutine that is abandoned (along
// with its arena) when the deadline passes.
func (p *Problem) attemptScenario(factory func(*manet.Node) manet.Protocol, i int, bound float64) (Metrics, error) {
	if p.evalTimeout <= 0 {
		return p.recoverScenario(factory, i, bound)
	}
	type outcome struct {
		m   Metrics
		err error
	}
	ch := make(chan outcome, 1)
	go func() {
		m, err := p.recoverScenario(factory, i, bound)
		ch <- outcome{m, err}
	}()
	timer := time.NewTimer(p.evalTimeout)
	defer timer.Stop()
	select {
	case o := <-ch:
		return o.m, o.err
	case <-timer.C:
		p.health.timeouts.Add(1)
		return Metrics{}, fmt.Errorf("eval: scenario %d attempt exceeded %v", i, p.evalTimeout)
	}
}

// recoverScenario runs the raw cell with panic recovery. The arena is
// acquired inside the attempt and only returned to the pool on full
// success: a panicked, failed or timed-out attempt abandons its arena,
// so a partially mutated buffer set can never serve a later simulation.
func (p *Problem) recoverScenario(factory func(*manet.Node) manet.Protocol, i int, bound float64) (m Metrics, err error) {
	defer func() {
		if r := recover(); r != nil {
			p.health.panics.Add(1)
			if e, ok := r.(error); ok {
				err = fmt.Errorf("eval: scenario %d panicked: %w", i, e)
			} else {
				err = fmt.Errorf("eval: scenario %d panicked: %v", i, r)
			}
		}
	}()
	var snap *manet.Snapshot
	var tape *manet.BeaconTape
	if p.layers&layerWarmStart != 0 {
		snap = p.snapshot(i)
		if snap != nil && !p.settings.ReferencePath {
			tape = p.tapeFor(i, snap)
		}
	}
	var arena *manet.Arena
	if snap != nil && !p.settings.ReferencePath {
		arena = p.getArena()
	}
	m, err = p.simulateScenario(factory, i, snap, tape, arena, bound)
	if err == nil {
		p.putArena(arena)
	}
	return m, err
}

// stopRequested reports whether a stop channel has closed (nil: never).
func stopRequested(stop <-chan struct{}) bool {
	select {
	case <-stop:
		return true
	default:
		return false
	}
}

// forEachScenario runs fn(i) for the first n committee scenario indices,
// across up to workers goroutines (inline when workers <= 1).
func (p *Problem) forEachScenario(n, workers int, fn func(i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// snapshot lazily builds (once, thread-safely) the warm-start snapshot of
// committee scenario i. It returns nil when snapshotting is unavailable
// for the configuration, in which case callers fall back to from-scratch
// simulation; the cause is retained and reported by WarmStartError.
func (p *Problem) snapshot(i int) *manet.Snapshot {
	slot := &p.snaps[i]
	slot.once.Do(func() {
		slot.snap, slot.err = p.buildSnapshot(i)
		slot.done.Store(true)
	})
	return slot.snap
}

// buildSnapshot builds scenario i's warm-start snapshot, through the
// process-wide masked-parent cache when the configuration is eligible and
// falling back to a direct per-density build otherwise (or on any sharing
// failure — sharing is an optimisation, never a correctness gate). The
// reference path always builds directly: a masked snapshot inherits the
// parent's warm-up RxFrames accounting (see Snapshot.Mask), and complete
// per-node accounting is exactly what WithReferencePath promises.
func (p *Problem) buildSnapshot(i int) (*manet.Snapshot, error) {
	sc := p.scenarios[i]
	if p.layers&layerSharedWarmups != 0 && !p.settings.ReferencePath && p.cfg.NumNodes <= maskParentNodes {
		if key, ok := sharedCfgKeyOf(p.cfg); ok {
			if parent, err := sharedWarmup(key, p.cfg, sc.seed); err == nil {
				if snap, err := parent.Mask(p.cfg.NumNodes); err == nil {
					return snap, nil
				}
			}
		}
	}
	return manet.BuildSnapshot(p.cfg, sc.seed, p.cfg.WarmupTime)
}

// maskParentNodes is the node count the shared warm-up parents are built
// at: the largest paper committee (density 300, 75 nodes). Densities at
// or below it mask the parent down to their own size.
var maskParentNodes = func() int {
	max := 0
	for _, n := range DensityNodes {
		if n > max {
			max = n
		}
	}
	return max
}()

// sharedCfgKey is the comparable fingerprint of a share-eligible
// manet.Config, with NumNodes excluded (that is the mask size). Two
// Problems whose configs collapse to the same key run identical warm-up
// physics, so their scenario snapshots may come from one parent.
type sharedCfgKey struct {
	area                               geom.Rect
	speedMin, speedMax, changeInterval float64
	pathLoss                           radio.Model
	defaultTxPowerDBm, sensitivityDBm  float64
	captureThresholdDB                 float64
	bitRateBps, propagationSpeed       float64
	beaconInterval, neighborTimeout    float64
	beaconBytes, dataBytes             int
	warmupTime, endTime                float64
	// exactPhysics separates the two physics arms: a beacon tape records
	// pre-converted reception powers, so a tape (or snapshot) recorded
	// under the fused kernel must never be served to an exact-physics
	// Problem, and vice versa.
	exactPhysics bool
}

// sharedCfgKeyOf fingerprints cfg, reporting false when the configuration
// is not share-eligible: masking requires fast beacons, and per-scenario
// callbacks or mobility factories cannot be compared (or shared) safely.
func sharedCfgKeyOf(cfg manet.Config) (sharedCfgKey, bool) {
	if !cfg.FastBeacons || cfg.MakeMobility != nil ||
		cfg.OnDataTx != nil || cfg.OnDataRx != nil || cfg.OnDataLost != nil ||
		cfg.OnDecision != nil {
		return sharedCfgKey{}, false
	}
	if cfg.PathLoss == nil || !reflect.TypeOf(cfg.PathLoss).Comparable() {
		return sharedCfgKey{}, false
	}
	return sharedCfgKey{
		area:               cfg.Area,
		speedMin:           cfg.SpeedMin,
		speedMax:           cfg.SpeedMax,
		changeInterval:     cfg.ChangeInterval,
		pathLoss:           cfg.PathLoss,
		defaultTxPowerDBm:  cfg.DefaultTxPowerDBm,
		sensitivityDBm:     cfg.SensitivityDBm,
		captureThresholdDB: cfg.CaptureThresholdDB,
		bitRateBps:         cfg.BitRateBps,
		propagationSpeed:   cfg.PropagationSpeed,
		beaconInterval:     cfg.BeaconInterval,
		neighborTimeout:    cfg.NeighborTimeout,
		beaconBytes:        cfg.BeaconBytes,
		dataBytes:          cfg.DataBytes,
		warmupTime:         cfg.WarmupTime,
		endTime:            cfg.EndTime,
		exactPhysics:       cfg.ExactPhysics,
	}, true
}

// warmupKey identifies one shared parent warm-up simulation.
type warmupKey struct {
	cfg  sharedCfgKey
	seed uint64
}

// sharedWarmupSlot lazily holds one parent snapshot.
type sharedWarmupSlot struct {
	once sync.Once
	snap *manet.Snapshot
	err  error
}

// sharedWarmups caches parent snapshots process-wide: one entry per
// (eligible config, scenario seed), built at maskParentNodes nodes. The
// entry count is capped: a seed-sweeping process would otherwise
// accumulate parent snapshots without bound, and past the cap new
// scenarios simply build directly (correct, just unshared).
var (
	sharedWarmupCache sync.Map
	sharedWarmupCount atomic.Int64
)

// maxSharedWarmups bounds the cache: committees are 10 scenarios, so the
// cap comfortably covers dozens of concurrently useful (config, seed)
// combinations while keeping worst-case memory at a few hundred 75-node
// snapshots.
const maxSharedWarmups = 512

// errSharedCacheFull marks a transient capacity refusal of one of the
// process-wide caches — a property of the moment, not of the key, so it
// must never be memoized into a cache slot.
var errSharedCacheFull = fmt.Errorf("eval: shared cache full")

// sharedWarmup returns (building once per process) the parent warm-up
// snapshot for a scenario seed under an eligible configuration.
func sharedWarmup(key sharedCfgKey, cfg manet.Config, seed uint64) (*manet.Snapshot, error) {
	k := warmupKey{cfg: key, seed: seed}
	slotAny, ok := sharedWarmupCache.Load(k)
	if !ok {
		if sharedWarmupCount.Load() >= maxSharedWarmups {
			return nil, errSharedCacheFull
		}
		var loaded bool
		slotAny, loaded = sharedWarmupCache.LoadOrStore(k, &sharedWarmupSlot{})
		if !loaded {
			sharedWarmupCount.Add(1)
		}
	}
	slot := slotAny.(*sharedWarmupSlot)
	slot.once.Do(func() {
		pcfg := cfg
		pcfg.NumNodes = maskParentNodes
		pcfg.MakeMobility = nil
		pcfg.OnDataTx, pcfg.OnDataRx, pcfg.OnDataLost, pcfg.OnDecision = nil, nil, nil, nil
		slot.snap, slot.err = manet.BuildSnapshot(pcfg, seed, pcfg.WarmupTime)
	})
	return slot.snap, slot.err
}

// tapeKey identifies one shared beacon-tape recording: the scenario
// fingerprint of the warm-up cache plus the node count the tape serves.
// The maskParentNodes entry is the actual recording; smaller node counts
// are masked prefixes derived from it.
type tapeKey struct {
	cfg   sharedCfgKey
	seed  uint64
	nodes int
}

// sharedTapeSlot lazily holds one shared tape (parent recording or masked
// child).
type sharedTapeSlot struct {
	once sync.Once
	tape *manet.BeaconTape
	err  error
}

// sharedTapeCache caches beacon tapes process-wide: one entry per
// (eligible config, scenario seed, node count). Like the warm-up cache it
// is capped; past the cap new scenarios record locally (correct, just
// unshared).
var (
	sharedTapeCache sync.Map
	sharedTapeCount atomic.Int64
)

// maxSharedTapes bounds the tape cache. Each (config, seed) pair holds at
// most one parent recording plus one masked child per in-use density, so
// the cap covers the same working set maxSharedWarmups does.
const maxSharedTapes = 1024

// sharedTape returns (building once per process) the beacon tape for a
// scenario seed under an eligible configuration at the given node count.
// The parent entry (nodes == maskParentNodes) records from the shared
// warm-up snapshot; smaller entries mask the parent down, so N Problems
// across any mix of densities share one recording per scenario.
func sharedTape(key sharedCfgKey, cfg manet.Config, seed uint64, nodes int) (*manet.BeaconTape, error) {
	k := tapeKey{cfg: key, seed: seed, nodes: nodes}
	slotAny, ok := sharedTapeCache.Load(k)
	if !ok {
		if sharedTapeCount.Load() >= maxSharedTapes {
			return nil, errSharedCacheFull
		}
		var loaded bool
		slotAny, loaded = sharedTapeCache.LoadOrStore(k, &sharedTapeSlot{})
		if !loaded {
			sharedTapeCount.Add(1)
		}
	}
	slot := slotAny.(*sharedTapeSlot)
	slot.once.Do(func() {
		if nodes == maskParentNodes {
			parent, err := sharedWarmup(key, cfg, seed)
			if err != nil {
				slot.err = err
			} else {
				slot.tape, slot.err = parent.RecordBeaconTape(cfg.EndTime)
			}
		} else {
			parent, err := sharedTape(key, cfg, seed, maskParentNodes)
			if err != nil {
				slot.err = err
			} else {
				slot.tape, slot.err = parent.Mask(nodes)
			}
		}
		if errors.Is(slot.err, errSharedCacheFull) {
			// A dependency hit a cache cap: the refusal is transient, so
			// release this slot instead of memoizing the error into one of
			// the capped entries (goroutines already holding the slot see
			// the error and record locally; a later Problem retries with a
			// fresh slot).
			sharedTapeCache.Delete(k)
			sharedTapeCount.Add(-1)
		}
	})
	return slot.tape, slot.err
}

// WarmStartError reports why warm-start evaluation is degraded, if it is:
// non-nil means at least one scenario snapshot failed to build and every
// evaluation of that scenario silently re-simulates its warm-up from
// scratch (correct, but ~4x slower). Nil if warm start is disabled, no
// snapshot has been attempted yet, or all attempted builds succeeded.
func (p *Problem) WarmStartError() error {
	for i := range p.snaps {
		if !p.snaps[i].done.Load() {
			continue
		}
		if err := p.snaps[i].err; err != nil {
			return fmt.Errorf("eval: scenario %d warm-start disabled: %w", i, err)
		}
	}
	return nil
}

// simulateScenario simulates a single committee network under the given
// protocol factory and returns its term of the committee average. The
// default engine replays the scenario's beacon tape into an arena-backed
// instantiation and stops at broadcast quiescence; the reference engine
// (WithReferencePath) runs the allocating full-tail simulation; with no
// usable snapshot the scenario is rebuilt from scratch, and a
// construction failure is returned as an error (degrading that candidate)
// rather than panicking the process. The faultinject sites let the
// robustness tests stand in for organic failures at both boundaries.
//
// A positive bound truncates the run at that absolute simulation time
// instead of cfg.EndTime — the ladder's screening rung. Truncation only
// changes when the event loop stops; snapshots, tapes and arenas are the
// full-horizon ones (a tape replay simply stops consuming the tape), so
// screening shares every cache with full-fidelity evaluation.
func (p *Problem) simulateScenario(factory func(*manet.Node) manet.Protocol, i int, snap *manet.Snapshot, tape *manet.BeaconTape, arena *manet.Arena, bound float64) (Metrics, error) {
	if err := faultinject.Do(faultinject.SiteEvalScenario); err != nil {
		return Metrics{}, err
	}
	end := p.cfg.EndTime
	if bound > 0 && bound < end {
		end = bound
	}
	sc := p.scenarios[i]
	var net *manet.Network
	var st *manet.BroadcastStats
	switch {
	case tape != nil:
		net, st = snap.InstantiateReplayInto(arena, factory, sc.source, p.cfg.WarmupTime, tape)
		runToQuiescenceUntil(net, end)
	case snap != nil && p.settings.ReferencePath:
		net, st = snap.Instantiate(factory, sc.source, p.cfg.WarmupTime)
		net.Sim.RunUntil(end)
	case snap != nil:
		net, st = snap.InstantiateInto(arena, factory, sc.source, p.cfg.WarmupTime)
		runToQuiescenceUntil(net, end)
	default:
		if err := faultinject.Do(faultinject.SiteEvalBuild); err != nil {
			return Metrics{}, err
		}
		var err error
		net, err = manet.New(p.cfg, sc.seed, factory)
		if err != nil {
			return Metrics{}, fmt.Errorf("eval: scenario %d construction failed: %w", i, err)
		}
		st = net.StartBroadcast(sc.source, p.cfg.WarmupTime)
		if p.settings.ReferencePath {
			net.Sim.RunUntil(end)
		} else {
			runToQuiescenceUntil(net, end)
		}
	}
	return scenarioTerm(st, net), nil
}

// runToQuiescenceUntil is manet.Network.RunToQuiescence with an explicit
// end time: it executes the event loop until end, stopping early at
// broadcast quiescence. With end == cfg.EndTime it is exactly
// RunToQuiescence (and Sim.RunUntil(end) is exactly Run), which is what
// keeps full-fidelity paths bit-identical whether or not the ladder is
// compiled into the call chain.
func runToQuiescenceUntil(net *manet.Network, end float64) {
	for !net.Quiescent() {
		if !net.Sim.StepUntil(end) {
			return
		}
	}
}

// getArena checks an instantiation arena out of the Problem's pool (nil
// when layerArenas is off: the manet layer treats a nil arena as a fresh
// one-shot buffer set, i.e. the plain allocating path).
func (p *Problem) getArena() *manet.Arena {
	if p.layers&layerArenas == 0 {
		return nil
	}
	return p.arenas.Get().(*manet.Arena)
}

// putArena returns an arena to the pool. The caller must have extracted
// everything it needs from the last instantiation first.
func (p *Problem) putArena(a *manet.Arena) {
	if a != nil {
		p.arenas.Put(a)
	}
}

// SimulateProtocol runs the committee with an arbitrary protocol factory
// (used by examples comparing AEDB against flooding and distance-based
// baselines) and returns the averaged metrics.
func (p *Problem) SimulateProtocol(factory func(*manet.Node) manet.Protocol) Metrics {
	return p.runCommittee(factory)
}

// EvaluateBatch implements moo.BatchProblem: it evaluates every parameter
// vector of xs against the frozen committee and returns per-vector
// objectives, violations and Metrics (as Aux) bit-identical to what
// Evaluate returns for each vector — the equivalence tests hold both
// paths to that.
//
// Execution is scenario-major: each committee scenario becomes one wave
// that streams all candidates through that scenario's warm snapshot, so
// the per-scenario setup (snapshot build, beacon-tape recording, cache
// residency) is paid once per wave instead of once per candidate. Waves
// fan out across WithBatchWorkers goroutines; the committee average is
// reduced in committee order regardless of schedule.
//
// With the multi-fidelity ladder enabled (WithFidelity), the batch is
// first screened on the cheap rung and only promotion-gate survivors
// reach the full-fidelity waves; triaged candidates come back marked
// Screened with their screening estimate (see fidelity.go). Promoted
// results are bit-identical to what a ladder-free batch — or serial
// Evaluate — returns for the same vector.
func (p *Problem) EvaluateBatch(xs [][]float64) []moo.BatchResult {
	n := len(xs)
	if n == 0 {
		return nil
	}
	p.evals.Add(int64(n))
	factories := make([]func(*manet.Node) manet.Protocol, n)
	for j, x := range xs {
		factories[j] = aedb.New(aedb.FromVector(x))
	}
	if p.ladderActive() {
		return p.ladderBatch(factories)
	}
	p.health.fullEvals.Add(int64(n))
	ms, stopped := p.runWaves(factories, len(p.scenarios), 0)
	out := make([]moo.BatchResult, n)
	for j := range out {
		out[j] = batchResultOf(ms[j], stopped[j], false)
	}
	return out
}

// runWaves is the wave engine shared by every batch rung: it streams all
// candidates through the first nsc committee scenarios (bounded at the
// given absolute simulation time; 0 = full horizon), settles per-cell
// failures candidate by candidate — failed cells from parallel waves get
// one serial re-attempt, a candidate with any cell still failing degrades
// to the penalty outcome — and reduces each candidate's committee average.
// The returned stopped markers flag candidates abandoned because the
// Problem's stop signal fired; their metrics are the penalty outcome but
// carry no information, and they are never counted as failures.
func (p *Problem) runWaves(factories []func(*manet.Node) manet.Protocol, nsc int, bound float64) ([]Metrics, []bool) {
	n := len(factories)
	terms := make([]Metrics, n*nsc) // terms[j*nsc+i]: candidate j, scenario i
	errs := make([]error, n*nsc)
	workers := p.batchWorkerCount()
	p.forEachScenario(nsc, workers, func(i int) { p.batchWave(factories, i, nsc, bound, terms, errs) })

	ms := make([]Metrics, n)
	stopped := make([]bool, n)
	for j := 0; j < n; j++ {
		err := p.settleCommittee(factories[j], terms[j*nsc:(j+1)*nsc], errs[j*nsc:(j+1)*nsc], workers > 1, bound)
		switch {
		case errors.Is(err, ErrStopped):
			ms[j] = FailedMetrics()
			stopped[j] = true
		case err != nil:
			ms[j] = FailedMetrics()
		default:
			ms[j] = reduceCommittee(terms[j*nsc : (j+1)*nsc])
		}
	}
	return ms, stopped
}

// batchResultOf wraps a committee outcome as a moo.BatchResult — the one
// definition of the Metrics -> (objectives, violation) mapping on the
// batch path, shared by every rung.
func batchResultOf(m Metrics, stopped, screened bool) moo.BatchResult {
	viol := m.BroadcastTime - BroadcastTimeLimit
	if viol < 0 {
		viol = 0
	}
	return moo.BatchResult{
		F:         []float64{m.EnergyDBmSum, -m.Coverage, m.Forwardings},
		Violation: viol,
		Aux:       m,
		Stopped:   stopped,
		Screened:  screened,
	}
}

// batchWorkerCount resolves the wave-level parallelism of one
// EvaluateBatch call.
func (p *Problem) batchWorkerCount() int {
	w := p.batchWorkers
	if w == 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w < 1 {
		w = 1
	}
	return w
}

// batchWave streams every candidate of the batch through committee
// scenario i — one snapshot-clone wave. On the default engine the wave
// resolves (once, cached on the Problem) the scenario's warm snapshot and
// beacon tape, instantiates replay networks into pool-recycled arenas and
// stops each simulation at broadcast quiescence; the reference engine
// runs every candidate through the allocating full-tail path. Every cell
// runs under the supervisor, so one candidate's failure is recorded in
// errs and the wave moves on (a failed cell's arena is abandoned, never
// re-pooled — see recoverScenario).
func (p *Problem) batchWave(factories []func(*manet.Node) manet.Protocol, i, nsc int, bound float64, terms []Metrics, errs []error) {
	for j, factory := range factories {
		if stopRequested(p.stop) {
			errs[j*nsc+i] = ErrStopped
			continue
		}
		terms[j*nsc+i], errs[j*nsc+i] = p.supervisedScenario(factory, i, bound)
	}
}

// tapeFor lazily resolves (once, thread-safely) the beacon tape of
// committee scenario i: through the process-wide shared cache when the
// configuration is eligible — sharing the recording (and, across
// densities, the masked derivation) with every other Problem of the same
// scenario fingerprint — and by recording from the Problem's own snapshot
// otherwise, or on any sharing failure (sharing is an optimisation, never
// a correctness gate). A nil result (frame-level beacons cannot be taped)
// sends the caller down the plain snapshot path.
func (p *Problem) tapeFor(i int, snap *manet.Snapshot) *manet.BeaconTape {
	if !p.cfg.FastBeacons {
		return nil
	}
	slot := &p.tapes[i]
	slot.once.Do(func() {
		if p.layers&layerSharedTapes != 0 && !p.settings.ReferencePath && p.cfg.NumNodes <= maskParentNodes {
			if key, ok := sharedCfgKeyOf(p.cfg); ok {
				if tape, err := sharedTape(key, p.cfg, p.scenarios[i].seed, p.cfg.NumNodes); err == nil {
					slot.tape = tape
					return
				}
			}
		}
		slot.tape, _ = snap.RecordBeaconTape(p.cfg.EndTime)
	})
	return slot.tape
}

// Fingerprint returns a stable hex digest of the Problem's evaluation
// identity: density, node count, committee scenarios (seeds and sources),
// decision-space bounds, the physics arm, and the share-eligible config
// fields (the same set sharedCfgKey compares, so two Problems with equal
// fingerprints never mix incompatible caches). Performance knobs — worker
// counts, the layer mask, the reference path — are
// deliberately excluded: they are all bit-identical at the Metrics level,
// so a resumed study may legally change its parallelism. Configs carrying
// per-scenario callbacks cannot be fingerprinted stably; their hook
// presence is folded in and consistency across resume is on the caller.
//
// The multi-fidelity ladder is folded in ONLY when it actually engages:
// ladder-off fingerprints are byte-identical to previous releases (old
// checkpoints keep resuming), while a ladder-enabled study refuses a
// mid-study change of rung or promotion epsilon — screening alters which
// candidates are evaluated at full fidelity, so it is part of the study's
// identity, not a performance knob.
func (p *Problem) Fingerprint() string {
	h := sha256.New()
	var buf [8]byte
	put := func(s string) {
		binary.BigEndian.PutUint64(buf[:], uint64(len(s)))
		h.Write(buf[:])
		h.Write([]byte(s))
	}
	put("aedb-eval-v1")
	put(fmt.Sprintf("density=%d nodes=%d committee=%d exact=%t",
		p.density, p.cfg.NumNodes, len(p.scenarios), p.settings.ExactPhysics))
	for _, sc := range p.scenarios {
		put(fmt.Sprintf("seed=%d source=%d", sc.seed, sc.source))
	}
	lo, hi := p.domain.Bounds()
	put(fmt.Sprintf("lo=%v hi=%v", lo, hi))
	if p.ladderActive() {
		put(fmt.Sprintf("fidelity=[committee=%d horizon=%g eps=%g]",
			p.screenCommittee(), p.screenHorizon(), p.PromoteEpsilon()))
	}
	cfg := p.cfg
	put(fmt.Sprintf(
		"area=%v speed=[%v,%v,%v] radio=[%T %+v tx=%v sens=%v capt=%v rate=%v prop=%v] "+
			"beacon=[%v to=%v fast=%t] bytes=[%d,%d] time=[%v,%v] hooks=[%t,%t,%t,%t,%t]",
		cfg.Area, cfg.SpeedMin, cfg.SpeedMax, cfg.ChangeInterval,
		cfg.PathLoss, cfg.PathLoss, cfg.DefaultTxPowerDBm, cfg.SensitivityDBm,
		cfg.CaptureThresholdDB, cfg.BitRateBps, cfg.PropagationSpeed,
		cfg.BeaconInterval, cfg.NeighborTimeout, cfg.FastBeacons,
		cfg.BeaconBytes, cfg.DataBytes, cfg.WarmupTime, cfg.EndTime,
		cfg.MakeMobility != nil, cfg.OnDataTx != nil, cfg.OnDataRx != nil, cfg.OnDataLost != nil,
		cfg.OnDecision != nil))
	return hex.EncodeToString(h.Sum(nil))
}

// MetricsOf extracts the raw metrics attached to a solution evaluated on a
// Problem. ok is false if the solution was produced by another problem.
func MetricsOf(s *moo.Solution) (Metrics, bool) {
	m, ok := s.Aux.(Metrics)
	return m, ok
}

// BatchResult is the per-vector outcome of EvaluateBatch; its Aux field
// carries the Metrics. The alias keeps eval's batch API interchangeable
// with the moo.BatchProblem vocabulary.
type BatchResult = moo.BatchResult

// Problem batches evaluations for any moo-level consumer.
var _ moo.BatchProblem = (*Problem)(nil)

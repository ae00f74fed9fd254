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
// Every evaluation path — Evaluate, Simulate, EvaluateBatch — defaults
// to the throughput engine: beacon-tape replay (the scenario's
// protocol-independent beacon evolution is recorded once and served
// lazily to every simulation, see manet/tape.go) plus
// broadcast-quiescence early stop (each simulation ends the moment the
// last live forwarding decision is resolved, see manet.RunToQuiescence),
// with instantiation buffers recycled through one process-wide pool of
// arenas (manet.Arena). Objectives, violations and Metrics are
// bit-identical to the reference engine; per-node frame accounting
// inside the simulations is not (the dead tail of each simulation is
// skipped and beacon traffic is replayed, not re-simulated).
//
// Every warmed simulation, Counterfactual.Score included, instantiates
// through manet's one entry point, Snapshot.InstantiateReplayInto, with
// the tape and the arena as optional inputs. FuzzEngineEquivalence holds
// every combination to a from-scratch run across the scenario space.
//
// WithReferencePath opts a Problem out: every simulation then runs the
// full-tail reference engine with complete per-node accounting. The
// golden-metrics corpus and the equivalence tables hold the two engines
// bit-identical at the Metrics level, so the reference path is a test
// oracle, not a setting.
//
// # The scenario store
//
// The committee scenarios are frozen from the problem seed alone — not
// the density — so the same scenario seed instantiates the 25-, 50- and
// 75-node committees of densities 100/200/300 as nested prefixes of one
// node population. One process-wide store (store.go) therefore keeps one
// entry per (configuration, scenario seed): the warm-up snapshot and the
// beacon tape built once at the largest paper committee size, and one
// child per node count served, masked down from them
// (manet.Snapshot.Mask, manet.BeaconTape.Mask). Every Problem with a
// share-eligible (default-shaped) configuration, of any density, resolves
// its scenarios there, so concurrent and sequential Problems over one
// scenario generator share one warm-up, one recording and one mask per
// node count; other Problems build a private entry at their own node
// count. Masked and directly built snapshots and tapes are bit-identical
// on every metric. The store holds at most storeCap entries and evicts
// the least recently resolved one past the cap; Problems holding an
// evicted entry keep it, so eviction never changes a result.
//
// # Batched evaluation and the cell scheduler
//
// EvaluateBatch (the moo.BatchProblem implementation) evaluates a whole
// set of parameter vectors — an MLS neighborhood, a MOEA offspring
// generation — scenario-major: one snapshot-clone wave per committee
// scenario streams every candidate through that scenario. A single
// Evaluate is the one-candidate case of the same grid. Both run on one
// scheduler of (candidate, scenario) cells (cells.go) that sizes itself
// from the idle cores of the process, so a lone caller spreads its
// committee over every core and many racing callers stay inline.
//
// Every path accumulates the committee average through the same ordered
// reduction (reduceCommittee), so results are bit-identical across all of
// them for any schedule.
package eval

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"sync/atomic"

	"aedbmls/internal/aedb"
	"aedbmls/internal/faultinject"
	"aedbmls/internal/manet"
	"aedbmls/internal/moo"
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

// Problem is the AEDB tuning problem for one network density. It is safe
// for concurrent Evaluate and EvaluateBatch calls; each call builds its
// simulations from the frozen seeds (via the scenario store's warm-start
// snapshots, or from scratch).
type Problem struct {
	cfg         manet.Config
	domain      aedb.Domain
	committee   int
	scenarios   []scenario
	density     int
	settings    Settings
	reference   bool // the full-tail reference engine (WithReferencePath)
	layers      layers
	workers     int // fixed cell-pass width (tests only); 0 = idle cores
	stop        <-chan struct{}
	ladder      ladderState
	screenFront ladderState
	states      []atomic.Pointer[child] // per scenario, resolved on first use
	evals       atomic.Int64
	health      health
}

// layers is the engine's mask of bit-identical throughput layers, all on
// by default. Only this package's tests and benchmarks clear bits, to A/B
// one layer against the others; callers choose engines through Settings.
type layers uint8

const (
	// layerWarmStart clones each simulation from the scenario's warm-up
	// snapshot; off, every simulation runs from t=0.
	layerWarmStart layers = 1 << iota
	// layerShared resolves scenarios through the process-wide scenario
	// store; off, the Problem builds private snapshots and tapes at its
	// own node count.
	layerShared
	// layerArenas recycles instantiation buffers (node/RNG blocks,
	// neighbor index, event heap, grid, neighbor tables) through pooled
	// arenas; off, every simulation allocates afresh.
	layerArenas
	allLayers = layerWarmStart | layerShared | layerArenas
)

// health is the Problem's counter block (see Health).
type health struct {
	panics      atomic.Int64
	errors      atomic.Int64
	failures    atomic.Int64
	screenEvals atomic.Int64
	screened    atomic.Int64
	promoted    atomic.Int64
	fullEvals   atomic.Int64
	lastErr     atomic.Value // error
}

// Health is a snapshot of a Problem's evaluation health counters. A
// long-running study surfaces it so operators can distinguish "clean
// run" from "run in which N candidates degraded to FailedMetrics". The
// JSON field names are part of the tuning service's /healthz wire format.
type Health struct {
	// Panics counts failed cells whose simulation panicked (recovered
	// into an error).
	Panics int64 `json:"panics"`
	// Errors counts failed cells that returned an error without
	// panicking (scenario construction failures, injected faults). Each
	// failed cell counts in exactly one of Panics and Errors.
	Errors int64 `json:"errors"`
	// Deprecated: always 0, since a failed cell runs once. It stays for
	// the /healthz wire format and the benchmark harness, which reads it;
	// the benchmark change that drops the eval.retries layer metric
	// deletes it with Timeouts and SerialFallbacks.
	Retries int64 `json:"retries"`
	// Deprecated: always 0, since cells have no timeout; deleted with
	// Retries.
	Timeouts int64 `json:"timeouts"`
	// Failures counts candidate evaluations degraded to FailedMetrics
	// because at least one of their cells failed.
	Failures int64 `json:"failures"`
	// Deprecated: always 0, since a failed cell is not re-run; deleted
	// with Retries.
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
	// FullEvals counts full-fidelity committee evaluations actually
	// simulated across every path (serial, ladder-off batches, ladder
	// promotions). The ladder's throughput win is this counter dropping
	// relative to a ladder-off run of the same budget. For a
	// single-candidate AEDB-MLS run it is the optimizer's evaluation
	// count less the moves that reproduced an incumbent, which the
	// optimizer charges without simulating.
	FullEvals int64 `json:"full_evals"`
}

// Health returns the current health counters.
func (p *Problem) Health() Health {
	return Health{
		Panics:      p.health.panics.Load(),
		Errors:      p.health.errors.Load(),
		Failures:    p.health.failures.Load(),
		ScreenEvals: p.health.screenEvals.Load(),
		Screened:    p.health.screened.Load(),
		Promoted:    p.health.promoted.Load(),
		FullEvals:   p.health.fullEvals.Load(),
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
// when any cell of its committee evaluation failed (once; see
// recoverScenario): worst-possible on every objective and hugely
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

// WithReferencePath selects the reference evaluation engine on every
// path, serial Evaluate as well as EvaluateBatch: full-tail simulations
// with complete per-node frame accounting, no beacon-tape replay and
// directly built (never masked) warm-up snapshots. The default engine
// (quiescence early stop, beacon-tape replay, arena buffer reuse) is
// bit-identical at the Metrics, objective and violation level, so the
// reference engine is a comparison oracle — of the golden corpus, the
// equivalence tests and the benchmark's re-simulation check — and not
// part of Settings; WithSettings leaves it alone.
func WithReferencePath(enabled bool) Option {
	return func(p *Problem) { p.reference = enabled }
}

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
		cfg:       manet.DefaultScenario(nodes),
		domain:    aedb.DefaultDomain(),
		committee: DefaultCommittee,
		density:   density,
		layers:    allLayers,
	}
	for _, o := range opts {
		o(p)
	}
	if p.cfg.NumNodes <= 0 {
		p.cfg.NumNodes = nodes
	}
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
	p.states = make([]atomic.Pointer[child], len(p.scenarios))
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

// Dim implements moo.Problem.
func (p *Problem) Dim() int { return aedb.NumParams }

// NumObjectives implements moo.Problem.
func (p *Problem) NumObjectives() int { return 3 }

// Bounds implements moo.Problem.
func (p *Problem) Bounds() (lo, hi []float64) { return p.domain.Bounds() }

// Evaluations returns the number of candidates this Problem was asked to
// evaluate so far: one per Evaluate or Simulate call, one per vector of
// an EvaluateBatch. An optimizer's own evaluation count is in budget
// units and may be higher: single-candidate AEDB-MLS (internal/core)
// charges a move that reproduces its incumbent without calling the
// Problem.
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

// settleCommittee settles one candidate's cells after a pass. A
// stop-induced abandonment is returned without touching the failure
// counters — the caller is discarding the result anyway. Otherwise the
// first failed cell degrades the whole committee: it counts one failure,
// is recorded as the Problem's Err and is returned.
func (p *Problem) settleCommittee(errs []error) error {
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

// recoverScenario runs one (candidate, scenario) cell, once. A closed stop
// channel abandons the cell with ErrStopped before it starts; a panic is
// recovered into an error. A failed cell counts in exactly one of the
// panics and errors counters and is not re-run: simulations are
// deterministic, so it would fail the same way. The cell takes the
// lease's arena and gives it back only on success: a panicked or failed
// cell abandons its arena, so a partially mutated buffer set can never
// serve a later simulation. A positive bound truncates the simulation at
// that absolute time (the ladder's screening rung); 0 runs the full
// horizon.
func (p *Problem) recoverScenario(factory func(*manet.Node) manet.Protocol, i int, bound float64, lease *arenaLease) (m Metrics, err error) {
	if stopRequested(p.stop) {
		return Metrics{}, ErrStopped
	}
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
		c := p.scenarioState(i)
		snap = c.snapshot()
		if snap != nil && !p.reference {
			tape = c.beaconTape()
		}
	}
	// A nil arena is the manet layer's plain allocating path.
	var arena *manet.Arena
	if snap != nil && p.arenasOn() {
		arena = lease.take()
	}
	m, err = p.simulateScenario(factory, i, snap, tape, arena, bound)
	if err != nil {
		p.health.errors.Add(1)
		return m, err
	}
	lease.arena = arena
	return m, nil
}

// arenasOn reports whether simulations instantiate into recycled arenas:
// snapshot clones of the default engine with layerArenas on (the
// reference path and from-scratch simulations allocate).
func (p *Problem) arenasOn() bool {
	const both = layerWarmStart | layerArenas
	return p.layers&both == both && !p.reference
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

// WarmStartError reports why warm-start evaluation is degraded, if it is:
// non-nil means at least one scenario snapshot failed to build and every
// evaluation of that scenario silently re-simulates its warm-up from
// scratch (correct, but ~4x slower). Nil if warm start is disabled, no
// snapshot has been attempted yet, or all attempted builds succeeded.
func (p *Problem) WarmStartError() error {
	for i := range p.states {
		c := p.states[i].Load()
		if c == nil || !c.snap.done.Load() {
			continue
		}
		if err := c.snap.err; err != nil {
			return fmt.Errorf("eval: scenario %d warm-start disabled: %w", i, err)
		}
	}
	return nil
}

// simulateScenario simulates a single committee network under the given
// protocol factory and returns its term of the committee average. A
// snapshot instantiates through manet's one entry point with whichever
// of tape and arena the engine passes (the reference engine neither);
// with no usable snapshot the scenario is rebuilt from scratch, and a
// construction failure is returned as an error (degrading that
// candidate) rather than panicking the process. The reference engine
// runs the full tail, every other simulation stops at broadcast
// quiescence. The faultinject sites let the robustness tests stand in
// for organic failures at both boundaries.
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
	if snap != nil {
		net, st = snap.InstantiateReplayInto(arena, factory, sc.source, p.cfg.WarmupTime, tape)
	} else {
		if err := faultinject.Do(faultinject.SiteEvalBuild); err != nil {
			return Metrics{}, err
		}
		var err error
		net, err = manet.New(p.cfg, sc.seed, factory)
		if err != nil {
			return Metrics{}, fmt.Errorf("eval: scenario %d construction failed: %w", i, err)
		}
		st = net.StartBroadcast(sc.source, p.cfg.WarmupTime)
	}
	if p.reference {
		net.Sim.RunUntil(end)
	} else {
		runToQuiescenceUntil(net, end)
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
// residency) is paid once per wave instead of once per candidate. The
// cell scheduler spreads waves, and then chunks of unfinished waves, over
// the idle cores; the committee average is reduced in committee order
// regardless of schedule.
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
	ms, errs := p.runWaves(factories, 0, len(p.scenarios), 0, nil)
	out := make([]moo.BatchResult, n)
	for j := range out {
		out[j] = batchResultOf(ms[j], errors.Is(errs[j], ErrStopped), false)
	}
	return out
}

// runWaves is the committee engine shared by every path: it runs every
// candidate on committee scenarios [lo, nsc) through the cell scheduler
// (bounded at the given absolute simulation time; 0 = full horizon), runs
// each cell once, degrades a candidate with any failed cell to the
// penalty outcome (settleCommittee) and reduces each other candidate's
// committee average over scenarios [0, nsc).
//
// terms is the candidates x nsc cell matrix (terms[j*nsc+i]); cells below
// lo must already hold their values (the ladder's reused screening cells,
// which succeeded). nil allocates it, and requires lo == 0.
//
// The returned errors are each candidate's settled outcome: nil, a
// failure, or ErrStopped for a candidate abandoned because the Problem's
// stop signal fired. Both error kinds come with the penalty metrics, but
// a stopped candidate carries no information and is never counted as a
// failure.
func (p *Problem) runWaves(factories []func(*manet.Node) manet.Protocol, lo, nsc int, bound float64, terms []Metrics) ([]Metrics, []error) {
	pass := new(cellPass)
	pass.prepare(p, factories, lo, nsc, bound, terms)
	pass.run()
	ms := make([]Metrics, len(factories))
	errs := make([]error, len(factories))
	for j := range factories {
		ms[j], errs[j] = pass.settle(j)
	}
	return ms, errs
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

// Fingerprint returns a stable hex digest of the Problem's evaluation
// identity: density, node count, committee scenarios (seeds and sources),
// decision-space bounds, the physics arm, and the share-eligible config
// fields (the same set sharedCfgKey compares, so two Problems with equal
// fingerprints never mix incompatible caches). Performance knobs — the
// layer mask, the reference path, the number of cores — are deliberately
// excluded: they are all bit-identical at the Metrics level, so a resumed
// study may legally change its parallelism. Configs carrying
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
		p.density, p.cfg.NumNodes, len(p.scenarios), p.cfg.ExactPhysics))
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

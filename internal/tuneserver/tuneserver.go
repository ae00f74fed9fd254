// Package tuneserver is the tuning-as-a-service layer: a long-running
// server that accepts named studies (algorithm, density, scale knobs),
// shards each study's trials across a pool of worker goroutines, and
// folds the per-trial fronts into one merged Pareto archive per study
// through archive.Merger. A study runs on its trial workers alone: each
// worker claims the next trial id, offers the trial's front to the
// merger (which folds it in trial-id order and checkpoints at the merge
// boundary), and the last worker to exit publishes the terminal status.
// A terminal study holds no goroutine.
//
// The service is deterministic by construction, not by option. Trial t
// of a study runs the sequential optimizer with the RNG stream
// eval.TrialSeed(studySeed, t) — a pure function of (study seed, trial
// id) — and the merger folds trial fronts strictly in trial-id order,
// so the final front of an N-worker study is bit-identical to the
// 1-worker study's and to any replay of a single trial for debugging.
//
// Durability rides on internal/study: study specs are registered in a
// checksummed manifest before the first trial starts, and study state is
// checkpointed through study.Save at merge boundaries. A SIGKILLed
// server restarts by replaying the manifest — finished studies come
// back terminal with their fronts intact, in-flight ones resume from the
// last merged boundary and re-run only their remaining trials, landing
// on the same final front as an uninterrupted run.
package tuneserver

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"aedbmls/internal/archive"
	"aedbmls/internal/core"
	"aedbmls/internal/eval"
	"aedbmls/internal/moo"
	"aedbmls/internal/nsga2"
	"aedbmls/internal/study"
)

// The study lifecycle states reported by Status.
const (
	StatusRunning     = "running"
	StatusPaused      = "paused"
	StatusStopped     = "stopped"     // user-requested stop; will not resume
	StatusDone        = "done"        // all trials merged
	StatusFailed      = "failed"      // a trial or checkpoint save errored
	StatusInterrupted = "interrupted" // server shut down; resumes on restart
)

// The supported study algorithms.
const (
	AlgMLS   = "mls"
	AlgNSGA2 = "nsga2"
)

// The request-classification errors, matched with errors.Is by the HTTP
// layer to pick status codes.
var (
	ErrSpec      = errors.New("invalid study spec")
	ErrDuplicate = errors.New("study already exists")
	ErrNotFound  = errors.New("no such study")
	ErrBadState  = errors.New("study not in a state that allows this")
)

// StudySpec is the client-facing description of a study. Zero-valued
// knobs take documented defaults; knobs belonging to the other algorithm
// must stay zero (a spec that sets both families is refused, so a typo'd
// knob cannot be silently ignored).
type StudySpec struct {
	// Name identifies the study in every endpoint and, suffixed
	// ".study.ckpt", on disk — so it must pass study.SanitizeName.
	Name string `json:"name"`
	// Algorithm is AlgMLS or AlgNSGA2.
	Algorithm string `json:"algorithm"`
	// Density is the network density in devices/km^2 (default 100).
	Density int `json:"density,omitempty"`
	// Seed is the study seed: it freezes the evaluation committee and
	// roots every trial's derived RNG stream.
	Seed uint64 `json:"seed,omitempty"`
	// Trials is the number of independent optimizer runs to shard
	// across the worker pool (default 1).
	Trials int `json:"trials,omitempty"`
	// Committee is the number of network scenarios per evaluation
	// (default 10, the paper's committee; capped at 64).
	Committee int `json:"committee,omitempty"`
	// ArchiveCapacity bounds the merged study archive: 0 keeps every
	// non-dominated solution, >0 uses adaptive grid archiving.
	ArchiveCapacity int `json:"archive_capacity,omitempty"`

	// AEDB-MLS knobs (defaults from core.DefaultConfig).
	Populations    int `json:"populations,omitempty"`
	PopWorkers     int `json:"pop_workers,omitempty"`
	EvalsPerWorker int `json:"evals_per_worker,omitempty"`
	ResetPeriod    int `json:"reset_period,omitempty"`

	// NSGA-II knobs (defaults from nsga2.DefaultConfig).
	PopSize     int `json:"pop_size,omitempty"`
	Evaluations int `json:"evaluations,omitempty"`

	// StartPaused creates the study paused: it holds trial dispatch
	// until the first resume. Not part of the study's identity and not
	// persisted (a restarted server resumes the study running).
	StartPaused bool `json:"start_paused,omitempty"`
}

// normalize validates the spec and fills defaults in place.
func (sp *StudySpec) normalize() error {
	if err := study.SanitizeName(sp.Name); err != nil {
		return fmt.Errorf("%w: %v", ErrSpec, err)
	}
	if sp.Density == 0 {
		sp.Density = 100
	}
	if sp.Density < 1 || sp.Density > 10000 {
		return fmt.Errorf("%w: density %d out of range [1,10000]", ErrSpec, sp.Density)
	}
	if sp.Trials == 0 {
		sp.Trials = 1
	}
	if sp.Trials < 1 || sp.Trials > 10000 {
		return fmt.Errorf("%w: trials %d out of range [1,10000]", ErrSpec, sp.Trials)
	}
	if sp.Committee == 0 {
		sp.Committee = 10
	}
	if sp.Committee < 1 || sp.Committee > 64 {
		return fmt.Errorf("%w: committee %d out of range [1,64]", ErrSpec, sp.Committee)
	}
	if sp.ArchiveCapacity < 0 {
		return fmt.Errorf("%w: archive_capacity %d negative", ErrSpec, sp.ArchiveCapacity)
	}
	mlsKnobs := sp.Populations != 0 || sp.PopWorkers != 0 || sp.EvalsPerWorker != 0 || sp.ResetPeriod != 0
	nsgaKnobs := sp.PopSize != 0 || sp.Evaluations != 0
	switch sp.Algorithm {
	case AlgMLS:
		if nsgaKnobs {
			return fmt.Errorf("%w: pop_size/evaluations are NSGA-II knobs, algorithm is %q", ErrSpec, sp.Algorithm)
		}
		def := core.DefaultConfig()
		if sp.Populations == 0 {
			sp.Populations = def.Populations
		}
		if sp.PopWorkers == 0 {
			sp.PopWorkers = def.Workers
		}
		if sp.EvalsPerWorker == 0 {
			sp.EvalsPerWorker = def.EvalsPerWorker
		}
		if sp.ResetPeriod == 0 {
			sp.ResetPeriod = def.ResetPeriod
		}
		if err := sp.mlsConfig(0, nil).Validate(); err != nil {
			return fmt.Errorf("%w: %v", ErrSpec, err)
		}
	case AlgNSGA2:
		if mlsKnobs {
			return fmt.Errorf("%w: populations/pop_workers/evals_per_worker/reset_period are MLS knobs, algorithm is %q", ErrSpec, sp.Algorithm)
		}
		def := nsga2.DefaultConfig()
		if sp.PopSize == 0 {
			sp.PopSize = def.PopSize
		}
		if sp.Evaluations == 0 {
			sp.Evaluations = def.Evaluations
		}
		if err := sp.nsga2Config(0, nil).Validate(); err != nil {
			return fmt.Errorf("%w: %v", ErrSpec, err)
		}
	case "":
		return fmt.Errorf("%w: missing algorithm", ErrSpec)
	default:
		return fmt.Errorf("%w: unknown algorithm %q (want %q or %q)", ErrSpec, sp.Algorithm, AlgMLS, AlgNSGA2)
	}
	return nil
}

// mlsConfig builds the per-trial MLS configuration (after normalize).
func (sp *StudySpec) mlsConfig(seed uint64, stop <-chan struct{}) core.Config {
	cfg := core.DefaultConfig()
	cfg.Populations = sp.Populations
	cfg.Workers = sp.PopWorkers
	cfg.EvalsPerWorker = sp.EvalsPerWorker
	cfg.ResetPeriod = sp.ResetPeriod
	cfg.Criteria = core.DefaultAEDBCriteria()
	cfg.Seed = seed
	cfg.Stop = stop
	return cfg
}

// nsga2Config builds the per-trial NSGA-II configuration (after normalize).
func (sp *StudySpec) nsga2Config(seed uint64, stop <-chan struct{}) nsga2.Config {
	cfg := nsga2.DefaultConfig()
	cfg.PopSize = sp.PopSize
	cfg.Evaluations = sp.Evaluations
	cfg.Seed = seed
	cfg.Stop = stop
	return cfg
}

// identity is the canonical identity string of a normalized spec: every
// field that changes the study's results, and nothing that doesn't
// (StartPaused and the server's worker count are excluded, so a resumed
// study may change parallelism and still match its checkpoint).
func (sp *StudySpec) identity() string {
	return fmt.Sprintf("name=%s alg=%s density=%d seed=%d trials=%d committee=%d cap=%d pops=%d popworkers=%d epw=%d reset=%d popsize=%d evals=%d",
		sp.Name, sp.Algorithm, sp.Density, sp.Seed, sp.Trials, sp.Committee, sp.ArchiveCapacity,
		sp.Populations, sp.PopWorkers, sp.EvalsPerWorker, sp.ResetPeriod, sp.PopSize, sp.Evaluations)
}

// parseSpec strictly decodes and normalizes a client-supplied spec.
// Unknown fields, trailing data and out-of-range knobs are all ErrSpec —
// a refused spec has had no side effects.
func parseSpec(r io.Reader) (*StudySpec, error) {
	sp := &StudySpec{}
	dec := json.NewDecoder(io.LimitReader(r, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(sp); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrSpec, err)
	}
	var trailer json.RawMessage
	if err := dec.Decode(&trailer); err == nil || !errors.Is(err, io.EOF) {
		return nil, fmt.Errorf("%w: trailing data after spec", ErrSpec)
	}
	if err := sp.normalize(); err != nil {
		return nil, err
	}
	return sp, nil
}

// Options configures a Server.
type Options struct {
	// Dir is the checkpoint directory (manifest + per-study checkpoint
	// files). Empty disables persistence: studies live and die with the
	// process.
	Dir string
	// Workers is the per-study trial worker pool size (default
	// GOMAXPROCS). It changes wall-clock time only, never results.
	Workers int
	// SaveEvery is the checkpoint cadence in merged trials (default 1:
	// checkpoint after every merge). Ignored without Dir.
	SaveEvery int
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.SaveEvery <= 0 {
		o.SaveEvery = 1
	}
	return o
}

// Server owns the study set. One Server instance backs one HTTP
// listener; New restores every study recorded in Options.Dir.
type Server struct {
	opts Options

	mu       sync.Mutex
	studies  map[string]*Study
	manifest *study.Manifest
	closed   bool
}

// New builds a Server, replaying the manifest in Options.Dir (when set):
// studies with a Final checkpoint or a Stopped manifest entry are
// restored terminal with their fronts; everything else resumes running
// from its last merged boundary.
func New(opts Options) (*Server, error) {
	s := &Server{opts: opts.withDefaults(), studies: make(map[string]*Study), manifest: study.NewManifest()}
	if s.opts.Dir == "" {
		return s, nil
	}
	m, err := study.LoadManifest(study.ManifestPath(s.opts.Dir))
	if err != nil {
		return nil, err
	}
	s.manifest = m
	names := make([]string, 0, len(m.Studies))
	for name := range m.Studies {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		entry := m.Studies[name]
		sp := &StudySpec{}
		dec := json.NewDecoder(bytes.NewReader(entry.Spec))
		dec.DisallowUnknownFields()
		if err := dec.Decode(sp); err != nil {
			return nil, fmt.Errorf("study %q: corrupt manifest spec: %v", name, err)
		}
		if err := sp.normalize(); err != nil {
			return nil, fmt.Errorf("study %q: %v", name, err)
		}
		if sp.Name != name {
			return nil, fmt.Errorf("study %q: manifest spec names %q", name, sp.Name)
		}
		st, err := s.newStudy(sp, entry.Stopped)
		if err != nil {
			return nil, fmt.Errorf("study %q: %v", name, err)
		}
		s.studies[name] = st
		st.start()
	}
	return s, nil
}

// Create registers and starts a new study from a raw JSON spec. The
// manifest entry is persisted before the study becomes visible, so a
// crash at any later point restarts the study; a refused spec has
// written nothing.
func (s *Server) Create(r io.Reader) (*Study, error) {
	sp, err := parseSpec(r)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, fmt.Errorf("%w: server shutting down", ErrBadState)
	}
	if _, ok := s.studies[sp.Name]; ok {
		return nil, fmt.Errorf("%w: %q", ErrDuplicate, sp.Name)
	}
	st, err := s.newStudy(sp, false)
	if err != nil {
		return nil, err
	}
	if s.opts.Dir != "" {
		persist := *sp
		persist.StartPaused = false
		raw, err := json.Marshal(&persist)
		if err != nil {
			return nil, err
		}
		s.manifest.Studies[sp.Name] = study.ManifestEntry{Spec: raw}
		if err := study.SaveManifest(study.ManifestPath(s.opts.Dir), s.manifest); err != nil {
			delete(s.manifest.Studies, sp.Name)
			return nil, err
		}
	}
	s.studies[sp.Name] = st
	st.start()
	return st, nil
}

// Get returns a study by name.
func (s *Server) Get(name string) (*Study, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.studies[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	return st, nil
}

// List returns every study, sorted by name.
func (s *Server) List() []*Study {
	s.mu.Lock()
	defer s.mu.Unlock()
	names := make([]string, 0, len(s.studies))
	for name := range s.studies {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]*Study, len(names))
	for i, name := range names {
		out[i] = s.studies[name]
	}
	return out
}

// Stop stops a study at its next merge boundary and returns the number
// of merged trials at that boundary. The stop is recorded in the
// manifest, so a restarted server restores the study terminal instead of
// resuming it.
func (s *Server) Stop(name string) (int, error) {
	st, err := s.Get(name)
	if err != nil {
		return 0, err
	}
	merged, err := st.stopUser()
	if err != nil {
		return 0, err
	}
	if s.opts.Dir != "" {
		s.mu.Lock()
		if entry, ok := s.manifest.Studies[name]; ok && !entry.Stopped {
			entry.Stopped = true
			s.manifest.Studies[name] = entry
			if serr := study.SaveManifest(study.ManifestPath(s.opts.Dir), s.manifest); serr != nil {
				entry.Stopped = false
				s.manifest.Studies[name] = entry
				s.mu.Unlock()
				return merged, serr
			}
		}
		s.mu.Unlock()
	}
	return merged, nil
}

// Close halts every non-terminal study at its next boundary (recorded as
// interrupted — restored servers resume them) and waits for all of them.
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	studies := make([]*Study, 0, len(s.studies))
	for _, st := range s.studies {
		studies = append(studies, st)
	}
	s.mu.Unlock()
	for _, st := range studies {
		st.halt()
	}
	for _, st := range studies {
		<-st.Done()
	}
}

// Options returns the server's effective options.
func (s *Server) Options() Options { return s.opts }

// Study is one named study: a problem instance shared by all trials, a
// pool of trial workers, and the merger that owns the study archive.
//
// Lock order is the merger's lock, then mu: onMerge runs under the
// merger's lock and takes mu, so nothing may call into the merger while
// holding mu.
type Study struct {
	spec        StudySpec
	fp          string
	path        string // checkpoint file; "" when persistence is off
	saveEach    int
	trials      int
	workerCount int

	problem  *eval.Problem
	merger   *archive.Merger
	stopCh   chan struct{} // closed under mu when the study starts stopping
	doneCh   chan struct{}
	inflight atomic.Int64

	mu       sync.Mutex
	wake     sync.Cond // L is &mu; broadcast on resume and on stop
	status   string
	err      error
	userStop bool // stopped by request, not by server shutdown
	cursor   int  // next trial id to claim
	live     int  // workers that have not exited
	merged   int
	evals    int64
	front    []*moo.Solution // terminal front, set once doneCh closes
}

// newStudy builds the runtime for a normalized spec, restoring
// checkpointed state when the server is persistent. stopped marks a
// manifest-recorded user stop: the study is restored terminal.
// The caller starts it with start().
func (s *Server) newStudy(sp *StudySpec, stopped bool) (*Study, error) {
	st := &Study{
		spec:        *sp,
		saveEach:    s.opts.SaveEvery,
		trials:      sp.Trials,
		workerCount: s.opts.Workers,
		problem:     eval.NewProblem(sp.Density, sp.Seed, eval.WithCommittee(sp.Committee)),
		stopCh:      make(chan struct{}),
		doneCh:      make(chan struct{}),
		status:      StatusRunning,
	}
	st.wake.L = &st.mu
	if err := st.problem.Err(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrSpec, err)
	}
	st.fp = study.Fingerprint("tune-study-v1", sp.identity(), st.problem.Fingerprint())

	var ar archive.Interface
	if sp.ArchiveCapacity > 0 {
		ar = archive.NewAGA(sp.ArchiveCapacity, 8)
	} else {
		ar = archive.NewUnbounded()
	}
	final := false
	if s.opts.Dir != "" {
		path, err := study.StudyPath(s.opts.Dir, sp.Name)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrSpec, err)
		}
		st.path = path
		cp, err := study.Load(path)
		switch {
		case errors.Is(err, os.ErrNotExist):
			// No checkpoint yet: fresh study.
		case err != nil:
			return nil, err
		default:
			if cerr := cp.Check("tune-"+sp.Algorithm, st.fp); cerr != nil {
				return nil, cerr
			}
			ar, err = study.DecodeArchive(cp.Archive, st.problem.Dim(), st.problem.NumObjectives())
			if err != nil {
				return nil, err
			}
			st.merged = int(cp.Iteration)
			st.evals = cp.Evaluations
			final = cp.Final
		}
	}
	st.cursor = st.merged
	st.merger = archive.NewMerger(ar, st.merged, st.onMerge)

	if sp.StartPaused {
		st.status = StatusPaused
	}
	if final || stopped {
		st.status = StatusDone
		if stopped && !final {
			st.status = StatusStopped
		}
		front := st.merger.Snapshot()
		archive.SortByObjective(front, 0)
		st.front = front
		close(st.doneCh)
	}
	return st, nil
}

// start launches the trial workers. Terminal studies (restored
// done/stopped) have a closed doneCh and start is a no-op.
func (st *Study) start() {
	select {
	case <-st.doneCh:
		return
	default:
	}
	st.live = st.workerCount
	for i := 0; i < st.workerCount; i++ {
		go st.work()
	}
}

// work runs trials until the study stops or every trial is claimed. The
// last worker to exit publishes the terminal state.
func (st *Study) work() {
	for {
		id, ok := st.claim()
		if !ok {
			break
		}
		res, err := st.runTrial(id)
		st.inflight.Add(-1)
		switch {
		case err != nil:
			st.fail(fmt.Errorf("trial %d: %v", id, err))
		case !res.Interrupted: // a partial trial is re-run from scratch by the next life
			st.merger.Offer(id, res.Front, res.Evaluations)
		}
	}
	st.mu.Lock()
	st.live--
	last := st.live == 0
	st.mu.Unlock()
	if last {
		st.finish()
	}
}

// claim hands out the next trial id in ascending order, first waiting out
// a pause. It reports false once the study is stopping or every trial has
// been claimed.
func (st *Study) claim() (int, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	for st.status == StatusPaused && !st.stopping() {
		st.wake.Wait()
	}
	if st.stopping() || st.cursor >= st.trials {
		return 0, false
	}
	st.inflight.Add(1)
	st.cursor++
	return st.cursor - 1, true
}

// runTrial executes one trial with its derived seed. Pure function of
// (spec, trial id): worker identity and scheduling never leak in.
func (st *Study) runTrial(id int) (*study.Result, error) {
	seed := eval.TrialSeed(st.spec.Seed, int64(id))
	switch st.spec.Algorithm {
	case AlgMLS:
		res, err := core.OptimizeSequential(st.problem, st.spec.mlsConfig(seed, st.stopCh), nil)
		if err != nil {
			return nil, err
		}
		return &res.Result, nil
	case AlgNSGA2:
		return nsga2.Optimize(st.problem, st.spec.nsga2Config(seed, st.stopCh))
	}
	return nil, fmt.Errorf("unknown algorithm %q", st.spec.Algorithm)
}

// onMerge runs on the offering worker, under the merger's lock, after
// trial id folded in, with the archive quiescent: it advances the
// counters and checkpoints at the save cadence and at completion. A
// checkpoint therefore always captures a completed merge boundary — the
// unit the kill/resume wall replays.
func (st *Study) onMerge(id int, ar archive.Interface, aux any) {
	st.mu.Lock()
	st.merged = id + 1
	st.evals += aux.(int64)
	merged, evals := st.merged, st.evals
	st.mu.Unlock()
	if st.path == "" || (merged%st.saveEach != 0 && merged != st.trials) {
		return
	}
	arcState, err := study.EncodeArchive(ar)
	if err == nil {
		cp := &study.Checkpoint{
			Algorithm:   "tune-" + st.spec.Algorithm,
			Fingerprint: st.fp,
			Final:       merged == st.trials,
			Evaluations: evals,
			Iteration:   int64(merged),
			Counters:    map[string]int64{"merged": int64(merged), "trials": int64(st.trials)},
			Archive:     arcState,
		}
		err = study.Save(st.path, cp)
	}
	if err != nil {
		st.fail(fmt.Errorf("checkpoint at trial %d: %v", merged, err))
	}
}

// fail records the first error and stops the study.
func (st *Study) fail(err error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.err == nil {
		st.err = err
	}
	st.stop()
}

// stopping reports whether the study has been told to stop. Callers hold
// mu.
func (st *Study) stopping() bool {
	select {
	case <-st.stopCh:
		return true
	default:
		return false
	}
}

// stop interrupts running trials at their next boundary (the optimizers
// watch stopCh) and wakes paused workers so they exit. Callers hold mu.
func (st *Study) stop() {
	if !st.stopping() {
		close(st.stopCh)
		st.wake.Broadcast()
	}
}

// finish publishes the terminal state. The last worker calls it on its
// way out: every offer has returned by then, so the merger holds every
// contiguous completed trial.
func (st *Study) finish() {
	front := st.merger.Snapshot()
	archive.SortByObjective(front, 0)
	st.mu.Lock()
	st.front = front
	switch {
	case st.err != nil:
		st.status = StatusFailed
	case st.merged == st.trials:
		st.status = StatusDone
	case st.userStop:
		st.status = StatusStopped
	default:
		st.status = StatusInterrupted
	}
	st.mu.Unlock()
	close(st.doneCh)
}

// Pause holds trial dispatch after the in-flight trials finish. Merged
// counters are untouched, so pause→resume is invisible in the results.
func (st *Study) Pause() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.status != StatusRunning {
		return fmt.Errorf("%w: %q is %s", ErrBadState, st.spec.Name, st.status)
	}
	st.status = StatusPaused
	return nil
}

// Resume reopens trial dispatch.
func (st *Study) Resume() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.status != StatusPaused {
		return fmt.Errorf("%w: %q is %s", ErrBadState, st.spec.Name, st.status)
	}
	st.status = StatusRunning
	st.wake.Broadcast()
	return nil
}

// stopUser executes a user stop request: the study halts at its next
// boundary and the last completed (merged) boundary is returned.
func (st *Study) stopUser() (int, error) {
	st.mu.Lock()
	if st.status != StatusRunning && st.status != StatusPaused {
		defer st.mu.Unlock()
		return st.merged, fmt.Errorf("%w: %q is %s", ErrBadState, st.spec.Name, st.status)
	}
	st.userStop = true
	st.stop()
	st.mu.Unlock()
	<-st.doneCh
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.merged, nil
}

// halt is the server-shutdown stop: like stopUser but terminal status
// StatusInterrupted, which a restarted server resumes.
func (st *Study) halt() {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.stop()
}

// Done is closed when the study reaches a terminal status.
func (st *Study) Done() <-chan struct{} { return st.doneCh }

// Name returns the study name.
func (st *Study) Name() string { return st.spec.Name }

// Spec returns a copy of the normalized spec.
func (st *Study) Spec() StudySpec { return st.spec }

// Front returns the current merged front, sorted by the first objective.
// Terminal studies return their final front; live ones a snapshot at the
// latest merge boundary.
func (st *Study) Front() []*moo.Solution {
	select {
	case <-st.doneCh:
		st.mu.Lock()
		defer st.mu.Unlock()
		return append([]*moo.Solution(nil), st.front...)
	default:
	}
	front := st.merger.Snapshot()
	archive.SortByObjective(front, 0)
	return front
}

// StudyStatus is the wire form of a study's current state.
type StudyStatus struct {
	Name        string      `json:"name"`
	Algorithm   string      `json:"algorithm"`
	Density     int         `json:"density"`
	Seed        uint64      `json:"seed"`
	Trials      int         `json:"trials"`
	Status      string      `json:"status"`
	Merged      int         `json:"merged"`
	InFlight    int64       `json:"in_flight"`
	Pending     int         `json:"pending"`
	Evaluations int64       `json:"evaluations"`
	FrontSize   int         `json:"front_size"`
	Health      eval.Health `json:"health"`
	Error       string      `json:"error,omitempty"`
}

// Status reports the study's state as of the latest completed merge.
func (st *Study) Status() StudyStatus {
	ms := st.merger.State()
	st.mu.Lock()
	defer st.mu.Unlock()
	out := StudyStatus{
		Name:        st.spec.Name,
		Algorithm:   st.spec.Algorithm,
		Density:     st.spec.Density,
		Seed:        st.spec.Seed,
		Trials:      st.trials,
		Status:      st.status,
		Merged:      st.merged,
		InFlight:    st.inflight.Load(),
		Pending:     ms.Pending,
		Evaluations: st.evals,
		FrontSize:   ms.Len,
		Health:      st.problem.Health(),
	}
	if st.err != nil {
		out.Error = st.err.Error()
	}
	return out
}

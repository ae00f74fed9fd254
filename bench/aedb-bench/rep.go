package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"aedbmls"
	"aedbmls/internal/aedb"
	"aedbmls/internal/archive"
	"aedbmls/internal/core"
	"aedbmls/internal/eval"
	"aedbmls/internal/moo"
	"aedbmls/internal/nsga2"
	"aedbmls/internal/study"
	"aedbmls/internal/tuneserver"
)

// childEnv carries a childSpec (as JSON) into a re-executed rep process.
const childEnv = "AEDB_BENCH_CHILD"

// childSpec is one rep: one workload on one generated instance. Every rep
// runs in a fresh process, so the process-wide warm-up and tape caches
// never carry over from one rep to the next.
type childSpec struct {
	Workload string `json:"workload"`
	Scale    string `json:"scale"`
	Seed     uint64 `json:"seed"`
	Instance int    `json:"instance"`
	Traced   bool   `json:"traced"`
	// SetupOnly ends the rep after its set-up, which is all it reports.
	SetupOnly bool `json:"setup_only,omitempty"`
	// SpawnNS is the parent's wall clock when it started this process;
	// setup_s runs from it.
	SpawnNS int64  `json:"spawn_ns"`
	WorkDir string `json:"workdir"`
	// Expect is the committed result digest of this instance ("" when
	// none is committed).
	Expect   string `json:"expect,omitempty"`
	SpansOut string `json:"spans_out,omitempty"`
}

// check is one correctness check of a rep.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// layerValue is one per-layer metric of a traced rep with the number of
// samples behind it.
type layerValue struct {
	Value float64 `json:"value"`
	N     int64   `json:"n"`
}

// repResult is what a child reports. Times cover only the rep's timed
// phase, which excludes set-up, correctness checks and probes.
type repResult struct {
	Workload  string                `json:"workload"`
	Instance  int                   `json:"instance"`
	Traced    bool                  `json:"traced"`
	WallS     float64               `json:"wall_s"`
	StolenS   float64               `json:"stolen_s"` // of WallS, per CPU (see speed.go)
	CPUS      float64               `json:"cpu_s"`
	SetupS    float64               `json:"setup_s"`
	PeakRSSMB float64               `json:"peak_rss_mb"`
	Evals     int64                 `json:"evals"`
	HV        float64               `json:"hv"`
	Digest    string                `json:"digest,omitempty"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Checks    []check               `json:"checks"`
	Extra     map[string]float64    `json:"extra,omitempty"`
	Layers    map[string]layerValue `json:"layers,omitempty"`
	SelfS     map[string]float64    `json:"self_s,omitempty"`
	// ProcessS is the parent-measured life of the child process.
	ProcessS float64 `json:"process_s"`
	// Speed is the run's speed-probe factor (see speed.go), set by the
	// parent.
	Speed float64 `json:"speed"`
}

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	// deterministic workloads give bit-identical results for an instance
	// in every process, traced or not.
	deterministic bool
	// unitS is one untraced rep's nominal time at the standard scale,
	// process start and set-up included, on the VM of bench/README.md. It
	// sets how many reps a run of --seconds holds.
	unitS float64
	run   func(*rep) error
}

var workloads = []workload{
	{"tune-d300", false, 14, func(r *rep) error { return runMLS(r, false) }},
	{"ladder-d300", true, 12, func(r *rep) error { return runMLS(r, true) }},
	{"study-nsga2-d100", true, 11, runStudy},
	{"sweep-cold", true, 2.6, runSweep},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// scale sizes the workloads. "standard" is what the benchmark measures:
// the paper's budgets, i.e. Tune's defaults (8 populations x 12 workers x
// 250 evaluations, committee 10) and the service's NSGA-II defaults
// (population 100, 10,000 evaluations per trial). "tiny" exercises every
// path in well under a second per rep, for the smoke test.
type scale struct {
	pops, workers, evalsPerWorker int // tune and ladder: the MLS shape (0 = Tune's default)
	committee                     int // tune, ladder and study (0 = the paper's 10)
	screenCommittee               int // ladder: screening rung
	studies, trials               int // study: concurrent studies, trials of each
	popSize, evaluations          int // study (0 = the service defaults)
	sweepSeeds, sweepCandidates   int
	// probes is how many speed-probe samples a run takes at least. The
	// median of twelve varies by about 2%, against 6% for one sample.
	probes int
}

var scales = map[string]scale{
	"standard": {screenCommittee: 3, studies: 4, trials: 2, sweepSeeds: 32, sweepCandidates: 8, probes: 12},
	"tiny": {pops: 1, workers: 4, evalsPerWorker: 12, committee: 3, screenCommittee: 1,
		studies: 2, trials: 2, popSize: 8, evaluations: 32, sweepSeeds: 4, sweepCandidates: 4, probes: 1},
}

// sweepDensities are the paper's three densities; the shared caches
// record each scenario once at the largest and mask it for the others.
var sweepDensities = []int{100, 200, 300}

// midVector is the fixed mid-domain configuration of the set-up
// evaluation.
var midVector = aedb.Params{MinDelay: 0.1, MaxDelay: 0.5, BorderThresholdDBm: -80, MarginDBm: 1, NeighborsThreshold: 10}.Vector()

// rep is the child-side state of one rep.
type rep struct {
	spec childSpec
	sc   scale
	tr   *tracer // nil on untraced reps
	dir  string  // private scratch directory
	res  repResult

	// optWall and optCPU are the window the opt and eval layer metrics
	// are taken over: the timed phase, or the study's trial replay.
	optWall, optCPU float64
	mem0, mem1      runtime.MemStats
}

func childMain(raw string) int {
	var spec childSpec
	if err := json.Unmarshal([]byte(raw), &spec); err != nil {
		fmt.Fprintf(os.Stderr, "aedb-bench: bad child spec: %v\n", err)
		return 2
	}
	res, err := runRep(spec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "aedb-bench: %s instance %d: %v\n", spec.Workload, spec.Instance, err)
		return 1
	}
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		fmt.Fprintf(os.Stderr, "aedb-bench: %v\n", err)
		return 1
	}
	return 0
}

func runRep(spec childSpec) (*repResult, error) {
	w, ok := workloadByName(spec.Workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", spec.Workload)
	}
	sc, ok := scales[spec.Scale]
	if !ok {
		return nil, fmt.Errorf("unknown scale %q", spec.Scale)
	}
	if err := os.MkdirAll(spec.WorkDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(spec.WorkDir, "rep-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	r := &rep{spec: spec, sc: sc, dir: dir}
	r.res = repResult{Workload: spec.Workload, Instance: spec.Instance, Traced: spec.Traced, Extra: map[string]float64{}}
	if spec.Traced {
		r.tr = newTracer(spec.Instance)
		r.res.Layers = map[string]layerValue{}
	}
	root := r.tr.begin("bench.rep", 0)
	if err := w.run(r); err != nil {
		return nil, err
	}
	r.tr.end(root)
	if r.tr != nil {
		r.res.SelfS = r.tr.selfTimes()
		if spec.SpansOut != "" {
			if err := r.tr.write(spec.SpansOut); err != nil {
				return nil, err
			}
		}
	}
	return &r.res, nil
}

// seedFor derives this rep's input seed for one purpose from the run
// seed and the instance number. The program under test sees only these
// generated values.
func (r *rep) seedFor(purpose string, idx ...int) uint64 {
	h := fnv.New64a()
	h.Write([]byte(purpose))
	x := splitmix(splitmix(r.spec.Seed) ^ h.Sum64())
	x = splitmix(x ^ splitmix(uint64(r.spec.Instance)))
	for _, i := range idx {
		x = splitmix(x ^ uint64(i))
	}
	return x
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// candidates draws n configurations from the part of the domain the
// optimizers spend their time in: delays short enough that most meet the
// 2 s broadcast budget.
func candidates(seed uint64, n int) [][]float64 {
	lo := []float64{0, 0.2, -92, 0, 0}
	hi := []float64{0.2, 1.0, -72, 3, 50}
	out := make([][]float64, n)
	for i := range out {
		x := make([]float64, len(lo))
		for k := range x {
			seed = splitmix(seed)
			x[k] = lo[k] + float64(seed>>11)/(1<<53)*(hi[k]-lo[k])
		}
		out[i] = x
	}
	return out
}

// setup builds the workload's Problem and evaluates midVector once.
// setup_s runs from the spawn of this process to that first result, so it
// includes process start, warm-up snapshots and beacon tapes. It reports
// false when the rep is set-up-only and ends here.
func (r *rep) setup(density int, seed uint64, opts ...eval.Option) (*eval.Problem, bool) {
	id := r.tr.begin("bench.setup", rootSpan)
	p := eval.NewProblem(density, seed, opts...)
	p.Evaluate(midVector)
	r.res.SetupS = float64(time.Now().UnixNano()-r.spec.SpawnNS) / 1e9
	r.tr.end(id)
	return p, !r.spec.SetupOnly
}

// timed runs the rep's measured phase. Memory statistics are read just
// outside it; peak RSS is read before any check or probe can raise it.
func (r *rep) timed(name string, fn func() error) error {
	runtime.ReadMemStats(&r.mem0)
	cpu0 := cpuSeconds()
	id := r.tr.begin(name, rootSpan)
	r.tr.setPhase(id)
	stolen0, t0 := stolenS(), time.Now()
	err := fn()
	wall, stolen := time.Since(t0), stolenS()-stolen0
	r.tr.end(id)
	cpu := cpuSeconds() - cpu0
	runtime.ReadMemStats(&r.mem1)
	r.res.WallS = wall.Seconds()
	r.res.StolenS = stolen
	r.res.CPUS = cpu
	r.res.PeakRSSMB = peakRSSMB()
	r.optWall, r.optCPU = r.res.WallS, cpu
	return err
}

// check records one correctness check covering n operations, failures of
// which failed.
func (r *rep) check(name string, n, failed int64, format string, args ...any) {
	c := check{Name: name, OK: failed == 0}
	if failed != 0 {
		c.Detail = fmt.Sprintf(format, args...)
	}
	r.res.Attempted += n
	r.res.Failed += failed
	r.res.Checks = append(r.res.Checks, c)
}

func (r *rep) expect(name string, ok bool, format string, args ...any) {
	failed := int64(0)
	if !ok {
		failed = 1
	}
	r.check(name, 1, failed, format, args...)
}

// checkDigest compares the result digest with the committed one, when one
// is committed for this instance.
func (r *rep) checkDigest(d string) {
	r.res.Digest = d
	if r.spec.Expect != "" {
		r.expect("digest", d == r.spec.Expect, "digest %s, committed %s", d, r.spec.Expect)
	}
}

// checkFront checks a tuning front: non-empty, mutually non-dominated and,
// when feasible is set, within the broadcast-time budget.
func (r *rep) checkFront(front []*moo.Solution, feasible bool) {
	r.expect("front non-empty", len(front) > 0, "empty front")
	if feasible {
		bad := int64(0)
		for _, s := range front {
			if !s.Feasible() {
				bad++
			}
		}
		r.check("front feasible", int64(len(front)), bad, "%d infeasible points", bad)
	}
	dominated := int64(0)
	for i, a := range front {
		for j, b := range front {
			if i != j && moo.Dominates(b, a) {
				dominated++
				break
			}
		}
	}
	r.check("front non-dominated", int64(len(front)), dominated, "%d dominated points", dominated)
}

// checkReference re-simulates every front configuration on the full-tail
// reference engine, which must reproduce the four reported metrics bit
// for bit.
func (r *rep) checkReference(density int, seed uint64, front []*moo.Solution, opts ...eval.Option) {
	ref := eval.NewProblem(density, seed, append(opts, eval.WithReferencePath(true))...)
	xs := make([][]float64, len(front))
	for i, s := range front {
		xs[i] = s.X
	}
	bad, first := int64(0), ""
	for i, got := range ref.EvaluateBatch(xs) {
		w, _ := eval.MetricsOf(front[i])
		m := got.Aux.(eval.Metrics)
		ref := [4]float64{m.EnergyDBmSum, m.Coverage, m.Forwardings, m.BroadcastTime}
		reported := [4]float64{w.EnergyDBmSum, w.Coverage, w.Forwardings, w.BroadcastTime}
		for k := range ref {
			if math.Float64bits(ref[k]) != math.Float64bits(reported[k]) {
				if bad == 0 {
					first = fmt.Sprintf("point %d: reference %v, reported %v", i, ref, reported)
				}
				bad++
				break
			}
		}
	}
	r.check("reference engine", int64(len(front)), bad, "%d of %d points differ; %s", bad, len(front), first)
}

// problemOptions are the evaluation options aedbmls.Tune derives from cfg.
func problemOptions(cfg aedbmls.Config) []eval.Option {
	opts := committeeOptions(cfg.Committee)
	if cfg.Fidelity.Enabled() {
		opts = append(opts, eval.WithFidelity(cfg.Fidelity))
	}
	return opts
}

// mlsConfig is the optimizer configuration aedbmls.Tune derives from cfg.
func mlsConfig(cfg aedbmls.Config) core.Config {
	mls := core.DefaultConfig()
	if cfg.Populations > 0 {
		mls.Populations = cfg.Populations
	}
	if cfg.Workers > 0 {
		mls.Workers = cfg.Workers
	}
	if cfg.EvalsPerWorker > 0 {
		mls.EvalsPerWorker = cfg.EvalsPerWorker
	}
	mls.Seed = cfg.Seed
	mls.Criteria = core.DefaultAEDBCriteria()
	mls.NeighborhoodSize = cfg.NeighborhoodSize
	return mls
}

func committeeOptions(n int) []eval.Option {
	if n > 0 {
		return []eval.Option{eval.WithCommittee(n)}
	}
	return nil
}

// mlsCommittee is the committee seed of tune-d300 and ladder-d300: one
// frozen set of networks for every run seed and instance, as in the
// paper, where every run tunes on the same networks. The run seed varies
// the optimizer's randomness. A committee drawn per instance made a rep's
// wall time vary by 11% from one instance to the next, against 6.5-7%
// on this one (bench/README.md, Workloads).
const mlsCommittee = 1

// runMLS runs one AEDB-MLS tuning at density 300: the racing threaded
// engine (tune-d300) or the deterministic batched engine behind the
// fidelity ladder (ladder-d300). aedbmls.Tune takes one seed for both the
// committee and the optimizer, so the rep does what Tune does with the
// two seeds apart: it builds the Problem and the configuration Tune
// builds and calls the engine Tune picks, with the archive Tune leaves to
// the engine. Traced reps pass the evaluation and archive wrappers
// instead.
func runMLS(r *rep, ladder bool) error {
	sc := r.sc
	cfg := aedbmls.Config{Density: 300, Seed: r.seedFor("mls"), Committee: sc.committee,
		Populations: sc.pops, Workers: sc.workers, EvalsPerWorker: sc.evalsPerWorker}
	if ladder {
		cfg.Deterministic = true
		cfg.NeighborhoodSize = 8
		cfg.Fidelity = eval.Fidelity{Committee: sc.screenCommittee}
	}
	setupProblem, more := r.setup(cfg.Density, mlsCommittee, problemOptions(cfg)...)
	if !more {
		return nil
	}
	mls := mlsConfig(cfg)
	optimize, name := core.Optimize, "opt.Optimize"
	if cfg.Deterministic {
		optimize, name = core.OptimizeSequential, "opt.OptimizeSequential"
	}

	var front []*moo.Solution
	var evals int64
	// A fresh Problem, as Tune builds: the ladder's reference fronts live on
	// the Problem, and the set-up evaluation must not seed them.
	var p *eval.Problem
	err := r.timed(name, func() error {
		p = eval.NewProblem(cfg.Density, mlsCommittee, problemOptions(cfg)...)
		var problem moo.Problem = p
		var arch archive.Interface
		if r.tr != nil {
			problem = r.tr.problem(p)
			arch = r.tr.archive(archive.NewAGA(mls.ArchiveCapacity, mls.GridDivisions))
		}
		res, err := optimize(problem, mls, arch)
		if err != nil {
			return err
		}
		front, evals = res.Front, res.Evaluations
		return nil
	})
	if err != nil {
		return err
	}
	r.res.Evals = evals

	id := r.tr.begin("bench.check", rootSpan)
	budget := int64(mls.Populations * mls.Workers * mls.EvalsPerWorker)
	r.expect("budget", evals == budget, "%d evaluations, budget %d", evals, budget)
	r.checkFront(front, true)
	r.checkReference(cfg.Density, mlsCommittee, front, committeeOptions(sc.committee)...)
	if ladder {
		r.checkDigest(digestSolutions(front, false))
	}
	r.res.HV = hypervolume(front, cfg.Density)
	r.tr.end(id)

	if r.tr != nil {
		r.evalLayers(p.Health())
		r.archiveLayers()
		return r.probe(setupProblem, committeeOptions(sc.committee), front, "")
	}
	return nil
}

// studySpec is the POST /studies body of the study workload.
type studySpec struct {
	Name        string `json:"name"`
	Algorithm   string `json:"algorithm"`
	Density     int    `json:"density"`
	Seed        uint64 `json:"seed"`
	Trials      int    `json:"trials"`
	Committee   int    `json:"committee,omitempty"`
	PopSize     int    `json:"pop_size,omitempty"`
	Evaluations int    `json:"evaluations,omitempty"`
}

// runStudy drives an in-process tuning service the way a client does: one
// keep-alive connection creates the NSGA-II studies, polls their status
// every 50 ms until all are done, and fetches each merged front. Every
// study has its own committee, so one rep averages over several.
func runStudy(r *rep) error {
	sc := r.sc
	copts := committeeOptions(sc.committee)
	specs := make([]studySpec, sc.studies)
	for i := range specs {
		specs[i] = studySpec{Name: fmt.Sprintf("bench-%d", i), Algorithm: tuneserver.AlgNSGA2, Density: 100,
			Seed: r.seedFor("study", i), Trials: sc.trials, Committee: sc.committee, PopSize: sc.popSize,
			Evaluations: sc.evaluations}
	}
	setupProblem, more := r.setup(100, specs[0].Seed, copts...)
	if !more {
		return nil
	}

	dir := filepath.Join(r.dir, "study")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	stop := make(chan struct{})
	ready := make(chan net.Addr, 1)
	served := make(chan error, 1)
	go func() {
		served <- tuneserver.Serve("127.0.0.1:0", tuneserver.Options{Dir: dir, Workers: runtime.NumCPU()}, stop,
			func(a net.Addr) { ready <- a })
	}()
	var addr net.Addr
	select {
	case addr = <-ready:
	case err := <-served:
		return fmt.Errorf("study server: %v", err)
	}
	cl := &client{r: r, base: "http://" + addr.String(), ms: map[string][]float64{},
		c: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}}

	perTrial := nsga2.DefaultConfig()
	if sc.popSize > 0 {
		perTrial.PopSize = sc.popSize
	}
	if sc.evaluations > 0 {
		perTrial.Evaluations = sc.evaluations
	}
	status := map[string]tuneserver.StudyStatus{}
	fronts := make([][]*moo.Solution, len(specs))
	var polls, pendingMax int
	var inFlight float64
	err := r.timed("tuneserver.studies", func() error {
		for _, spec := range specs {
			body, _ := json.Marshal(spec)
			if _, err := cl.do("POST", "/studies", "http.create_ms", body); err != nil {
				return err
			}
		}
		deadline := time.Now().Add(150 * time.Second)
		for {
			raw, err := cl.do("GET", "/studies", "http.status_ms", nil)
			if err != nil {
				return err
			}
			var sts []tuneserver.StudyStatus
			if err := json.Unmarshal(raw, &sts); err != nil {
				return fmt.Errorf("study status: %v", err)
			}
			polls++
			running := 0
			for _, st := range sts {
				status[st.Name] = st
				pendingMax = max(pendingMax, st.Pending)
				inFlight += float64(st.InFlight)
				if st.Status == tuneserver.StatusRunning || st.Status == tuneserver.StatusPaused {
					running++
				}
			}
			if running == 0 {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("%d studies still running after 150 s", running)
			}
			time.Sleep(50 * time.Millisecond)
		}
		for i, spec := range specs {
			raw, err := cl.do("GET", "/studies/"+spec.Name+"/front", "http.front_ms", nil)
			if err != nil {
				return err
			}
			if fronts[i], err = decodeFront(raw); err != nil {
				return err
			}
		}
		return nil
	})
	cl.c.CloseIdleConnections()
	close(stop)
	if serr := <-served; err == nil && serr != nil {
		err = fmt.Errorf("study server: %v", serr)
	}
	if err != nil {
		return err
	}

	id := r.tr.begin("bench.check", rootSpan)
	r.check("http", cl.requests, cl.errors, "%d of %d requests failed", cl.errors, cl.requests)
	var health eval.Health
	var merged int
	var hvs []float64
	for i, spec := range specs {
		st, rows := status[spec.Name], fronts[i]
		r.expect("status done", st.Status == tuneserver.StatusDone, "%s: status %q (%s)", spec.Name, st.Status, st.Error)
		r.expect("merged == trials", st.Merged == sc.trials && st.Trials == sc.trials, "%s: merged %d of %d trials", spec.Name, st.Merged, st.Trials)
		budget := int64(sc.trials * perTrial.Evaluations)
		r.expect("budget", st.Evaluations == budget, "%s: %d evaluations, budget %d", spec.Name, st.Evaluations, budget)
		r.expect("front rows == front_size", len(rows) == st.FrontSize, "%s: %d NDJSON rows, front_size %d", spec.Name, len(rows), st.FrontSize)
		r.check("health failures", st.Evaluations, st.Health.Failures, "%s: %d failed evaluations", spec.Name, st.Health.Failures)
		r.checkFront(rows, false)
		r.res.Evals += st.Evaluations
		merged += st.Merged
		health = addHealth(health, st.Health)
		hvs = append(hvs, hypervolume(rows, 100))
	}
	r.checkDigest(digestFronts(fronts))
	r.res.HV = percentile(hvs, 50)
	r.res.Extra["trials_per_s"] = float64(merged) / r.res.WallS
	r.tr.end(id)

	if r.tr == nil {
		return nil
	}
	r.layer("archive.merge_pending_max", float64(pendingMax), int64(polls))
	r.layer("tuneserver.in_flight_mean", inFlight/float64(polls), int64(polls))
	r.layer("http.requests", float64(cl.requests), cl.requests)
	r.layer("http.errors", float64(cl.errors), cl.requests)
	cl.layers()

	// The service builds its own Problems, out of the wrappers' reach.
	// Trials are a pure function of (spec, trial id), so replaying the
	// first study's trial 0 in process through the wrappers shows the
	// per-trial engine's evaluation stream.
	first := specs[0]
	rp := eval.NewProblem(100, first.Seed, copts...)
	cfg := perTrial
	cfg.Seed = eval.TrialSeed(first.Seed, 0)
	r.tr.keep = true
	rid := r.tr.begin("opt.nsga2-trial0", rootSpan)
	r.tr.setPhase(rid)
	t0, cpu0 := time.Now(), cpuSeconds()
	res, err := nsga2.Optimize(r.tr.problem(rp), cfg)
	r.optWall, r.optCPU = time.Since(t0).Seconds(), cpuSeconds()-cpu0
	r.tr.end(rid)
	if err != nil {
		return err
	}
	r.expect("trial 0 replay budget", res.Evaluations == int64(perTrial.Evaluations), "%d evaluations", res.Evaluations)
	r.evalLayers(health)
	r.probeArchive(func() archive.Interface { return archive.NewUnbounded() }, [][]*moo.Solution{r.tr.sols})
	ckpt, err := study.StudyPath(dir, first.Name)
	if err != nil {
		return err
	}
	return r.probe(setupProblem, copts, fronts[0], ckpt)
}

// client is the study workload's HTTP client: one keep-alive connection,
// every request timed and counted.
type client struct {
	r                *rep
	base             string
	c                *http.Client
	requests, errors int64
	ms               map[string][]float64
}

func (cl *client) do(method, route, metric string, body []byte) ([]byte, error) {
	req, err := http.NewRequest(method, cl.base+route, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	resp, err := cl.c.Do(req)
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	t1 := time.Now()
	cl.r.tr.span("http."+method+" "+route, t0, t1)
	cl.requests++
	cl.ms[metric] = append(cl.ms[metric], ms(t1.Sub(t0)))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		cl.errors++
	}
	return raw, nil
}

// layers records the client-side HTTP timings (results file only).
func (cl *client) layers() {
	r := cl.r
	for _, name := range []string{"http.create_ms", "http.front_ms"} {
		r.layer(name, percentile(cl.ms[name], 50), int64(len(cl.ms[name])))
	}
	st := cl.ms["http.status_ms"]
	r.layer("http.status_ms_p50", percentile(st, 50), int64(len(st)))
	r.layer("http.status_ms_p75", percentile(st, 75), int64(len(st)))
}

// decodeFront parses the NDJSON front stream.
func decodeFront(raw []byte) ([]*moo.Solution, error) {
	var out []*moo.Solution
	dec := json.NewDecoder(bytes.NewReader(raw))
	for dec.More() {
		var row study.Solution
		if err := dec.Decode(&row); err != nil {
			return nil, fmt.Errorf("front row %d: %v", len(out), err)
		}
		s, err := row.Decode(aedb.NumParams, 3)
		if err != nil {
			return nil, fmt.Errorf("front row %d: %v", len(out), err)
		}
		out = append(out, s)
	}
	return out, nil
}

// runSweep builds a fresh Problem for every (committee seed, density) and
// evaluates one candidate batch on each, twice: the cold pass fills the
// process-wide warm-up and tape caches, the warm pass reads them.
func runSweep(r *rep) error {
	sc := r.sc
	seeds := make([]uint64, sc.sweepSeeds)
	cands := make([][][]float64, sc.sweepSeeds)
	for i := range seeds {
		seeds[i] = r.seedFor("sweep", i)
		cands[i] = candidates(r.seedFor("sweep-candidates", i), sc.sweepCandidates)
	}
	setupProblem, more := r.setup(300, r.seedFor("sweep-setup"))
	if !more {
		return nil
	}

	n := len(seeds) * len(sweepDensities)
	var results [2][][]moo.BatchResult
	var passS [2]float64
	var evals int64
	var health eval.Health
	err := r.timed("eval.sweep", func() error {
		for pass := range results {
			t0 := time.Now()
			for i, seed := range seeds {
				for _, d := range sweepDensities {
					p := eval.NewProblem(d, seed)
					var bp moo.BatchProblem = p
					if r.tr != nil {
						bp = r.tr.problem(p)
					}
					results[pass] = append(results[pass], bp.EvaluateBatch(cands[i]))
					evals += p.Evaluations()
					health = addHealth(health, p.Health())
				}
			}
			passS[pass] = time.Since(t0).Seconds()
		}
		return nil
	})
	if err != nil {
		return err
	}
	r.res.Evals = evals
	r.res.Extra["problems_per_s"] = float64(2*n) / r.res.WallS
	r.res.Extra["cold_problem_ms"] = passS[0] * 1e3 / float64(n)
	r.res.Extra["warm_problem_ms"] = passS[1] * 1e3 / float64(n)

	id := r.tr.begin("bench.check", rootSpan)
	budget := int64(2 * n * sc.sweepCandidates)
	r.expect("budget", evals == budget, "%d evaluations, budget %d", evals, budget)
	r.check("health failures", evals, health.Failures, "%d failed evaluations", health.Failures)
	cold, warm := digestBatches(results[0]), digestBatches(results[1])
	r.expect("warm pass == cold pass", cold == warm, "cached results differ from cold ones")
	r.checkDigest(cold)
	var hvs []float64
	k := 0
	for range seeds {
		for _, d := range sweepDensities {
			hvs = append(hvs, hypervolume(batchSolutions(cands[k/len(sweepDensities)], results[0][k]), d))
			k++
		}
	}
	r.res.HV = percentile(hvs, 50)
	r.tr.end(id)

	if r.tr == nil {
		return nil
	}
	r.evalLayers(health)
	r.layer("eval.cold_problem_ms", r.res.Extra["cold_problem_ms"], int64(n))
	r.layer("eval.warm_problem_ms", r.res.Extra["warm_problem_ms"], int64(n))
	var groups [][]*moo.Solution
	var all []*moo.Solution
	for k, rs := range results[0] {
		groups = append(groups, batchSolutions(cands[k/len(sweepDensities)], rs))
		all = append(all, groups[k]...)
	}
	r.probeArchive(func() archive.Interface { return archive.NewAGA(100, 8) }, groups)
	return r.probe(setupProblem, nil, all, "")
}

func addHealth(a, b eval.Health) eval.Health {
	a.Panics += b.Panics
	a.Errors += b.Errors
	a.Retries += b.Retries
	a.Timeouts += b.Timeouts
	a.Failures += b.Failures
	a.SerialFallbacks += b.SerialFallbacks
	a.ScreenEvals += b.ScreenEvals
	a.Screened += b.Screened
	a.Promoted += b.Promoted
	a.FullEvals += b.FullEvals
	return a
}

func batchSolutions(xs [][]float64, rs []moo.BatchResult) []*moo.Solution {
	out := make([]*moo.Solution, len(rs))
	for i, br := range rs {
		out[i] = &moo.Solution{X: xs[i], F: br.F, Violation: br.Violation, Aux: br.Aux}
	}
	return out
}

// cpuSeconds is the user+system CPU time of this process so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// peakRSSMB is VmHWM, the peak resident set of this process, in MB.
func peakRSSMB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			var kb float64
			fmt.Sscan(f[1], &kb)
			return kb * 1024 / 1e6
		}
	}
	return 0
}

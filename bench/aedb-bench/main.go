// Command aedb-bench is the repository benchmark. It runs the workloads
// users actually run, each rep in a fresh child process (the command
// re-executes itself), checks every output for correctness, and reports
// end-to-end metrics from untraced reps and per-layer metrics from traced
// ones. See bench/README.md for the workloads and metrics; run it through
// bench/run.sh, which builds it inside the checkout.
//
//	aedb-bench [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]
//	           [--reps N] [--scale standard|tiny] [--out FILE] [--digests FILE]
//	aedb-bench --ab-base BIN --workload NAME [--pairs N] [--seconds S]
//
// With one workload the last line of standard output is a JSON object
// {"correct", "attempted", "failed", "metrics"}; the exit code is 0 only
// when every check passed.
package main

import (
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() {
	if spec := os.Getenv(childEnv); spec != "" {
		os.Exit(childMain(spec))
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
	reps     int
	scale    string
	out      string
	digests  string
	workdir  string
	abBase   string
	pairs    int
}

// childTimeout bounds one rep, so a hung child cannot hold a run past its
// deadline.
const childTimeout = 150 * time.Second

func run(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("aedb-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "all", "workload name, or all")
	fs.Uint64Var(&o.seed, "seed", 1, "input seed (2 is held out for claims)")
	fs.Float64Var(&o.seconds, "seconds", 28, "run length per workload; sets how many reps run")
	fs.IntVar(&o.trace, "trace", 0, "1: paired untraced and traced reps, per-layer metrics")
	fs.IntVar(&o.reps, "reps", 0, "run exactly this many reps (pairs when tracing) per workload")
	fs.StringVar(&o.scale, "scale", "standard", "workload size: standard or tiny")
	fs.StringVar(&o.out, "out", "", "write the results file here")
	fs.StringVar(&o.digests, "digests", "", "digest table to check against (default: the committed one)")
	fs.StringVar(&o.workdir, "workdir", ".bench_build/work", "scratch directory for reps")
	fs.StringVar(&o.abBase, "ab-base", "", "A/B: the base side's aedb-bench binary")
	fs.IntVar(&o.pairs, "pairs", 10, "A/B: number of pairs")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, ok := scales[o.scale]; !ok || o.trace < 0 || o.trace > 1 || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "aedb-bench: bad arguments (scale %q, trace %d, extra %q)\n", o.scale, o.trace, fs.Args())
		return 2
	}
	if o.abBase != "" {
		return runAB(o, stdout, stderr)
	}
	var ws []workload
	for _, w := range workloads {
		if o.workload == "all" || o.workload == w.name {
			ws = append(ws, w)
		}
	}
	if len(ws) == 0 {
		fmt.Fprintf(stderr, "aedb-bench: unknown workload %q\n", o.workload)
		return 2
	}
	table, err := loadDigests(o.digests)
	if err != nil {
		fmt.Fprintf(stderr, "aedb-bench: %v\n", err)
		return 2
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "aedb-bench: %v\n", err)
		return 2
	}
	workdir, err := filepath.Abs(o.workdir)
	if err != nil {
		fmt.Fprintf(stderr, "aedb-bench: %v\n", err)
		return 2
	}
	s := &runner{o: o, exe: exe, workdir: workdir, digests: table, stderr: stderr}
	if o.trace == 1 {
		s.spans = filepath.Join(workdir, "spans")
		if err := os.MkdirAll(s.spans, 0o755); err != nil {
			fmt.Fprintf(stderr, "aedb-bench: %v\n", err)
			return 2
		}
	}
	plans := make([]*plan, len(ws))
	for i, w := range ws {
		n := o.units(w)
		plans[i] = &plan{w: w, target: n, probes: (scales[o.scale].probes + n - 1) / n}
		if o.trace == 0 {
			plans[i].setupOnly = (minSetups+n-1)/n - 1
		}
	}
	s.probe = newSpeedProbe()
	s.schedule(plans)

	results := make([]workloadResult, len(plans))
	correct := true
	for i, pl := range plans {
		results[i] = pl.result(o.trace == 1)
		correct = correct && results[i].Correct
	}
	report(stdout, o, results)
	if o.out != "" {
		if err := writeResults(o, results); err != nil {
			fmt.Fprintf(stderr, "aedb-bench: %v\n", err)
			return 1
		}
	}
	if !correct {
		return 1
	}
	return 0
}

type runner struct {
	o       options
	exe     string
	workdir string
	spans   string
	digests digestTable
	stderr  io.Writer
	probe   *speedProbe
}

// plan is one workload's progress through a run.
type plan struct {
	w         workload
	target    int // units to run
	setupOnly int // set-up-only children per untraced unit
	probes    int // speed-probe samples after each unit
	done      int
	reps      []*repResult // untraced
	traced    []*repResult // traced, paired with reps by instance
	setups    []float64    // set-up-only children's setup_s
	errs      []string     // reps that did not report, and pair mismatches
	// factors are the speed-probe samples taken after the units. Their
	// median is the factor of every rep of the run: a single sample is
	// noisy, while the drift it corrects for is slow.
	factors []float64
}

// minSetups is how many set-ups an untraced run measures at least, so
// setup_s is a median over several even where a run holds two reps.
const minSetups = 9

// units is how many units a run of w holds: as many as fit in --seconds
// at the workload's nominal rep time, and at least two reps untraced or
// one pair traced. The count, and with it every input of the run, depends
// only on the flags, not on how fast this run happens to go.
func (o options) units(w workload) int {
	if o.reps > 0 {
		return o.reps
	}
	if o.trace == 1 {
		return max(1, int(o.seconds/(2*w.unitS)))
	}
	return max(2, int(o.seconds/w.unitS))
}

// schedule runs units round-robin across the workloads, so drift of the
// machine hits them alike, until every workload has run its units.
func (s *runner) schedule(plans []*plan) {
	for {
		progressed := false
		for _, pl := range plans {
			if pl.done >= pl.target || len(pl.errs) > 0 {
				continue
			}
			s.runUnit(pl, pl.done)
			pl.done++
			progressed = true
		}
		if !progressed {
			return
		}
	}
}

// runUnit runs instance k: its set-up-only children, then one untraced
// rep, or when tracing an untraced and a traced rep of the same instance
// in alternating order. The speed probe runs after the unit.
func (s *runner) runUnit(pl *plan, k int) {
	if err := s.spawnUnit(pl, k); err != nil {
		pl.errs = append(pl.errs, err.Error())
		fmt.Fprintf(s.stderr, "aedb-bench: %v\n", err)
	}
	pl.factors = append(pl.factors, s.probe.factors(pl.probes)...)
}

func (s *runner) spawnUnit(pl *plan, k int) error {
	for i := 0; i < pl.setupOnly; i++ {
		res, err := s.spawn(pl.w, k, false, true)
		if err != nil {
			return err
		}
		pl.setups = append(pl.setups, res.SetupS)
	}
	order := []bool{false}
	if s.o.trace == 1 {
		order = []bool{k%2 == 1, k%2 == 0}
	}
	var pair [2]*repResult
	for _, traced := range order {
		res, err := s.spawn(pl.w, k, traced, false)
		if err != nil {
			return err
		}
		if traced {
			pl.traced, pair[1] = append(pl.traced, res), res
		} else {
			pl.reps, pair[0] = append(pl.reps, res), res
		}
	}
	if s.o.trace == 1 && pl.w.deterministic && pair[0].Digest != pair[1].Digest {
		return fmt.Errorf("%s instance %d: traced digest %s differs from untraced %s",
			pl.w.name, k, pair[1].Digest, pair[0].Digest)
	}
	return nil
}

// spawn runs one rep in a fresh process and returns its report.
func (s *runner) spawn(w workload, k int, traced, setupOnly bool) (*repResult, error) {
	spec := childSpec{Workload: w.name, Scale: s.o.scale, Seed: s.o.seed, Instance: k, Traced: traced,
		SetupOnly: setupOnly, WorkDir: s.workdir, Expect: s.digests.expect(w.name, s.o.scale, s.o.seed, k)}
	if traced {
		spec.SpansOut = filepath.Join(s.spans, fmt.Sprintf("%s-seed%d-i%d.json", w.name, s.o.seed, k))
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, s.exe)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, s.stderr
	start := time.Now()
	spec.SpawnNS = start.UnixNano()
	raw, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	cmd.Env = append(os.Environ(), childEnv+"="+string(raw))
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s instance %d: rep failed: %v", w.name, k, err)
	}
	res := &repResult{}
	lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
	if err := json.Unmarshal(lines[len(lines)-1], res); err != nil {
		return nil, fmt.Errorf("%s instance %d: bad rep report: %v", w.name, k, err)
	}
	res.ProcessS = time.Since(start).Seconds()
	if setupOnly {
		return res, nil
	}
	status := "ok"
	if res.Failed > 0 {
		status = fmt.Sprintf("%d FAILED", res.Failed)
	}
	kind := "rep"
	if traced {
		kind = "traced rep"
	}
	fmt.Fprintf(s.stderr, "aedb-bench: %s %s %d: wall %.3f s, setup %.3f s, checks %s\n",
		w.name, kind, k, res.WallS, res.SetupS, status)
	return res, nil
}

// workloadResult is one workload's part of a run: the aggregated metrics
// and every rep's raw report.
type workloadResult struct {
	Name      string             `json:"name"`
	Reps      int                `json:"reps"`
	Correct   bool               `json:"correct"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Errors    []string           `json:"errors,omitempty"`
	Failures  []string           `json:"failures,omitempty"`
	EndToEnd  map[string]summary `json:"end_to_end"`
	Extra     map[string]summary `json:"extra,omitempty"`
	Layers    map[string]summary `json:"layers,omitempty"`
	SelfS     map[string]summary `json:"self_s,omitempty"`
	Raw       []*repResult       `json:"raw"`
}

func (pl *plan) result(trace bool) workloadResult {
	wr := workloadResult{Name: pl.w.name, Reps: pl.done, Errors: pl.errs,
		EndToEnd: map[string]summary{}, Extra: map[string]summary{}}
	all := append(append([]*repResult(nil), pl.reps...), pl.traced...)
	wr.Raw = all
	speed := quartiles(pl.factors)[1]
	for _, r := range all {
		r.Speed = speed
		wr.Attempted += r.Attempted
		wr.Failed += r.Failed
		for _, c := range r.Checks {
			if !c.OK {
				wr.Failures = append(wr.Failures, fmt.Sprintf("instance %d: %s: %s", r.Instance, c.Name, c.Detail))
			}
		}
	}
	// A rep that never reported, or a pair that disagreed, is a failed
	// operation too.
	wr.Attempted += int64(len(pl.errs))
	wr.Failed += int64(len(pl.errs))
	wr.Correct = wr.Failed == 0 && len(all) > 0

	for _, m := range endToEnd {
		var vs []float64
		for _, r := range pl.reps {
			vs = append(vs, m.value(r))
		}
		if m.name == "setup_s" {
			for _, v := range pl.setups {
				vs = append(vs, v/speed)
			}
		}
		wr.EndToEnd[m.name] = summarize(m.unit, vs, int64(len(vs)))
	}
	extras := map[string][]float64{"speed": pl.factors}
	for _, r := range pl.reps {
		for k, v := range r.Extra {
			extras[k] = append(extras[k], v)
		}
	}
	for k, vs := range extras {
		wr.Extra[k] = summarize(unitOf(k), vs, int64(len(vs)))
	}
	if !trace {
		return wr
	}
	wr.Layers, wr.SelfS = map[string]summary{}, map[string]summary{}
	layers, counts, self := map[string][]float64{}, map[string]int64{}, map[string][]float64{}
	for _, r := range pl.traced {
		for k, v := range r.Layers {
			layers[k] = append(layers[k], v.Value)
			counts[k] += v.N
		}
		for k, v := range r.SelfS {
			self[k] = append(self[k], v)
		}
	}
	var overhead []float64
	for i := 0; i < min(len(pl.traced), len(pl.reps)); i++ {
		overhead = append(overhead, (pl.traced[i].WallS/pl.reps[i].WallS-1)*100)
	}
	layers["trace.overhead_pct"], counts["trace.overhead_pct"] = overhead, int64(len(overhead))
	for k, vs := range layers {
		wr.Layers[k] = summarize(unitOf(k), vs, counts[k])
	}
	for k, vs := range self {
		wr.SelfS[k] = summarize("s", vs, int64(len(vs)))
	}
	return wr
}

// report prints one table row per metric and, for a single workload, the
// JSON result line.
func report(w io.Writer, o options, results []workloadResult) {
	m := machineInfo()
	fmt.Fprintf(w, "# aedb-bench seed=%d scale=%s trace=%d seconds=%g %s %s/%s nproc=%d cpu=%q commit=%s dirty=%t\n",
		o.seed, o.scale, o.trace, o.seconds, m.GoVersion, m.GOOS, m.GOARCH, m.NProc, m.CPUModel, m.Commit, m.Dirty)
	fmt.Fprintf(w, "# %-18s %-27s %-6s %14s %14s %14s %7s\n", "workload", "metric", "unit", "median", "q1", "q3", "n")
	for _, wr := range results {
		rows := wr.EndToEnd
		if o.trace == 1 {
			rows = wr.Layers
		}
		for _, name := range sortedKeys(rows) {
			sm := rows[name]
			fmt.Fprintf(w, "  %-18s %-27s %-6s %14.6g %14.6g %14.6g %7d\n", wr.Name, name, sm.Unit, sm.Median, sm.Q1, sm.Q3, sm.N)
		}
		for _, name := range sortedKeys(wr.Extra) {
			sm := wr.Extra[name]
			fmt.Fprintf(w, "  %-18s %-27s %-6s %14.6g %14.6g %14.6g %7d\n", wr.Name, name, sm.Unit, sm.Median, sm.Q1, sm.Q3, sm.N)
		}
		verdict := "all checks passed"
		if !wr.Correct {
			verdict = fmt.Sprintf("FAILED %d of %d operations", wr.Failed, wr.Attempted)
		}
		fmt.Fprintf(w, "# %s: %d reps, %s\n", wr.Name, wr.Reps, verdict)
		for _, f := range append(wr.Errors, wr.Failures...) {
			fmt.Fprintf(w, "#   %s\n", f)
		}
	}
	if len(results) != 1 {
		return
	}
	wr := results[0]
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	if o.trace == 1 {
		for _, m := range perLayer {
			metrics[m.name] = value{finite(wr.Layers[m.name].Median), m.unit}
		}
	} else {
		for _, m := range endToEnd {
			metrics[m.name] = value{finite(wr.EndToEnd[m.name].Median), m.unit}
		}
	}
	line, _ := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{wr.Correct, max(wr.Attempted, 1), wr.Failed, metrics})
	fmt.Fprintf(w, "%s\n", line)
}

// finite keeps the result line valid JSON when a run produced no value.
func finite(v float64) float64 {
	if v != v || v > 1e300 || v < -1e300 {
		return 0
	}
	return v
}

// sortedKeys orders end-to-end and per-layer metrics as BENCHMARK.json
// lists them, anything else by name.
func sortedKeys(m map[string]summary) []string {
	rank := map[string]int{}
	for i, d := range endToEnd {
		rank[d.name] = i + 1
	}
	for i, d := range perLayer {
		rank[d.name] = i + 1
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		ri, rj := rank[keys[i]], rank[keys[j]]
		if ri == 0 {
			ri = 1 << 30
		}
		if rj == 0 {
			rj = 1 << 30
		}
		if ri != rj {
			return ri < rj
		}
		return keys[i] < keys[j]
	})
	return keys
}

// machine is the results file's record of where a run happened.
type machine struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Commit     string `json:"commit"`
	Dirty      bool   `json:"dirty"`
}

// machineInfo describes this machine. The commit and dirty flag come from
// run.sh (AEDB_BENCH_COMMIT, AEDB_BENCH_DIRTY), which asks git when the
// checkout is a repository.
func machineInfo() machine {
	m := machine{GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Commit: "unknown", CPUModel: "unknown",
		Dirty: os.Getenv("AEDB_BENCH_DIRTY") == "1"}
	if c := os.Getenv("AEDB_BENCH_COMMIT"); c != "" {
		m.Commit = c
	}
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return m
}

// resultsFile is the schema of every file under bench/results.
type resultsFile struct {
	Schema    string           `json:"schema"`
	Machine   machine          `json:"machine"`
	Seed      uint64           `json:"seed"`
	Scale     string           `json:"scale"`
	Seconds   float64          `json:"seconds"`
	Trace     bool             `json:"trace"`
	Date      string           `json:"date"`
	Workloads []workloadResult `json:"workloads"`
}

func writeResults(o options, results []workloadResult) error {
	raw, err := json.MarshalIndent(resultsFile{Schema: "aedb-bench/1", Machine: machineInfo(), Seed: o.seed,
		Scale: o.scale, Seconds: o.seconds, Trace: o.trace == 1, Date: time.Now().UTC().Format(time.RFC3339),
		Workloads: results}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(o.out, append(raw, '\n'), 0o644)
}

//go:embed digests.json
var committedDigests []byte

// digestTable holds, per "workload/scale/seed", the result digest of each
// instance of the deterministic workloads, recorded on one architecture
// (floating-point results may legitimately differ on another).
type digestTable struct {
	GOARCH  string              `json:"goarch"`
	Digests map[string][]string `json:"digests"`
}

func loadDigests(path string) (digestTable, error) {
	raw := committedDigests
	if path != "" {
		var err error
		if raw, err = os.ReadFile(path); err != nil {
			return digestTable{}, err
		}
	}
	var t digestTable
	if err := json.Unmarshal(raw, &t); err != nil {
		return digestTable{}, fmt.Errorf("digest table: %v", err)
	}
	return t, nil
}

func (t digestTable) expect(workload, scale string, seed uint64, instance int) string {
	ds := t.Digests[fmt.Sprintf("%s/%s/%d", workload, scale, seed)]
	if t.GOARCH != runtime.GOARCH || instance >= len(ds) {
		return ""
	}
	return ds[instance]
}

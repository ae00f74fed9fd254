package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"

	"aedbmls/internal/archive"
	"aedbmls/internal/eval"
	"aedbmls/internal/moo"
)

// rootSpan is the id of a rep's root span; every other span nests under
// it.
const rootSpan = 1

// sampleSize is how many of the first evaluated candidates the probes
// replay.
const sampleSize = 64

// span is one timed call across a layer boundary. Times are nanoseconds
// since the rep's process started tracing.
type span struct {
	Trace  int    `json:"trace"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps a traced rep's spans in memory, together with the counts
// the wrappers take at the same boundaries. Its methods are safe for
// concurrent use, and the span methods are no-ops on a nil tracer, so
// untraced reps run the same code without recording anything.
type tracer struct {
	origin time.Time
	trace  int

	mu    sync.Mutex
	spans []span
	phase int64 // the span wrapper calls nest under

	// Evaluation wrapper.
	calls, cands int64
	callMS       []float64
	busy         time.Duration
	evalIv       [][2]int64
	sample       [][]float64
	keep         bool // keep every evaluated solution in sols
	sols         []*moo.Solution

	// Archive wrapper.
	adds, accepted int64
	addUS          []float64
}

func newTracer(trace int) *tracer {
	return &tracer{origin: time.Now(), trace: trace}
}

func (t *tracer) since(at time.Time) int64 { return at.Sub(t.origin).Nanoseconds() }

// add records a finished span; callers hold mu.
func (t *tracer) add(name string, parent int64, start, end time.Time) int64 {
	id := int64(len(t.spans)) + 1
	t.spans = append(t.spans, span{Trace: t.trace, ID: id, Parent: parent, Name: name, Start: t.since(start), End: t.since(end)})
	return id
}

// begin opens a span under parent and returns its id.
func (t *tracer) begin(name string, parent int64) int64 {
	if t == nil {
		return 0
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.add(name, parent, now, now)
}

// end closes a span opened by begin.
func (t *tracer) end(id int64) {
	if t == nil {
		return
	}
	now := time.Now()
	t.mu.Lock()
	t.spans[id-1].End = t.since(now)
	t.mu.Unlock()
}

// setPhase makes id the parent of the wrapper spans that follow.
func (t *tracer) setPhase(id int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.phase = id
	t.mu.Unlock()
}

// span records a finished call under the current phase.
func (t *tracer) span(name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.add(name, t.phase, start, end)
	t.mu.Unlock()
}

// problem wraps p so every evaluation call is timed and counted.
func (t *tracer) problem(p *eval.Problem) moo.BatchProblem { return tracedProblem{p, t} }

// archive wraps ar so every insertion is timed and counted.
func (t *tracer) archive(ar archive.Interface) archive.Interface { return tracedArchive{ar, t} }

type tracedProblem struct {
	*eval.Problem
	t *tracer
}

func (p tracedProblem) Evaluate(x []float64) ([]float64, float64, any) {
	start := time.Now()
	f, v, aux := p.Problem.Evaluate(x)
	p.t.evaluated("eval.Evaluate", start, [][]float64{x}, []moo.BatchResult{{F: f, Violation: v, Aux: aux}})
	return f, v, aux
}

func (p tracedProblem) EvaluateBatch(xs [][]float64) []moo.BatchResult {
	start := time.Now()
	rs := p.Problem.EvaluateBatch(xs)
	p.t.evaluated("eval.EvaluateBatch", start, xs, rs)
	return rs
}

func (t *tracer) evaluated(name string, start time.Time, xs [][]float64, rs []moo.BatchResult) {
	end := time.Now()
	d := end.Sub(start)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.add(name, t.phase, start, end)
	t.calls++
	t.cands += int64(len(xs))
	t.callMS = append(t.callMS, float64(d.Nanoseconds())/1e6)
	t.busy += d
	t.evalIv = append(t.evalIv, [2]int64{t.since(start), t.since(end)})
	for i, x := range xs {
		if len(t.sample) < sampleSize {
			t.sample = append(t.sample, append([]float64(nil), x...))
		}
		if t.keep && !rs[i].Stopped && !rs[i].Screened {
			t.sols = append(t.sols, &moo.Solution{X: append([]float64(nil), x...), F: rs[i].F, Violation: rs[i].Violation, Aux: rs[i].Aux})
		}
	}
}

type tracedArchive struct {
	archive.Interface
	t *tracer
}

func (a tracedArchive) Add(s *moo.Solution) bool {
	start := time.Now()
	ok := a.Interface.Add(s)
	a.t.added("archive.Add", start, ok)
	return ok
}

func (t *tracer) added(name string, start time.Time, accepted bool) {
	end := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.add(name, t.phase, start, end)
	t.adds++
	if accepted {
		t.accepted++
	}
	t.addUS = append(t.addUS, float64(end.Sub(start).Nanoseconds())/1e3)
}

// layer records one per-layer metric of this rep.
func (r *rep) layer(name string, value float64, n int64) {
	r.res.Layers[name] = layerValue{Value: value, N: n}
}

// evalLayers records the opt and eval metrics of the evaluation wrapper
// over the opt window, plus the Problem's supervision counters.
func (r *rep) evalLayers(h eval.Health) {
	t := r.tr
	union := coveredNS(t.evalIv, 0, 1<<62)
	r.layer("opt.eval_concurrency", t.busy.Seconds()/r.optWall, t.calls)
	r.layer("opt.self_s", r.optWall-float64(union)/1e9, t.calls)
	r.layer("opt.candidates_per_call", ratio(float64(t.cands), float64(t.calls)), t.calls)
	r.layer("eval.calls", float64(t.calls), t.calls)
	r.layer("eval.candidates", float64(t.cands), t.cands)
	r.layer("eval.busy_s", t.busy.Seconds(), t.calls)
	r.layer("eval.call_ms_p50", percentile(t.callMS, 50), t.calls)
	r.layer("eval.call_ms_p90", percentile(t.callMS, 90), t.calls)
	r.layer("eval.us_per_candidate", r.optCPU*1e6/float64(t.cands), t.cands)
	r.layer("eval.screen_evals", float64(h.ScreenEvals), 1)
	r.layer("eval.screened", float64(h.Screened), 1)
	r.layer("eval.promoted", float64(h.Promoted), 1)
	r.layer("eval.full_evals", float64(h.FullEvals), 1)
	r.layer("eval.promote_ratio", ratio(float64(h.Promoted), float64(h.ScreenEvals)), h.ScreenEvals)
	r.layer("eval.failures", float64(h.Failures), 1)
	r.layer("eval.retries", float64(h.Retries), 1)

	evals := max(r.res.Evals, 1)
	r.layer("go.allocs_per_eval", float64(r.mem1.Mallocs-r.mem0.Mallocs)/float64(evals), evals)
	r.layer("go.bytes_per_eval", float64(r.mem1.TotalAlloc-r.mem0.TotalAlloc)/float64(evals), evals)
	r.layer("go.gc_cycles", float64(r.mem1.NumGC-r.mem0.NumGC), 1)
}

// archiveLayers records the archive wrapper's in-run insertions.
func (r *rep) archiveLayers() {
	t := r.tr
	r.layer("archive.adds", float64(t.adds), t.adds)
	r.layer("archive.accept_ratio", ratio(float64(t.accepted), float64(t.adds)), t.adds)
	r.layer("archive.add_us_p50", percentile(t.addUS, 50), t.adds)
	r.layer("archive.add_us_p90", percentile(t.addUS, 90), t.adds)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// selfTimes sums, per span name, each span's duration minus the part of
// it its children cover.
func (t *tracer) selfTimes() map[string]float64 {
	children := map[int64][][2]int64{}
	for _, s := range t.spans {
		children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
	}
	out := map[string]float64{}
	for _, s := range t.spans {
		self := s.End - s.Start - coveredNS(children[s.ID], s.Start, s.End)
		out[s.Name] += float64(self) / 1e9
	}
	return out
}

// coveredNS is the length of the union of the intervals, clipped to
// [lo, hi].
func coveredNS(iv [][2]int64, lo, hi int64) int64 {
	iv = append([][2]int64(nil), iv...)
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	cur := lo
	for _, v := range iv {
		a, b := max(v[0], cur), min(v[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// write saves the spans as JSON.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	raw, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

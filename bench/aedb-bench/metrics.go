package main

// endToEnd lists the metrics an untraced run reports for every workload,
// in BENCHMARK.json order. Each is the median over the run's reps of one
// value per rep; every rep is a fresh process on its own generated
// instance, so the median also averages over instances. Times and rates
// are in reference seconds, and wall time is net of stolen time (see
// speed.go); setup_s also takes the set-up-only children of the run.
var endToEnd = []struct {
	name, unit string
	higher     bool // higher is better
	value      func(*repResult) float64
}{
	{"wall_s", "s", false, func(r *repResult) float64 { return r.runS() / r.Speed }},
	{"cpu_s", "s", false, func(r *repResult) float64 { return r.CPUS / r.Speed }},
	{"evals_per_s", "1/s", true, func(r *repResult) float64 { return float64(r.Evals) * r.Speed / r.runS() }},
	{"setup_s", "s", false, func(r *repResult) float64 { return r.SetupS / r.Speed }},
	{"hv", "1", true, func(r *repResult) float64 { return r.HV }},
	{"peak_rss_mb", "MB", false, func(r *repResult) float64 { return r.PeakRSSMB }},
}

// runS is the timed phase's wall time during which the machine ran.
func (r *repResult) runS() float64 { return r.WallS - r.StolenS }

// perLayer lists the metrics a traced run reports for every workload, in
// BENCHMARK.json order. Counts and ratios of a layer a workload does not
// exercise read 0; every time is measured on every workload. The
// workload-specific HTTP timings (http.create_ms, http.status_ms_*,
// http.front_ms) exist only for the study and are kept in the results
// file, not here.
var perLayer = []struct{ name, unit string }{
	{"opt.eval_concurrency", "ratio"},
	{"opt.self_s", "s"},
	{"opt.candidates_per_call", "count"},
	{"archive.adds", "count"},
	{"archive.accept_ratio", "ratio"},
	{"archive.add_us_p50", "us"},
	{"archive.add_us_p90", "us"},
	{"archive.merge_pending_max", "count"},
	{"eval.calls", "count"},
	{"eval.candidates", "count"},
	{"eval.busy_s", "s"},
	{"eval.call_ms_p50", "ms"},
	{"eval.call_ms_p90", "ms"},
	{"eval.us_per_candidate", "us"},
	{"eval.screen_evals", "count"},
	{"eval.screened", "count"},
	{"eval.promoted", "count"},
	{"eval.full_evals", "count"},
	{"eval.promote_ratio", "ratio"},
	{"eval.failures", "count"},
	{"eval.retries", "count"},
	{"eval.cold_problem_ms", "ms"},
	{"eval.warm_problem_ms", "ms"},
	{"manet.warmup_ms", "ms"},
	{"manet.tape_ms", "ms"},
	{"manet.mask_ms", "ms"},
	{"manet.instantiate_us", "us"},
	{"manet.run_us", "us"},
	{"sim.events_per_run", "count"},
	{"sim.ns_per_event", "ns"},
	{"study.save_ms", "ms"},
	{"study.load_ms", "ms"},
	{"study.ckpt_bytes", "bytes"},
	{"http.requests", "count"},
	{"http.errors", "count"},
	{"tuneserver.in_flight_mean", "ratio"},
	{"go.allocs_per_eval", "count"},
	{"go.bytes_per_eval", "bytes"},
	{"go.gc_cycles", "count"},
	{"trace.overhead_pct", "%"},
}

// extraUnits names the units of the values that go to the results file
// only: the speed probe's factor, and the workload-specific values as
// measured (not in reference seconds).
var extraUnits = map[string]string{
	"speed":              "ratio",
	"trials_per_s":       "1/s",
	"problems_per_s":     "1/s",
	"cold_problem_ms":    "ms",
	"warm_problem_ms":    "ms",
	"http.create_ms":     "ms",
	"http.status_ms_p50": "ms",
	"http.status_ms_p75": "ms",
	"http.front_ms":      "ms",
}

// unitOf returns the unit of any metric the benchmark reports.
func unitOf(name string) string {
	for _, m := range endToEnd {
		if m.name == name {
			return m.unit
		}
	}
	for _, m := range perLayer {
		if m.name == name {
			return m.unit
		}
	}
	return extraUnits[name]
}

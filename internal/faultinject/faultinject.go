// Package faultinject provides deterministic, seed-driven fault injection
// hooks for the robustness test wall. Production code plants named sites
// at evaluation and checkpoint boundaries (one atomic load when disarmed);
// tests — in-process or subprocess — arm rules that panic, return errors,
// delay, or SIGKILL the process at exact hit counts, so crash-safety
// properties ("a study killed mid-run resumes bit-identically") become
// reproducible assertions instead of flaky race hunts.
//
// Rules are configured programmatically (Configure) or through the
// AEDB_FAULTS environment variable (ConfigureFromEnv), which is how
// subprocess kill/resume tests arm their children. A rule spec is a
// whitespace-separated list of rules; each rule is a comma-separated list
// of key=value fields:
//
//	site=eval.scenario,kind=panic,after=100,times=1
//	site=study.save,kind=kill,after=3
//	site=eval.build,kind=error,every=2
//	site=eval.scenario,kind=delay,delay=50ms,prob=0.1,seed=7
//
// Fields: site (required), kind (panic|error|delay|kill, required), after
// (fire on the Nth hit and later), every (fire when hit%every==0), times
// (max fires, 0 = unlimited), delay (duration, kind=delay), prob + seed
// (fire with probability prob from a deterministic stream). A rule with
// neither after, every nor prob fires on every hit.
package faultinject

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"aedbmls/internal/rng"
)

// Site names one injection point. Sites are compile-time constants so the
// test wall and the production hooks cannot drift apart.
type Site string

// The planted sites.
const (
	// SiteEvalScenario is hit once per (candidate, scenario) cell of
	// internal/eval, inside the panic-recovering cell runner. A cell runs
	// once, so each rule hit fails exactly one cell and degrades exactly
	// one candidate.
	SiteEvalScenario Site = "eval.scenario"
	// SiteEvalBuild is hit when a scenario network is constructed from
	// scratch (the no-snapshot fallback path of internal/eval).
	SiteEvalBuild Site = "eval.build"
	// SiteStudySave is hit by study.Save after the temporary checkpoint
	// file is written but before it is renamed into place — the window an
	// atomic checkpoint must survive a crash in.
	SiteStudySave Site = "study.save"
	// SiteManifestSave is the same window inside study.SaveManifest. It is
	// a separate site so kill rules aimed at checkpoint saves don't also
	// trip on the (much rarer) manifest writes, and vice versa.
	SiteManifestSave Site = "study.manifest"
)

// EnvVar is the environment variable ConfigureFromEnv reads.
const EnvVar = "AEDB_FAULTS"

// Kind is the effect a rule applies when it fires.
type Kind string

// The injectable effects.
const (
	KindPanic Kind = "panic" // panic(Fault{...})
	KindError Kind = "error" // Do returns Fault{...}
	KindDelay Kind = "delay" // sleep rule.delay, then continue
	KindKill  Kind = "kill"  // SIGKILL the current process
)

// Fault is the value injected panics carry and injected errors return, so
// callers and tests can tell an injection from an organic failure.
type Fault struct {
	Site Site
	Kind Kind
	Hit  int64 // the site hit count that triggered the rule
}

// Error implements error.
func (f Fault) Error() string {
	return fmt.Sprintf("faultinject: %s at %s (hit %d)", f.Kind, f.Site, f.Hit)
}

// rule is one armed injection.
type rule struct {
	site  Site
	kind  Kind
	after int64
	every int64
	times int64
	prob  float64
	r     *rng.Rand
	delay time.Duration
	fired int64
}

// armed guards the fast path: Do is a single atomic load per hit while no
// rules are configured.
var armed atomic.Bool

var (
	mu    sync.Mutex
	rules []*rule
	hits  = map[Site]*int64{}
)

// Active reports whether any rule is armed.
func Active() bool { return armed.Load() }

// Reset disarms every rule and zeroes all hit counters.
func Reset() {
	mu.Lock()
	defer mu.Unlock()
	rules = nil
	hits = map[Site]*int64{}
	armed.Store(false)
}

// Configure replaces the armed rule set with the parsed spec (see the
// package comment for the format). An empty spec disarms everything.
func Configure(spec string) error {
	parsed, err := parseSpec(spec)
	if err != nil {
		return err
	}
	mu.Lock()
	defer mu.Unlock()
	rules = parsed
	armed.Store(len(rules) > 0)
	return nil
}

// ConfigureFromEnv arms the spec in AEDB_FAULTS, reporting whether one was
// present. Subprocess tests use it to arm their children.
func ConfigureFromEnv() (bool, error) {
	spec, ok := os.LookupEnv(EnvVar)
	if !ok || strings.TrimSpace(spec) == "" {
		return false, nil
	}
	return true, Configure(spec)
}

// Hits returns how many times a site has been reached since the last
// Reset/Configure (counting starts when a rule set is armed).
func Hits(site Site) int64 {
	mu.Lock()
	defer mu.Unlock()
	if c := hits[site]; c != nil {
		return *c
	}
	return 0
}

// Do marks one hit of a site and applies any armed matching rules: it
// sleeps for delay rules, returns a Fault for error rules, panics with a
// Fault for panic rules, and SIGKILLs the process for kill rules. With no
// rules armed it is a single atomic load.
func Do(site Site) error {
	if !armed.Load() {
		return nil
	}
	return do(site)
}

func do(site Site) error {
	mu.Lock()
	c := hits[site]
	if c == nil {
		c = new(int64)
		hits[site] = c
	}
	*c++
	hit := *c
	var fire []*rule
	for _, r := range rules {
		if r.site != site {
			continue
		}
		if r.times > 0 && r.fired >= r.times {
			continue
		}
		if !r.due(hit) {
			continue
		}
		r.fired++
		fire = append(fire, r)
	}
	mu.Unlock()

	for _, r := range fire {
		switch r.kind {
		case KindDelay:
			time.Sleep(r.delay)
		case KindError:
			return Fault{Site: site, Kind: KindError, Hit: hit}
		case KindPanic:
			panic(Fault{Site: site, Kind: KindPanic, Hit: hit})
		case KindKill:
			kill()
		}
	}
	return nil
}

// due decides whether the rule fires on this hit. Callers hold mu (the
// probabilistic stream is not concurrency-safe on its own).
func (r *rule) due(hit int64) bool {
	if r.after > 0 && hit < r.after {
		return false
	}
	if r.every > 0 && hit%r.every != 0 {
		return false
	}
	if r.prob > 0 {
		return r.r.Bool(r.prob)
	}
	return true
}

// kill sends the process an uncatchable SIGKILL — the honest crash the
// kill/resume equivalence tests need (no deferred handlers, no
// checkpoint-on-exit).
func kill() {
	p, err := os.FindProcess(os.Getpid())
	if err != nil {
		os.Exit(137)
	}
	_ = p.Kill()
	// Kill is asynchronous on some platforms; don't let execution continue
	// past the crash point.
	select {}
}

// parseSpec parses a whitespace-separated rule list.
func parseSpec(spec string) ([]*rule, error) {
	var out []*rule
	for _, rs := range strings.Fields(spec) {
		r := &rule{times: 0}
		var seed uint64 = 1
		for _, field := range strings.Split(rs, ",") {
			k, v, ok := strings.Cut(field, "=")
			if !ok {
				return nil, fmt.Errorf("faultinject: malformed field %q in rule %q", field, rs)
			}
			var err error
			switch k {
			case "site":
				r.site = Site(v)
			case "kind":
				switch Kind(v) {
				case KindPanic, KindError, KindDelay, KindKill:
					r.kind = Kind(v)
				default:
					err = fmt.Errorf("unknown kind %q", v)
				}
			case "after":
				r.after, err = strconv.ParseInt(v, 10, 64)
			case "every":
				r.every, err = strconv.ParseInt(v, 10, 64)
			case "times":
				r.times, err = strconv.ParseInt(v, 10, 64)
			case "prob":
				r.prob, err = strconv.ParseFloat(v, 64)
			case "seed":
				seed, err = strconv.ParseUint(v, 10, 64)
			case "delay":
				r.delay, err = time.ParseDuration(v)
			default:
				err = fmt.Errorf("unknown key %q", k)
			}
			if err != nil {
				return nil, fmt.Errorf("faultinject: rule %q: %v", rs, err)
			}
		}
		if r.site == "" {
			return nil, fmt.Errorf("faultinject: rule %q missing site", rs)
		}
		if r.kind == "" {
			return nil, fmt.Errorf("faultinject: rule %q missing kind", rs)
		}
		if r.prob < 0 || r.prob > 1 {
			return nil, fmt.Errorf("faultinject: rule %q: prob out of [0,1]", rs)
		}
		if r.prob > 0 {
			r.r = rng.New(seed)
		}
		out = append(out, r)
	}
	return out, nil
}

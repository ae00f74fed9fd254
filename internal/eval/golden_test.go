package eval

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"aedbmls/internal/aedb"
)

// updateGolden regenerates the golden-metrics corpus:
//
//	go test ./internal/eval -run TestGoldenMetrics -update
//
// Regeneration is a deliberate act: any bit drift in the evaluation
// engine fails the table test below until the corpus is re-recorded and
// the change justified in review.
var updateGolden = flag.Bool("update", false, "rewrite testdata/golden_metrics.json from the current engine")

const goldenPath = "testdata/golden_metrics.json"

// goldenCase enumerates the corpus axes: every paper density, several
// committee seeds, two parameter vectors (a mid-domain incumbent and a
// low-delay/wide-area one).
type goldenCase struct {
	Density int       `json:"density"`
	Seed    uint64    `json:"seed"`
	Params  []float64 `json:"params"`
}

// goldenMetrics carries one Metrics value twice: hex float64 strings are
// the authoritative bit-exact record, the plain floats are the
// human-readable rendering (Go's JSON float64 round-trip is also exact,
// but hex makes bit-identity auditable at a glance).
type goldenMetrics struct {
	Hex      map[string]string  `json:"hex"`
	Readable map[string]float64 `json:"readable"`
}

// goldenEntry records one corpus case under BOTH physics arms: Metrics is
// the reference (ExactPhysics) arm and MetricsKernel is the fused
// d2-space kernel arm the default engine runs since the fast physics
// kernel landed. The arms agree bit-for-bit on every discrete field
// (coverage, forwardings, collisions, broadcast time); only the
// continuous energy sums differ, in the last units of the mantissa (see
// TestKernelPhysicsMatchesExactOnGoldenCorpus).
//
// Regeneration history. The corpus was re-recorded ONCE since the fast
// kernel landed, when the protocol delay draw moved from the historical
// Rng.Range(lo, hi+1e-15) inclusive-upper-bound hack to the correct
// Rng.RangeClosed(lo, hi) (see that function's doc: the old epsilon is a
// silent no-op for bounds >= ~1 s and widens sub-microsecond intervals
// past hi). The fix perturbs each forwarding delay by a few ULPs — the
// old draw was lo + (hi+1e-15-lo)*u on the half-open [0,1) lattice, the
// new one spans the closed [lo, hi] lattice — so broadcast_time shifted
// in the last 1-2 mantissa digits on both arms while every other field
// (coverage, forwardings, collisions, both energy sums) reproduced the
// previous corpus bit-for-bit. That confirmed the change affected
// nothing beyond the delay draw itself, and the corpus was re-recorded
// to the corrected bits.
type goldenEntry struct {
	goldenCase
	Committee     int           `json:"committee"`
	Metrics       goldenMetrics `json:"metrics"`
	MetricsKernel goldenMetrics `json:"metrics_kernel"`
}

// want selects the recorded arm for a physics mode.
func (e goldenEntry) want(exactPhysics bool) goldenMetrics {
	if exactPhysics {
		return e.Metrics
	}
	return e.MetricsKernel
}

type goldenFile struct {
	Comment string        `json:"comment"`
	Entries []goldenEntry `json:"entries"`
}

// goldenCommittee keeps corpus generation and verification fast while
// still exercising multi-scenario reduction.
const goldenCommittee = 3

func goldenCases() []goldenCase {
	mid := []float64{0.1, 0.5, -80, 1, 10}
	wide := []float64{0.02, 0.25, -73, 2.2, 35}
	var cases []goldenCase
	for _, density := range []int{100, 200, 300} {
		for seed := uint64(1); seed <= 4; seed++ {
			params := mid
			if seed%2 == 0 {
				params = wide
			}
			cases = append(cases, goldenCase{Density: density, Seed: seed, Params: params})
		}
	}
	return cases
}

func metricsFields(m Metrics) map[string]float64 {
	return map[string]float64{
		"energy_dbm_sum": m.EnergyDBmSum,
		"coverage":       m.Coverage,
		"forwardings":    m.Forwardings,
		"broadcast_time": m.BroadcastTime,
		"energy_mj":      m.EnergyMJ,
		"collisions":     m.Collisions,
	}
}

func encodeGolden(m Metrics) goldenMetrics {
	fields := metricsFields(m)
	g := goldenMetrics{Hex: map[string]string{}, Readable: map[string]float64{}}
	for name, v := range fields {
		g.Hex[name] = strconv.FormatFloat(v, 'x', -1, 64)
		g.Readable[name] = v
	}
	return g
}

func simulateCase(c goldenCase, opts ...Option) Metrics {
	p := NewProblem(c.Density, c.Seed, append([]Option{WithCommittee(goldenCommittee)}, opts...)...)
	return p.Simulate(aedb.FromVector(c.Params))
}

// exactArm selects the reference per-call physics arm.
var exactArm = WithSettings(Settings{ExactPhysics: true})

// TestGoldenMetrics is the anti-drift wall of the evaluation engine:
// every committed corpus entry must be reproduced bit-for-bit by BOTH
// engines — the default fast path (beacon-tape replay, quiescence early
// stop, arena reuse, shared masked warm-ups) and the reference path —
// under BOTH physics arms (the fused d2-space kernel, and the reference
// per-call physics of Settings.ExactPhysics), across all paper densities and
// several committee seeds. A failure means a numeric path silently
// drifted; regenerate with -update only for a change whose numeric
// effect is understood and intended.
func TestGoldenMetrics(t *testing.T) {
	if *updateGolden {
		writeGolden(t)
	}
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("golden corpus missing (generate with -update): %v", err)
	}
	var file goldenFile
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatalf("corrupt golden corpus: %v", err)
	}
	if len(file.Entries) < 12 {
		t.Fatalf("golden corpus has %d entries, want >= 12", len(file.Entries))
	}
	for _, e := range file.Entries {
		name := fmt.Sprintf("d%d/seed%d", e.Density, e.Seed)
		if e.Committee != goldenCommittee {
			t.Fatalf("%s: corpus committee %d does not match test committee %d", name, e.Committee, goldenCommittee)
		}
		for pathName, m := range map[string]Metrics{
			"default":         simulateCase(e.goldenCase),
			"reference":       simulateCase(e.goldenCase, WithReferencePath(true)),
			"unshared":        simulateCase(e.goldenCase, without(layerShared|layerArenas)),
			"exact":           simulateCase(e.goldenCase, exactArm),
			"exact-reference": simulateCase(e.goldenCase, exactArm, WithReferencePath(true)),
		} {
			exact := pathName == "exact" || pathName == "exact-reference"
			assertGoldenMetrics(t, fmt.Sprintf("%s [%s path]", name, pathName), e.want(exact), m)
		}
	}
}

func writeGolden(t *testing.T) {
	t.Helper()
	file := goldenFile{
		Comment: "Bit-exact committee metrics of the evaluation engine (committee " +
			strconv.Itoa(goldenCommittee) + "), recorded under both physics arms: 'metrics' is the reference " +
			"(ExactPhysics) arm, 'metrics_kernel' the fused d2-space kernel arm the default engine runs. " +
			"Regenerate deliberately with: go test ./internal/eval -run TestGoldenMetrics -update",
	}
	for _, c := range goldenCases() {
		kern := simulateCase(c)
		kernRef := simulateCase(c, WithReferencePath(true))
		if kern != kernRef {
			t.Fatalf("refusing to record corpus: default and reference engines disagree on d%d seed %d (kernel arm):\n%+v\n%+v",
				c.Density, c.Seed, kern, kernRef)
		}
		exact := simulateCase(c, exactArm)
		exactRef := simulateCase(c, exactArm, WithReferencePath(true))
		if exact != exactRef {
			t.Fatalf("refusing to record corpus: default and reference engines disagree on d%d seed %d (exact arm):\n%+v\n%+v",
				c.Density, c.Seed, exact, exactRef)
		}
		// Cross-arm sanity: the physics arms must agree exactly on every
		// discrete field; only the energy sums may round differently.
		if kern.Coverage != exact.Coverage || kern.Forwardings != exact.Forwardings ||
			kern.Collisions != exact.Collisions || kern.BroadcastTime != exact.BroadcastTime {
			t.Fatalf("refusing to record corpus: physics arms disagree on a discrete metric at d%d seed %d:\nkernel %+v\nexact  %+v",
				c.Density, c.Seed, kern, exact)
		}
		file.Entries = append(file.Entries, goldenEntry{
			goldenCase: c, Committee: goldenCommittee,
			Metrics: encodeGolden(exact), MetricsKernel: encodeGolden(kern),
		})
	}
	out, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(goldenPath, append(out, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s (%d entries)", goldenPath, len(file.Entries))
}

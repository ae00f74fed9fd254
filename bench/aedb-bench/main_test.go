package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for aedb-bench, which
// re-executes itself for every rep, and here "itself" is this binary.
func TestMain(m *testing.M) {
	if spec := os.Getenv(childEnv); spec != "" {
		os.Exit(childMain(spec))
	}
	os.Exit(m.Run())
}

// benchmarkFile is the part of BENCHMARK.json the smoke test checks.
type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

type resultLine struct {
	Correct   bool
	Attempted int64
	Failed    int64
	Metrics   map[string]struct {
		Value float64
		Unit  string
	}
}

// bench runs aedb-bench in process at tiny scale and returns its exit code
// and parsed result line.
func bench(t *testing.T, workdir string, args ...string) (int, resultLine) {
	t.Helper()
	var out, errOut bytes.Buffer
	code := run(append(args, "--scale", "tiny", "--workdir", workdir), &out, &errOut)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%v: no result line (%v)\nstdout:\n%s\nstderr:\n%s", args, err, out.String(), errOut.String())
	}
	return code, res
}

func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload in child processes")
	}
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bm benchmarkFile
	if err := json.Unmarshal(raw, &bm); err != nil {
		t.Fatal(err)
	}
	if len(bm.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, aedb-bench runs %d", len(bm.Workloads), len(workloads))
	}
	for _, w := range bm.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			dir := t.TempDir()
			out := filepath.Join(dir, "results.json")
			code, res := bench(t, dir, "--workload", w.Name, "--reps", "2", "--trace", "0", "--out", out)
			if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("untraced run: exit %d, correct %t, failed %d of %d", code, res.Correct, res.Failed, res.Attempted)
			}
			wantMetrics(t, res, bm.EndToEnd, true)
			if w.Name == "sweep-cold" {
				checkColdWarm(t, out)
			}

			code, res = bench(t, dir, "--workload", w.Name, "--reps", "1", "--trace", "1")
			if code != 0 || !res.Correct {
				t.Fatalf("traced run: exit %d, correct %t, failed %d", code, res.Correct, res.Failed)
			}
			wantMetrics(t, res, bm.PerLayer, false)
			spans, err := filepath.Glob(filepath.Join(dir, "spans", w.Name+"-*.json"))
			if err != nil || len(spans) != 1 {
				t.Fatalf("span files %v (%v)", spans, err)
			}
			checkSpans(t, spans[0])
		})
	}
}

// wantMetrics checks that the result line carries exactly the listed
// metrics with their units, all finite and, for end-to-end ones, never 0.
func wantMetrics(t *testing.T, res resultLine, want []struct{ Name, Unit string }, nonZero bool) {
	t.Helper()
	if len(res.Metrics) != len(want) {
		t.Errorf("%d metrics emitted, BENCHMARK.json lists %d", len(res.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := res.Metrics[m.Name]
		switch {
		case !ok:
			t.Errorf("metric %s missing", m.Name)
		case got.Unit != m.Unit:
			t.Errorf("metric %s: unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
		case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
			t.Errorf("metric %s = %v", m.Name, got.Value)
		case nonZero && got.Value <= 0:
			t.Errorf("metric %s = %v, want > 0", m.Name, got.Value)
		}
	}
}

// checkColdWarm shows the reps ran in fresh processes: in every rep the
// cold pass, which builds every warm-up and tape, costs at least twice the
// warm pass per Problem. A rep that inherited a warm cache would not.
func checkColdWarm(t *testing.T, path string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rf resultsFile
	if err := json.Unmarshal(raw, &rf); err != nil {
		t.Fatal(err)
	}
	reps := rf.Workloads[0].Raw
	if len(reps) != 2 {
		t.Fatalf("%d reps in the results file, want 2", len(reps))
	}
	for _, r := range reps {
		if cold, warm := r.Extra["cold_problem_ms"], r.Extra["warm_problem_ms"]; cold < 2*warm {
			t.Errorf("instance %d: cold %.3f ms per Problem vs warm %.3f ms", r.Instance, cold, warm)
		}
	}
}

// checkSpans checks that every span nests under the root, inside its
// parent's interval, and has a non-negative self time.
func checkSpans(t *testing.T, path string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	tr := &tracer{}
	if err := json.Unmarshal(raw, &tr.spans); err != nil {
		t.Fatal(err)
	}
	byID := map[int64]span{}
	for _, s := range tr.spans {
		byID[s.ID] = s
	}
	root := byID[rootSpan]
	if root.Name != "bench.rep" || root.Parent != 0 {
		t.Fatalf("root span %+v", root)
	}
	for _, s := range tr.spans[1:] {
		p, ok := byID[s.Parent]
		if !ok || s.Start < p.Start || s.End > p.End || s.End < s.Start {
			t.Fatalf("span %+v does not nest in its parent %+v", s, p)
		}
		for hops := 0; p.ID != rootSpan; hops++ {
			if hops > len(tr.spans) {
				t.Fatalf("span %+v: parent chain does not reach the root", s)
			}
			p = byID[p.Parent]
		}
	}
	for name, self := range tr.selfTimes() {
		if self < 0 {
			t.Errorf("span %s: self time %v s", name, self)
		}
	}
}

func TestWrongDigestFailsTheRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a workload in child processes")
	}
	dir := t.TempDir()
	table := filepath.Join(dir, "digests.json")
	wrong := fmt.Sprintf(`{"goarch": %q, "digests": {"ladder-d300/tiny/1": [%q]}}`, runtime.GOARCH, strings.Repeat("0", 64))
	if err := os.WriteFile(table, []byte(wrong), 0o644); err != nil {
		t.Fatal(err)
	}
	code, res := bench(t, dir, "--workload", "ladder-d300", "--reps", "1", "--digests", table)
	if code == 0 || res.Correct || res.Failed == 0 {
		t.Fatalf("wrong digest: exit %d, correct %t, failed %d; want a failed run", code, res.Correct, res.Failed)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	got := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if got != [3]float64{2.75, 5.5, 8.25} {
		t.Errorf("quartiles = %v", got)
	}
}

func TestHypervolumeOfKnownSets(t *testing.T) {
	for _, c := range []struct {
		pts  [][3]float64
		want float64
	}{
		{nil, 0},
		{[][3]float64{{0, 0, 0}}, 1.331},
		// Two slabs of depth 1.0 whose 2-D union is 1.1 + 1.1 - 1.0.
		{[][3]float64{{0, 0.1, 0.1}, {0.1, 0, 0.1}}, 1.2},
	} {
		if got := hv3(c.pts, 1.1); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("hv3(%v) = %v, want %v", c.pts, got, c.want)
		}
	}
}

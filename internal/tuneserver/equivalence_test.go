package tuneserver

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"aedbmls/internal/moo"
)

// hexFront renders a front as hex floats, the repo's bit-exact
// comparison format: two fronts are equal iff these strings are equal.
func hexFront(front []*moo.Solution) string {
	var b strings.Builder
	for _, s := range front {
		for _, x := range s.X {
			fmt.Fprintf(&b, "%016x ", math.Float64bits(x))
		}
		b.WriteString("| ")
		for _, f := range s.F {
			fmt.Fprintf(&b, "%016x ", math.Float64bits(f))
		}
		b.WriteString("\n")
	}
	return b.String()
}

// runStudy runs one study on a fresh in-memory server with the given
// worker count and returns its sorted final front and status.
func runStudy(t *testing.T, spec string, workers int) ([]*moo.Solution, StudyStatus) {
	t.Helper()
	s, err := New(Options{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	st, err := s.Create(strings.NewReader(spec))
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	<-st.Done()
	status := st.Status()
	if status.Status != StatusDone {
		t.Fatalf("study ended %s (error %q), want done", status.Status, status.Error)
	}
	return st.Front(), status
}

// TestWorkerCountEquivalence is the tentpole's determinism proof: the
// same study sharded across 1, 2 and 8 workers produces bit-identical
// final fronts and evaluation counts, for both algorithms at two
// densities. CI runs this under -race, so it is simultaneously the
// concurrency wall for the trial workers and the merger.
func TestWorkerCountEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-trial studies; skipped in -short")
	}
	specs := []string{
		`{"name":"mls-d%d","algorithm":"mls","density":%d,"seed":7,"trials":4,"committee":2,
		  "populations":2,"pop_workers":2,"evals_per_worker":8,"reset_period":4}`,
		`{"name":"nsga-d%d","algorithm":"nsga2","density":%d,"seed":7,"trials":4,"committee":2,
		  "pop_size":8,"evaluations":32}`,
	}
	for _, tmpl := range specs {
		for _, density := range []int{100, 200} {
			spec := fmt.Sprintf(tmpl, density, density)
			var golden string
			var goldenEvals int64
			for _, workers := range []int{1, 2, 8} {
				front, status := runStudy(t, spec, workers)
				got := hexFront(front)
				if workers == 1 {
					golden, goldenEvals = got, status.Evaluations
					if len(front) == 0 {
						t.Fatalf("%s: empty golden front", spec)
					}
					continue
				}
				if got != golden {
					t.Errorf("density %d workers %d: front differs from 1-worker run\n1 worker:\n%s\n%d workers:\n%s",
						density, workers, golden, workers, got)
				}
				if status.Evaluations != goldenEvals {
					t.Errorf("density %d workers %d: %d evaluations, 1-worker run did %d",
						density, workers, status.Evaluations, goldenEvals)
				}
			}
		}
	}
}

package experiments

import (
	"errors"
	"math"
	"strings"
	"testing"

	"aedbmls/internal/aedb"
	"aedbmls/internal/study"
)

func TestExtendedBaselinesTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("extended baselines in -short mode")
	}
	sc := TinyScale()
	sc.Runs = 2
	res, err := ExtendedBaselines(sc, 100, nil)
	if err != nil {
		t.Fatal(err)
	}
	algs := []string{AlgCellDE, AlgNSGAII, AlgMLS, AlgSPEA2}
	for _, alg := range algs {
		hv := res.MedianHV[alg]
		if math.IsNaN(hv) || hv < 0 {
			t.Fatalf("%s: median HV = %v", alg, hv)
		}
		if res.FrontSizes[alg] <= 0 {
			t.Fatalf("%s: empty fronts", alg)
		}
	}
	out := res.Render()
	if !strings.Contains(out, "SPEA2") || !strings.Contains(out, "AEDB-MLS") {
		t.Fatal("rendering incomplete")
	}
}

func TestBeaconFidelity(t *testing.T) {
	sc := TinyScale()
	sc.Committee = 3
	params := aedb.Params{MinDelay: 0.1, MaxDelay: 0.4, BorderThresholdDBm: -82, MarginDBm: 1, NeighborsThreshold: 12}
	res, err := BeaconFidelity(sc, 100, params)
	if err != nil {
		t.Fatal(err)
	}
	// Both media must produce live broadcasts...
	if res.Fast.Coverage <= 0 || res.Accurate.Coverage <= 0 {
		t.Fatalf("degenerate coverage: fast=%v accurate=%v", res.Fast.Coverage, res.Accurate.Coverage)
	}
	// ...and the fast approximation must stay in the same regime: the
	// substitution argument (A4 in cmd/README.md) requires agreement within tens
	// of percent, not orders of magnitude.
	if math.Abs(res.CoverageDeltaPct) > 50 {
		t.Fatalf("beacon models diverge on coverage by %.1f%%", res.CoverageDeltaPct)
	}
	if !strings.Contains(res.Render(), "frame-level") {
		t.Fatal("rendering incomplete")
	}
}

func TestBeaconFidelityUnknownDensity(t *testing.T) {
	sc := TinyScale()
	if _, err := BeaconFidelity(sc, 123, aedb.Params{}); err == nil {
		t.Fatal("unknown density accepted")
	}
}

func TestMobilityAblation(t *testing.T) {
	sc := TinyScale()
	sc.Committee = 3
	params := aedb.Params{MinDelay: 0.1, MaxDelay: 0.4, BorderThresholdDBm: -82, MarginDBm: 1, NeighborsThreshold: 12}
	res, err := MobilityAblation(sc, 100, params)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d, want 4 mobility models", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.Metrics.Coverage <= 0 {
			t.Fatalf("%s: zero coverage", row.Model)
		}
		if row.Metrics.BroadcastTime < 0 {
			t.Fatalf("%s: negative broadcast time", row.Model)
		}
	}
	// All models stay in the same metric regime (within 3x of each other).
	base := res.Rows[0].Metrics.Coverage
	for _, row := range res.Rows[1:] {
		ratio := row.Metrics.Coverage / base
		if ratio < 1.0/3 || ratio > 3 {
			t.Fatalf("%s coverage regime differs wildly: %v vs %v", row.Model, row.Metrics.Coverage, base)
		}
	}
	if !strings.Contains(res.Render(), "gauss-markov") {
		t.Fatal("rendering incomplete")
	}
}

func TestMobilityAblationUnknownDensity(t *testing.T) {
	if _, err := MobilityAblation(TinyScale(), 777, aedb.Params{}); err == nil {
		t.Fatal("unknown density accepted")
	}
}

// TestExtendedBaselinesHonoursStop: a closed Scale.Stop interrupts the
// driver at its first optimizer boundary with an error wrapping
// study.ErrStop.
func TestExtendedBaselinesHonoursStop(t *testing.T) {
	sc := TinyScale()
	stop := make(chan struct{})
	close(stop)
	sc.Stop = stop
	if _, err := ExtendedBaselines(sc, 100, nil); !errors.Is(err, study.ErrStop) {
		t.Fatalf("ExtendedBaselines with a closed Stop returned %v, want an error wrapping study.ErrStop", err)
	}
}

package experiments

import (
	"errors"
	"math"
	"slices"
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
	rs, err := RunAll(sc, 100, nil)
	if err != nil {
		t.Fatal(err)
	}
	fronts := len(rs.Fronts)
	res, err := ExtendedBaselines(sc, rs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Fronts) != fronts {
		t.Fatal("ExtendedBaselines modified the shared RunSet")
	}
	var algs []string
	for _, row := range res.Rows {
		algs = append(algs, row.Name)
		if math.IsNaN(row.MedianHV) || row.MedianHV < 0 {
			t.Fatalf("%s: median HV = %v", row.Name, row.MedianHV)
		}
		if row.FrontSize <= 0 {
			t.Fatalf("%s: empty fronts", row.Name)
		}
	}
	if want := []string{AlgCellDE, AlgNSGAII, AlgSPEA2, AlgMLS}; !slices.Equal(algs, want) {
		t.Fatalf("rows %v, want %v", algs, want)
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

// TestRegistryHonoursStop: a closed Scale.Stop interrupts every
// optimizer-driven registry entry at its first optimizer boundary with an
// error wrapping study.ErrStop, and Suite.Run refuses to start any entry.
func TestRegistryHonoursStop(t *testing.T) {
	stop := make(chan struct{})
	close(stop)
	entry := func(key string) Experiment {
		for _, e := range Registry {
			if slices.Contains(e.Keys, key) {
				return e
			}
		}
		t.Fatalf("no registry entry for -only key %q", key)
		return Experiment{}
	}
	for _, key := range []string{"config", "fig6", "ablation", "memetic", "spea2"} {
		t.Run(key, func(t *testing.T) {
			sc := TinyScale()
			sc.Stop = stop
			if _, err := entry(key).Run(&Suite{Scale: sc}); !errors.Is(err, study.ErrStop) {
				t.Fatalf("%s with a closed Stop returned %v, want an error wrapping study.ErrStop", key, err)
			}
		})
	}
	t.Run("suite", func(t *testing.T) {
		sc := TinyScale()
		sc.Stop = stop
		for _, e := range Registry {
			if _, err := (&Suite{Scale: sc}).Run(e); !errors.Is(err, study.ErrStop) {
				t.Fatalf("Suite.Run(%s) with a closed Stop returned %v, want an error wrapping study.ErrStop", e.ID, err)
			}
		}
	})
}

// TestParallelismAblationHonoursStop covers the second driver of the
// ablation entry, which the entry never reaches once the first stops.
func TestParallelismAblationHonoursStop(t *testing.T) {
	sc := TinyScale()
	stop := make(chan struct{})
	close(stop)
	sc.Stop = stop
	if _, err := ParallelismAblation(sc, nil, nil); !errors.Is(err, study.ErrStop) {
		t.Fatalf("ParallelismAblation with a closed Stop returned %v, want an error wrapping study.ErrStop", err)
	}
}

func TestSelect(t *testing.T) {
	all, err := Select("")
	if err != nil || len(all) != len(Registry) {
		t.Fatalf("Select(\"\") = %d entries, %v; want all %d", len(all), err, len(Registry))
	}
	got, err := Select("mobility, fig7,tab4,extended")
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, e := range got {
		ids = append(ids, e.ID)
	}
	if want := []string{"E6–E10", "A5", "A6"}; !slices.Equal(ids, want) {
		t.Fatalf("Select picked %v, want %v in registry order", ids, want)
	}
	if _, err := Select("fig6,fgi6"); err == nil {
		t.Fatal("Select accepted an unknown key")
	}
}

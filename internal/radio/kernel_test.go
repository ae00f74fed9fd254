package radio

import (
	"math"
	"testing"

	"aedbmls/internal/rng"
)

// testModels returns the ns-3 default log-distance model and two variants
// with other slopes and reference distances.
func testModels() []LogDistance {
	return []LogDistance{
		NewLogDistanceDefault(),
		{Exponent: 2, ReferenceLoss: 40.05, ReferenceDistance: 1},
		{Exponent: 3.8, ReferenceLoss: 46.6777, ReferenceDistance: 0.5},
	}
}

// refRx is the reference link budget: the reception power of a
// transmission at txDBm over distance d under m.
func refRx(m LogDistance, txDBm, d float64) float64 { return txDBm - m.Loss(d) }

// ulpScaledBound returns the comparison tolerance for the fused kernel
// against the reference physics: a few ULPs of the largest magnitude
// involved in the expression (the loss dominates the error budget, since
// both pipelines round it through one transcendental and two or three
// arithmetic ops).
func ulpScaledBound(vals ...float64) float64 {
	scale := 1.0
	for _, v := range vals {
		if a := math.Abs(v); a > scale {
			scale = a
		}
	}
	// Two error terms: ~8 ULPs of the dominant magnitude from the
	// arithmetic around the log10, plus an absolute term from the log's
	// argument rounding — a relative perturbation delta of the argument
	// shifts log10 by delta/ln10 regardless of the result's size, and the
	// d2-space slopes multiply it by up to ~40.
	return 8*scale*0x1p-52 + 1e-13
}

func TestKernelMatchesReferenceWithinULPs(t *testing.T) {
	r := rng.New(42)
	for _, m := range testModels() {
		k := NewKernel(m)
		for i := 0; i < 20000; i++ {
			d := r.Range(0, 1000)
			if i%17 == 0 {
				d = r.Range(0, 0.5) // stress the clamped reference region
			}
			tx := r.Range(MinTxPowerDBm, DefaultTxPowerDBm)
			ref := refRx(m, tx, d)
			got := k.RxPower2(tx, d*d)
			if math.IsNaN(got) || math.IsInf(got, 0) {
				t.Fatalf("%+v: non-finite kernel rx at d=%v tx=%v: %v", m, d, tx, got)
			}
			if diff := math.Abs(got - ref); diff > ulpScaledBound(ref, tx-ref, tx) {
				t.Fatalf("%+v: kernel rx %v vs reference %v at d=%v tx=%v (diff %g)", m, got, ref, d, tx, diff)
			}
		}
	}
}

func TestExactKernelBitIdentical(t *testing.T) {
	r := rng.New(7)
	for _, m := range testModels() {
		k := NewExactKernel(m)
		for i := 0; i < 5000; i++ {
			d2 := r.Range(0, 1e6)
			tx := r.Range(MinTxPowerDBm, DefaultTxPowerDBm)
			if got, want := k.RxPower2(tx, d2), refRx(m, tx, math.Sqrt(d2)); got != want {
				t.Fatalf("%+v: exact kernel %v != reference %v at d2=%v", m, got, want, d2)
			}
		}
		// The exact cutoff IS RangeFor squared, bit for bit.
		if got, want := k.CutoffD2(DefaultTxPowerDBm, DefaultSensitivityDBm),
			func() float64 { rr := m.RangeFor(DefaultTxPowerDBm, DefaultSensitivityDBm); return rr * rr }(); got != want {
			t.Fatalf("%+v: exact CutoffD2 %v != RangeFor^2 %v", m, got, want)
		}
	}
}

func TestRxPowerIntoMatchesPerCall(t *testing.T) {
	r := rng.New(99)
	for _, m := range testModels() {
		for exact, k := range []Kernel{NewKernel(m), NewExactKernel(m)} {
			d2s := make([]float64, 257)
			for i := range d2s {
				d2s[i] = r.Range(0, 1e5)
			}
			var buf []float64
			buf = k.RxPowerInto(buf, DefaultTxPowerDBm, d2s)
			if len(buf) != len(d2s) {
				t.Fatalf("%+v: RxPowerInto returned %d values for %d inputs", m, len(buf), len(d2s))
			}
			for i, d2 := range d2s {
				if want := k.RxPower2(DefaultTxPowerDBm, d2); buf[i] != want {
					t.Fatalf("%+v exact=%v: batched rx %v != per-call %v at d2=%v", m, exact == 1, buf[i], want, d2)
				}
			}
			// Buffer reuse: a second call into the same backing array.
			again := k.RxPowerInto(buf[:0], DefaultTxPowerDBm, d2s[:10])
			if &again[0] != &buf[0] {
				t.Fatalf("%+v: RxPowerInto reallocated a sufficient buffer", m)
			}
		}
	}
}

func TestCutoffD2EdgeCases(t *testing.T) {
	ld := NewLogDistanceDefault()
	k := NewKernel(ld)
	// Budget below the reference loss: nothing is reachable.
	if got := k.CutoffD2(-96, -20); got != 0 {
		t.Fatalf("impossible budget cutoff = %v, want 0", got)
	}
	// Budget exactly the reference loss admits the clamped region.
	tx := DefaultSensitivityDBm + ld.ReferenceLoss
	if got, want := k.CutoffD2(tx, DefaultSensitivityDBm), ld.ReferenceDistance*ld.ReferenceDistance; got != want {
		t.Fatalf("reference-loss budget cutoff = %v, want %v", got, want)
	}
	// A flat loss admits every distance once the budget covers it.
	flat := NewKernel(LogDistance{Exponent: 0, ReferenceLoss: 40, ReferenceDistance: 1})
	if got := flat.CutoffD2(0, -96); !math.IsInf(got, 1) {
		t.Fatalf("flat-loss cutoff = %v, want +Inf", got)
	}
	// The cutoff brackets the kernel's own sensitivity boundary.
	for _, m := range testModels() {
		k := NewKernel(m)
		cut := k.CutoffD2(DefaultTxPowerDBm, DefaultSensitivityDBm)
		if cut <= 0 || math.IsInf(cut, 0) {
			t.Fatalf("%+v: degenerate cutoff %v", m, cut)
		}
		inside := k.RxPower2(DefaultTxPowerDBm, cut*(1-1e-12))
		outside := k.RxPower2(DefaultTxPowerDBm, cut*(1+1e-12))
		if inside < DefaultSensitivityDBm-1e-9 {
			t.Fatalf("%+v: rx just inside the cutoff = %v, below sensitivity", m, inside)
		}
		if outside > DefaultSensitivityDBm+1e-9 {
			t.Fatalf("%+v: rx just outside the cutoff = %v, above sensitivity", m, outside)
		}
	}
}

// TestCutoffNeverAdmitsBeyondReference is the admission property test of
// the d2-space cutoff: over random committees at every paper density
// (and every test model), a candidate the fused kernel path admits — under
// the cutoff AND at or above the sensitivity per the kernel's own rx —
// must also be admitted by the reference path (RangeFor-squared
// pre-filter plus the reference rx check). The kernel may only ever
// REJECT a receiver the reference path would admit at the rounding
// boundary, never admit one it rejects; coverage can therefore never be
// inflated by the fast physics.
func TestCutoffNeverAdmitsBeyondReference(t *testing.T) {
	const arena = 500.0
	committees := map[int]int{100: 25, 200: 50, 300: 75}
	for _, m := range testModels() {
		k := NewKernel(m)
		for density, nodes := range committees {
			for seed := uint64(1); seed <= 8; seed++ {
				r := rng.New(seed*1000 + uint64(density))
				xs := make([]float64, nodes)
				ys := make([]float64, nodes)
				for i := range xs {
					xs[i], ys[i] = r.Range(0, arena), r.Range(0, arena)
				}
				// Transmission powers as AEDB draws them: the default
				// power plus adapted reductions across the legal range.
				powers := []float64{DefaultTxPowerDBm, r.Range(MinTxPowerDBm, DefaultTxPowerDBm), r.Range(-10, 10)}
				for _, tx := range powers {
					cut := k.CutoffD2(tx, DefaultSensitivityDBm)
					reach := m.RangeFor(tx, DefaultSensitivityDBm)
					r2 := reach * reach
					for i := 0; i < nodes; i++ {
						for j := i + 1; j < nodes; j++ {
							dx, dy := xs[i]-xs[j], ys[i]-ys[j]
							d2 := dx*dx + dy*dy
							kernelAdmits := d2 <= cut && k.RxPower2(tx, d2) >= DefaultSensitivityDBm
							refAdmits := d2 <= r2 && refRx(m, tx, math.Sqrt(d2)) >= DefaultSensitivityDBm
							if kernelAdmits && !refAdmits {
								t.Fatalf("%+v d%d seed %d tx=%v: kernel admits d2=%v (cut %v) but reference rejects (r2 %v)",
									m, density, seed, tx, d2, cut, r2)
							}
						}
					}
				}
			}
		}
	}
}

// BenchmarkRxPowerKernel / BenchmarkRxPowerReference back the cutoff and
// fusion claims with numbers: the fused kernel converts a candidate slice
// without square roots or divisions.
func BenchmarkRxPowerKernel(b *testing.B) {
	k := NewKernel(NewLogDistanceDefault())
	r := rng.New(1)
	d2s := make([]float64, 64)
	for i := range d2s {
		d2s[i] = r.Range(1, 150*150)
	}
	var buf []float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = k.RxPowerInto(buf, DefaultTxPowerDBm, d2s)
	}
	if buf[0] > 0 {
		b.Fatal("unexpected rx")
	}
}

func BenchmarkRxPowerReference(b *testing.B) {
	m := NewLogDistanceDefault()
	r := rng.New(1)
	d2s := make([]float64, 64)
	for i := range d2s {
		d2s[i] = r.Range(1, 150*150)
	}
	buf := make([]float64, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, d2 := range d2s {
			buf[j] = refRx(m, DefaultTxPowerDBm, math.Sqrt(d2))
		}
	}
	if buf[0] > 0 {
		b.Fatal("unexpected rx")
	}
}

func BenchmarkCutoffD2(b *testing.B) {
	k := NewKernel(NewLogDistanceDefault())
	var sink float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink += k.CutoffD2(DefaultTxPowerDBm, DefaultSensitivityDBm)
	}
	_ = sink
}

func BenchmarkRangeFor(b *testing.B) {
	m := NewLogDistanceDefault()
	var sink float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := m.RangeFor(DefaultTxPowerDBm, DefaultSensitivityDBm)
		sink += r * r
	}
	_ = sink
}

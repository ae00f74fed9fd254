package radio

import (
	"math"
	"testing"
)

// sanitizeFuzz maps raw fuzz floats into a physically meaningful
// parameter band (finite, positive where needed, ordered breakpoints).
// Returning ok=false skips inputs that cannot be normalised.
func sanitizeFuzz(v, lo, hi float64) (float64, bool) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, false
	}
	// Fold into [lo, hi] smoothly enough for the fuzzer to explore it.
	span := hi - lo
	f := math.Mod(math.Abs(v), span)
	return lo + f, true
}

// FuzzKernelVsReference is the differential wall of the fused physics
// kernel: for fuzzed log-distance parameters, transmission powers and
// squared distances, the fused RxPower2 must stay within a ULP-scaled
// bound of the reference sqrt+Loss pipeline, the batched RxPowerInto
// must match the per-call RxPower2 bit-for-bit, the exact kernel must
// match the reference bit-for-bit, and the d2-space cutoff must never
// admit a squared distance whose kernel rx falls below the floor by more
// than the same bound. (End-to-end metric equality of the two physics
// arms is held separately, on the golden corpus, by internal/eval's
// TestKernelPhysicsMatchesExactOnGoldenCorpus.)
func FuzzKernelVsReference(f *testing.F) {
	f.Add(3.0, 46.6777, 1.0, 16.02, 73.0*73.0)
	f.Add(2.7, 40.0, 2.0, -10.0, 1.0)
	f.Add(1.9, 46.6777, 1.0, 0.0, 250.0*250.0)
	f.Add(4.0, 80.0, 0.5, -40.0, 0.0)
	f.Add(3.0, 46.6777, 1.0, 16.02, 0.25)
	f.Fuzz(func(t *testing.T, exponent, refLoss, refDist, txRaw, d2Raw float64) {
		exponent, ok1 := sanitizeFuzz(exponent, 0, 6)
		refLoss, ok2 := sanitizeFuzz(refLoss, 0, 120)
		refDist, ok3 := sanitizeFuzz(refDist, 0.05, 20)
		tx, ok4 := sanitizeFuzz(txRaw, MinTxPowerDBm, 30)
		d2, ok5 := sanitizeFuzz(d2Raw, 0, 1e7)
		if !(ok1 && ok2 && ok3 && ok4 && ok5) {
			t.Skip()
		}
		m := LogDistance{Exponent: exponent, ReferenceLoss: refLoss, ReferenceDistance: refDist}
		ref := refRx(m, tx, math.Sqrt(d2))
		fused := NewKernel(m)
		got := fused.RxPower2(tx, d2)
		if math.IsNaN(got) || math.IsInf(got, 0) {
			t.Fatalf("%+v: non-finite fused rx %v at tx=%v d2=%v", m, got, tx, d2)
		}
		loss := tx - ref
		if diff := math.Abs(got - ref); diff > ulpScaledBound(ref, loss, tx) {
			t.Fatalf("%+v: fused rx %v vs reference %v (diff %g) at tx=%v d2=%v", m, got, ref, diff, tx, d2)
		}
		if batched := fused.RxPowerInto(nil, tx, []float64{d2}); batched[0] != got {
			t.Fatalf("%+v: batched rx %v != per-call rx %v", m, batched[0], got)
		}
		exact := NewExactKernel(m)
		if ex := exact.RxPower2(tx, d2); ex != ref {
			t.Fatalf("%+v: exact kernel %v != reference %v", m, ex, ref)
		}
		// Admission consistency: strictly under the cutoff the kernel rx
		// may fall below the floor only by boundary rounding. (At the
		// boundary itself — e.g. d2 = cut = 0 for an unreachable budget —
		// the caller's rx >= floor check decides, exactly as it does on
		// the reference path.)
		cut := fused.CutoffD2(tx, DefaultSensitivityDBm)
		if d2 < cut && got < DefaultSensitivityDBm {
			if diff := DefaultSensitivityDBm - got; diff > ulpScaledBound(got, loss, tx) {
				t.Fatalf("%+v: cutoff %v admits d2=%v with rx %v well below the floor", m, cut, d2, got)
			}
		}
	})
}

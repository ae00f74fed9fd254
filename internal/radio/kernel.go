// The fast path-loss kernel: reception powers computed directly from
// SQUARED distances.
//
// The simulation hot path (internal/manet) knows every candidate
// receiver's squared distance d2 — that is what the spatial index and the
// in-range pre-filter operate on — yet the reference formula
//
//	d := math.Sqrt(d2)
//	rx := tx - model.Loss(d)   // Loss -> log10(d/d0)
//
// pays a square root and a division per candidate before reaching the
// one transcendental that matters. The log-distance loss fuses
// algebraically into d2-space:
//
//	PL(d) = RefLoss + 10·n·log10(d/d0) = RefLoss + 5·n·log10(d2/d0²)
//
// which removes the square root entirely and turns the division into a
// precomputed multiply.
//
// The kernel also precomputes the receiver-sensitivity cutoff as a
// d2-space threshold (CutoffD2), so out-of-range candidates are rejected
// by a single comparison and never touch a transcendental, and offers a
// batched entry point (RxPowerInto) that converts a whole candidate slice
// in one call.
//
// # Exactness
//
// The fused expressions are algebraically identical to LogDistance.Loss
// but not bit-identical: log10(sqrt(x)) and ½·log10(x) round differently
// in the last units of the mantissa. FuzzKernelVsReference holds the two
// within a ULP-scaled bound. NewExactKernel evaluates the reference
// formula behind the same API; it is the test oracle that
// manet.Config.ExactPhysics selects, and the golden-metrics corpus in
// internal/eval records both arms.
package radio

import "math"

// ln10 is the natural log of 10, used to turn 10^x into the cheaper
// exp(x·ln10) in CutoffD2.
const ln10 = 2.302585092994045684017991454684364208

// Kernel is a LogDistance model compiled for the simulation hot path: it
// computes reception powers directly from squared distances, without
// square roots or divisions (see the package comment of this file). Build
// one with NewKernel (the fused fast form) or NewExactKernel (the
// reference formula behind the same API); the zero Kernel is not valid.
//
// A Kernel is immutable after construction and safe for concurrent use.
type Kernel struct {
	model LogDistance
	exact bool
	// Fused form (exact == false): for d2 > ref2
	//
	//	loss2(d2) = base + slope5 · log10(d2 · invRef2)
	//
	// where invRef2 = 1/ref2; d2 <= ref2 clamps to base (the reference
	// region).
	ref2, base, slope5, invRef2 float64
}

// NewKernel compiles m into its fused d2-space form.
func NewKernel(m LogDistance) Kernel {
	k := Kernel{
		model:  m,
		ref2:   m.ReferenceDistance * m.ReferenceDistance,
		base:   m.ReferenceLoss,
		slope5: 5 * m.Exponent,
	}
	if k.ref2 > 0 {
		k.invRef2 = 1 / k.ref2
	}
	return k
}

// NewExactKernel wraps m behind the Kernel API with the reference
// formula: RxPower2(tx, d2) is exactly tx - m.Loss(sqrt(d2)), bit for
// bit, and CutoffD2 is the square of m.RangeFor. It is the test oracle
// behind manet.Config.ExactPhysics.
func NewExactKernel(m LogDistance) Kernel {
	return Kernel{model: m, exact: true}
}

// RxPower2 returns the reception power in dBm of a transmission at txDBm
// heard over SQUARED distance d2 (m²). For an exact kernel this is
// bit-identical to txDBm - model.Loss(sqrt(d2)); for a fused kernel it is
// the same quantity within a ULP-scaled bound (FuzzKernelVsReference),
// computed without the square root.
func (k *Kernel) RxPower2(txDBm, d2 float64) float64 {
	if k.exact {
		return txDBm - k.model.Loss(math.Sqrt(d2))
	}
	if d2 <= k.ref2 {
		return txDBm - k.base
	}
	return txDBm - (k.base + k.slope5*math.Log10(d2*k.invRef2))
}

// RxPowerInto converts a whole slice of squared distances in one call:
// it fills dst (reusing its backing array when large enough, allocating
// otherwise) with RxPower2(txDBm, d2) for every d2 of d2s and returns it.
// This is the batch entry point the manet data cascade uses to convert
// every candidate receiver of a transmission — and every deferred
// neighbor-table row — in one tight loop.
func (k *Kernel) RxPowerInto(dst []float64, txDBm float64, d2s []float64) []float64 {
	if cap(dst) < len(d2s) {
		dst = make([]float64, len(d2s))
	} else {
		dst = dst[:len(d2s)]
	}
	if k.exact {
		for i, d2 := range d2s {
			dst[i] = txDBm - k.model.Loss(math.Sqrt(d2))
		}
		return dst
	}
	// The constants are hoisted out of the loop, which is unrolled
	// 4-wide: the Log10 evaluations of the four lanes are independent, so
	// the unroll exposes their instruction-level parallelism and
	// amortises the loop overhead over a cache line of inputs. Each
	// lane's expression shape must match RxPower2 exactly so batched and
	// per-call conversions are bit-identical (the unroll only reorders
	// independent elements, never the operations within one element).
	b0, base0, slope, inv := k.ref2, k.base, k.slope5, k.invRef2
	flat := txDBm - base0
	n := len(d2s)
	i := 0
	for ; i+4 <= n; i += 4 {
		d2a, d2b, d2c, d2d := d2s[i], d2s[i+1], d2s[i+2], d2s[i+3]
		ra, rb, rc, rd := flat, flat, flat, flat
		if d2a > b0 {
			ra = txDBm - (base0 + slope*math.Log10(d2a*inv))
		}
		if d2b > b0 {
			rb = txDBm - (base0 + slope*math.Log10(d2b*inv))
		}
		if d2c > b0 {
			rc = txDBm - (base0 + slope*math.Log10(d2c*inv))
		}
		if d2d > b0 {
			rd = txDBm - (base0 + slope*math.Log10(d2d*inv))
		}
		dst[i], dst[i+1], dst[i+2], dst[i+3] = ra, rb, rc, rd
	}
	for ; i < n; i++ {
		if d2 := d2s[i]; d2 > b0 {
			dst[i] = txDBm - (base0 + slope*math.Log10(d2*inv))
		} else {
			dst[i] = flat
		}
	}
	return dst
}

// CutoffD2 returns the squared-distance admission threshold for a
// transmission at txDBm against a receiver floor of rxDBm (typically the
// sensitivity): candidates with d2 above the threshold cannot reach the
// floor and can be rejected by one comparison, with no transcendental
// evaluated. The threshold matches the kernel's own RxPower2 within
// floating-point rounding of the boundary, so callers deciding admission
// must still apply the rx >= floor check to candidates under the cutoff —
// exactly the structure of the reference path, whose pre-filter is
// RangeFor squared. For an exact kernel the threshold IS RangeFor
// squared, bit for bit.
func (k *Kernel) CutoffD2(txDBm, rxDBm float64) float64 {
	if k.exact {
		r := k.model.RangeFor(txDBm, rxDBm)
		return r * r
	}
	budget := txDBm - rxDBm
	if budget < k.base {
		return 0
	}
	if k.slope5 <= 0 {
		// A flat loss admits every distance once the budget covers it.
		return math.Inf(1)
	}
	// Invert base + slope5·log10(d2/ref2) = budget, with 10^x as
	// exp(x·ln10) — cheaper than math.Pow and accurate to ~1 ulp.
	return k.ref2 * math.Exp(ln10*(budget-k.base)/k.slope5)
}

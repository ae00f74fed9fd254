// The fast path-loss kernel: reception powers computed directly from
// SQUARED distances.
//
// The simulation hot path (internal/manet) knows every candidate
// receiver's squared distance d2 — that is what the spatial index and the
// in-range pre-filter operate on — yet the classic call chain
//
//	d := math.Sqrt(d2)
//	rx := radio.RxPower(model, tx, d)   // interface call -> Loss(d) -> log10(d/d0)
//
// pays a square root, an interface dispatch and a division per candidate
// before reaching the one transcendental that matters. Every supported
// model is (piecewise) logarithmic in d, so its loss can be fused
// algebraically into d2-space: for log-distance,
//
//	PL(d) = RefLoss + 10·n·log10(d/d0) = RefLoss + 5·n·log10(d2/d0²)
//
// which removes the square root entirely and turns the division into a
// precomputed multiply. The same rewrite covers Friis (a log-distance
// model with exponent 2 around lambda/4pi), the two-ray ground model
// (free space below the crossover, slope-4 beyond) and the three-slope
// log-distance model — each becomes one to three (d2-breakpoint, base
// loss, d2-space slope) segments evaluated without interface dispatch.
//
// The kernel also precomputes the receiver-sensitivity cutoff as a
// d2-space threshold (CutoffD2), so out-of-range candidates are rejected
// by a single comparison and never touch a transcendental, and offers a
// batched entry point (RxPowerInto) that converts a whole candidate slice
// in one call.
//
// # Exactness
//
// The fused expressions are algebraically identical to the reference
// Model.Loss path but not bit-identical: log10(sqrt(x)) and ½·log10(x)
// round differently in the last units of the mantissa. FuzzKernelVsReference
// holds the two within a ULP-scaled bound across all four models, and the
// evaluation stack threads an exactness gate (manet.Config.ExactPhysics,
// eval.Settings.ExactPhysics) that swaps in NewExactKernel — the reference
// per-call physics behind the same API — for paper-exact reproduction
// runs. The golden-metrics corpus in internal/eval records both arms.
package radio

import "math"

// kernel kinds: how RxPower2 evaluates the loss.
const (
	kernelExact   uint8 = iota // delegate to Model.Loss(sqrt(d2))
	kernelFused                // piecewise-log segments in d2-space
	kernelFusedE0              // fused, but a zero-budget link is unreachable (Friis/TwoRay RangeFor semantics)
)

// kernelMaxSegments bounds the piecewise representation: the largest
// supported model (ThreeLogDistance) has three log slopes.
const kernelMaxSegments = 3

// ln10 is the natural log of 10, used to turn 10^x into the cheaper
// exp(x·ln10) in CutoffD2.
const ln10 = 2.302585092994045684017991454684364208

// Kernel is a path-loss model compiled for the simulation hot path: it
// computes reception powers directly from squared distances, without
// square roots, divisions or interface dispatch (see the package comment
// of this file). Build one with NewKernel (the fused fast form) or
// NewExactKernel (reference per-call physics behind the same API); the
// zero Kernel is not valid.
//
// A Kernel is immutable after construction and safe for concurrent use.
type Kernel struct {
	model Model
	kind  uint8
	nseg  int8
	// Piecewise representation (kind != kernelExact): segment i covers
	// d2 in (break2[i], break2[i+1]] (the last segment is unbounded) with
	//
	//	loss2(d2) = base[i] + slope5[i] · log10(d2 · invRef2[i])
	//
	// where invRef2[i] = 1/break2[i], so base[i] is the loss at the
	// segment start. d2 <= break2[0] clamps to base[0] (the reference
	// region).
	break2  [kernelMaxSegments]float64
	base    [kernelMaxSegments]float64
	slope5  [kernelMaxSegments]float64
	invRef2 [kernelMaxSegments]float64
}

// NewKernel compiles m into its fused d2-space form. The four models of
// this package (LogDistance, Friis, TwoRayGround, ThreeLogDistance) fuse;
// any other Model falls back to exact per-call evaluation, so NewKernel
// is always safe to use.
func NewKernel(m Model) Kernel {
	switch pm := m.(type) {
	case LogDistance:
		k := Kernel{model: m, kind: kernelFused, nseg: 1}
		k.setSegment(0, pm.ReferenceDistance*pm.ReferenceDistance, pm.ReferenceLoss, 5*pm.Exponent)
		return k
	case Friis:
		// Free space is log-distance with exponent 2 around the 0 dB
		// reference distance lambda/(4 pi); RangeFor treats a zero budget
		// as unreachable, hence the E0 kind.
		d0 := pm.ReferenceDistance()
		k := Kernel{model: m, kind: kernelFusedE0, nseg: 1}
		k.setSegment(0, d0*d0, 0, 10)
		return k
	case TwoRayGround:
		if pm.HeightM <= 0 || pm.Crossover <= 0 {
			// Degenerate geometry collapses the model to clamped free
			// space (see TwoRayGround.Loss).
			k := NewKernel(pm.Friis)
			k.model = m
			return k
		}
		d0 := pm.Friis.ReferenceDistance()
		cross2 := pm.Crossover * pm.Crossover
		k := Kernel{model: m, kind: kernelFusedE0, nseg: 2}
		if pm.Crossover <= d0 {
			// The free-space region sits entirely inside the Friis clamp
			// (tiny antennas): flat 0 dB up to the crossover, then the
			// fourth-power law anchored at the reference's own value
			// there — the reference formula is discontinuous at such a
			// crossover, and the kernel mirrors it region for region.
			k.setSegment(0, cross2, 0, 0)
			k.setSegment(1, cross2, 40*math.Log10(pm.Crossover)-20*math.Log10(pm.HeightM*pm.HeightM), 20)
			return k
		}
		k.setSegment(0, d0*d0, 0, 10)
		// Beyond the crossover: PL = 40·log10(d) - 20·log10(h²)
		//                          = PL(crossover) + 20·log10(d2/crossover²).
		k.setSegment(1, cross2, pm.Friis.Loss(pm.Crossover), 20)
		return k
	case ThreeLogDistance:
		k := Kernel{model: m, kind: kernelFused, nseg: 3}
		k.setSegment(0, pm.Distance0*pm.Distance0, pm.ReferenceLoss, 5*pm.Exponent0)
		k.setSegment(1, pm.Distance1*pm.Distance1, pm.lossAt1(), 5*pm.Exponent1)
		k.setSegment(2, pm.Distance2*pm.Distance2, pm.lossAt2(), 5*pm.Exponent2)
		return k
	default:
		return NewExactKernel(m)
	}
}

// NewExactKernel wraps m behind the Kernel API with reference per-call
// physics: RxPower2(tx, d2) is exactly RxPower(m, tx, sqrt(d2)), bit for
// bit, and CutoffD2 is the square of m.RangeFor. It is the ExactPhysics
// arm of the evaluation stack's exactness gate.
func NewExactKernel(m Model) Kernel {
	return Kernel{model: m, kind: kernelExact}
}

// setSegment installs one piecewise-log segment (see Kernel).
func (k *Kernel) setSegment(i int, break2, base, slope5 float64) {
	k.break2[i] = break2
	k.base[i] = base
	k.slope5[i] = slope5
	if break2 > 0 {
		k.invRef2[i] = 1 / break2
	}
}

// Model returns the path-loss model the kernel was compiled from.
func (k *Kernel) Model() Model { return k.model }

// Exact reports whether the kernel evaluates the reference per-call
// physics (NewExactKernel, or a model NewKernel cannot fuse) rather than
// the fused d2-space form.
func (k *Kernel) Exact() bool { return k.kind == kernelExact }

// RxPower2 returns the reception power in dBm of a transmission at txDBm
// heard over SQUARED distance d2 (m²). For an exact kernel this is
// bit-identical to RxPower(model, txDBm, sqrt(d2)); for a fused kernel it
// is the same quantity within a ULP-scaled bound (FuzzKernelVsReference),
// computed without the square root.
func (k *Kernel) RxPower2(txDBm, d2 float64) float64 {
	if k.kind == kernelExact {
		return txDBm - k.model.Loss(math.Sqrt(d2))
	}
	return txDBm - k.loss2(d2)
}

// loss2 evaluates the fused piecewise-log loss at squared distance d2.
func (k *Kernel) loss2(d2 float64) float64 {
	if d2 <= k.break2[0] {
		return k.base[0]
	}
	i := 0
	for i+1 < int(k.nseg) && d2 > k.break2[i+1] {
		i++
	}
	return k.base[i] + k.slope5[i]*math.Log10(d2*k.invRef2[i])
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
	if k.kind == kernelExact {
		for i, d2 := range d2s {
			dst[i] = txDBm - k.model.Loss(math.Sqrt(d2))
		}
		return dst
	}
	if k.nseg == 1 {
		// The common case (LogDistance, Friis) with the segment constants
		// hoisted out of the loop, unrolled 4-wide: the Log10 evaluations
		// of the four lanes are independent, so the unroll exposes their
		// instruction-level parallelism and amortises the loop overhead
		// over a cache line of inputs. Each lane's expression shape must
		// match loss2 exactly so batched and per-call conversions are
		// bit-identical (the unroll only reorders independent elements,
		// never the operations within one element).
		b0, base0, slope, inv := k.break2[0], k.base[0], k.slope5[0], k.invRef2[0]
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
	for i, d2 := range d2s {
		dst[i] = txDBm - k.loss2(d2)
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
	budget := txDBm - rxDBm
	if k.kind == kernelExact {
		r := k.model.RangeFor(txDBm, rxDBm)
		return r * r
	}
	if k.kind == kernelFusedE0 {
		// Friis/TwoRay RangeFor semantics: a non-positive budget is
		// unreachable even though the clamped reference region has 0 loss.
		if budget <= k.base[0] {
			return 0
		}
	} else if budget < k.base[0] {
		return 0
	}
	i := int(k.nseg) - 1
	for i > 0 && budget < k.base[i] {
		i--
	}
	if k.slope5[i] <= 0 {
		// A flat segment either admits everything in it (budget >= base)
		// or nothing beyond; the next break bounds it.
		if i+1 < int(k.nseg) {
			return k.break2[i+1]
		}
		return math.Inf(1)
	}
	// Invert base[i] + slope5[i]·log10(d2/break2[i]) = budget, with 10^x
	// as exp(x·ln10) — cheaper than math.Pow and accurate to ~1 ulp.
	return k.break2[i] * math.Exp(ln10*(budget-k.base[i])/k.slope5[i])
}

package main

import (
	"crypto/sha256"
	"encoding/hex"
	"hash"
	"sort"
	"strconv"

	"aedbmls/internal/eval"
	"aedbmls/internal/moo"
)

// hvBounds are the fixed objective boxes, per density, that hypervolume
// normalizes by: {lo, hi} of (energy as a dBm sum, -coverage,
// forwardings). They enclose every front the workloads produced when they
// were set, so hv of different runs is comparable. A point 10% beyond a
// box's upper edge adds nothing.
var hvBounds = map[int][2][3]float64{
	100: {{0, -25, 0}, {250, -5, 20}},
	200: {{-20, -50, 0}, {290, -5, 24}},
	300: {{-60, -75, 0}, {420, -15, 36}},
}

// hypervolume is the normalized hypervolume of the feasible members of
// front, against the reference point (1.1, 1.1, 1.1) of the density's box.
func hypervolume(front []*moo.Solution, density int) float64 {
	b := hvBounds[density]
	var pts [][3]float64
	for _, s := range front {
		if !s.Feasible() {
			continue
		}
		var p [3]float64
		inside := true
		for k := range p {
			p[k] = (s.F[k] - b[0][k]) / (b[1][k] - b[0][k])
			inside = inside && p[k] < 1.1
		}
		if inside {
			pts = append(pts, p)
		}
	}
	return hv3(pts, 1.1)
}

// hv3 is the volume the points dominate below (ref, ref, ref): slices
// along the third objective, each holding the 2-D area of the points at
// or below it.
func hv3(pts [][3]float64, ref float64) float64 {
	sort.Slice(pts, func(i, j int) bool { return pts[i][2] < pts[j][2] })
	var vol float64
	for i := range pts {
		top := ref
		if i+1 < len(pts) {
			top = pts[i+1][2]
		}
		if top > pts[i][2] {
			vol += (top - pts[i][2]) * hv2(pts[:i+1], ref)
		}
	}
	return vol
}

func hv2(pts [][3]float64, ref float64) float64 {
	ps := append([][3]float64(nil), pts...)
	sort.Slice(ps, func(i, j int) bool {
		if ps[i][0] != ps[j][0] {
			return ps[i][0] < ps[j][0]
		}
		return ps[i][1] < ps[j][1]
	})
	var area float64
	y := ref
	for _, p := range ps {
		if p[1] < y {
			area += (ref - p[0]) * (y - p[1])
			y = p[1]
		}
	}
	return area
}

// digester is a SHA-256 over hex-float text, which spells every float64
// exactly.
type digester struct {
	h   hash.Hash
	buf []byte
}

func newDigester() *digester { return &digester{h: sha256.New()} }

func (d *digester) floats(vs ...float64) {
	for _, v := range vs {
		d.buf = strconv.AppendFloat(d.buf[:0], v, 'x', -1, 64)
		d.buf = append(d.buf, ' ')
		d.h.Write(d.buf)
	}
	d.h.Write([]byte{'\n'})
}

func (d *digester) metrics(aux any) {
	m, _ := aux.(eval.Metrics)
	d.floats(m.EnergyDBmSum, m.Coverage, m.Forwardings, m.BroadcastTime, m.EnergyMJ, m.Collisions)
}

func (d *digester) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }

// digestSolutions hashes a front in order. Tune reports only the decision
// vector and four metrics, so that is all a tuning front's digest covers;
// full adds the objectives, the violation and all six metrics a study's
// front stream carries.
func digestSolutions(front []*moo.Solution, full bool) string {
	d := newDigester()
	d.solutions(front, full)
	return d.sum()
}

// digestFronts hashes several full fronts in order, each closed by an
// empty line.
func digestFronts(fronts [][]*moo.Solution) string {
	d := newDigester()
	for _, f := range fronts {
		d.solutions(f, true)
		d.floats()
	}
	return d.sum()
}

func (d *digester) solutions(front []*moo.Solution, full bool) {
	for _, s := range front {
		d.floats(s.X...)
		if full {
			d.floats(s.F...)
			d.floats(s.Violation)
			d.metrics(s.Aux)
		} else {
			m, _ := eval.MetricsOf(s)
			d.floats(m.EnergyDBmSum, m.Coverage, m.Forwardings, m.BroadcastTime)
		}
	}
}

// digestBatches hashes every result of a sweep pass in order.
func digestBatches(batches [][]moo.BatchResult) string {
	d := newDigester()
	for _, rs := range batches {
		for _, r := range rs {
			d.floats(r.F...)
			d.floats(r.Violation)
			d.metrics(r.Aux)
		}
	}
	return d.sum()
}

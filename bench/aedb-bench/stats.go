package main

import (
	"math"
	"sort"
)

// summary is one metric over a run's reps, with every raw value kept.
type summary struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	N      int64     `json:"n"` // samples behind the values
	Values []float64 `json:"values"`
}

func summarize(unit string, values []float64, n int64) summary {
	q := quartiles(values)
	return summary{Unit: unit, Median: q[1], Q1: q[0], Q3: q[2], N: n, Values: values}
}

// quartiles returns the three cut points Python's
// statistics.quantiles(values, n=4) gives (its default "exclusive"
// method), so spreads printed here match the ones checked against
// BENCHMARK.json bounds.
func quartiles(values []float64) [3]float64 {
	var out [3]float64
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	switch len(d) {
	case 0:
		return [3]float64{math.NaN(), math.NaN(), math.NaN()}
	case 1:
		return [3]float64{d[0], d[0], d[0]}
	}
	m := len(d) + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), len(d)-1)
		delta := float64(i*m - j*4)
		out[i-1] = (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return out
}

// percentile interpolates linearly between order statistics; 0 for no
// samples.
func percentile(values []float64, p float64) float64 {
	if len(values) == 0 {
		return 0
	}
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	pos := p / 100 * float64(len(d)-1)
	lo := int(pos)
	if lo+1 >= len(d) {
		return d[len(d)-1]
	}
	return d[lo] + (pos-float64(lo))*(d[lo+1]-d[lo])
}

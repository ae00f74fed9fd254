package radio_test

import (
	"fmt"

	"aedbmls/internal/radio"
)

// ExampleLogDistance reproduces the paper's link budget: ns-3's default
// log-distance model, the Table II transmission power and the 802.11b
// energy-detection threshold give a maximum radio range of about 150 m.
func ExampleLogDistance() {
	m := radio.NewLogDistanceDefault()
	fmt.Printf("loss at 1 m:   %.4f dB\n", m.Loss(1))
	fmt.Printf("loss at 100 m: %.4f dB\n", m.Loss(100))
	fmt.Printf("rx at 100 m:   %.4f dBm\n", radio.DefaultTxPowerDBm-m.Loss(100))
	fmt.Printf("max range:     %.1f m\n", m.RangeFor(radio.DefaultTxPowerDBm, radio.DefaultSensitivityDBm))
	// Output:
	// loss at 1 m:   46.6777 dB
	// loss at 100 m: 106.6777 dB
	// rx at 100 m:   -90.6577 dBm
	// max range:     150.7 m
}

// ExampleKernel shows the fused fast path the simulation hot loop uses:
// reception powers computed straight from squared distances (no square
// root), a whole candidate slice per call, with the sensitivity cutoff
// precomputed as a d²-space threshold.
func ExampleKernel() {
	k := radio.NewKernel(radio.NewLogDistanceDefault())
	d2s := []float64{50 * 50, 100 * 100, 200 * 200}
	rxs := k.RxPowerInto(nil, radio.DefaultTxPowerDBm, d2s)
	cut := k.CutoffD2(radio.DefaultTxPowerDBm, radio.DefaultSensitivityDBm)
	for i, d2 := range d2s {
		fmt.Printf("d²=%6.0f m²: rx %8.4f dBm, in range: %v\n", d2, rxs[i], d2 <= cut)
	}
	// Output:
	// d²=  2500 m²: rx -81.6268 dBm, in range: true
	// d²= 10000 m²: rx -90.6577 dBm, in range: true
	// d²= 40000 m²: rx -99.6886 dBm, in range: false
}

package radio

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDBmMilliwattKnownValues(t *testing.T) {
	cases := []struct{ dbm, mw float64 }{
		{0, 1}, {10, 10}, {20, 100}, {-10, 0.1}, {30, 1000},
	}
	for _, c := range cases {
		if got := DBmToMilliwatt(c.dbm); math.Abs(got-c.mw) > 1e-9*c.mw {
			t.Errorf("DBmToMilliwatt(%v) = %v, want %v", c.dbm, got, c.mw)
		}
		if got := MilliwattToDBm(c.mw); math.Abs(got-c.dbm) > 1e-9 {
			t.Errorf("MilliwattToDBm(%v) = %v, want %v", c.mw, got, c.dbm)
		}
	}
}

func TestDBmRoundTrip(t *testing.T) {
	check := func(dbm float64) bool {
		if math.IsNaN(dbm) || math.Abs(dbm) > 200 {
			return true
		}
		back := MilliwattToDBm(DBmToMilliwatt(dbm))
		return math.Abs(back-dbm) < 1e-9
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMilliwattToDBmNonPositive(t *testing.T) {
	if !math.IsInf(MilliwattToDBm(0), -1) || !math.IsInf(MilliwattToDBm(-1), -1) {
		t.Fatal("non-positive power should map to -Inf dBm")
	}
}

func TestLogDistanceMonotone(t *testing.T) {
	m := NewLogDistanceDefault()
	prev := m.Loss(0.1)
	for d := 1.0; d < 1000; d *= 1.5 {
		cur := m.Loss(d)
		if cur < prev {
			t.Fatalf("loss decreased at d=%v", d)
		}
		prev = cur
	}
}

func TestLogDistanceReferenceRegion(t *testing.T) {
	m := NewLogDistanceDefault()
	if m.Loss(0.5) != m.ReferenceLoss || m.Loss(1) != m.ReferenceLoss {
		t.Fatal("loss below reference distance should equal reference loss")
	}
	// One decade beyond the reference adds 10*exponent dB.
	if got := m.Loss(10) - m.Loss(1); math.Abs(got-30) > 1e-9 {
		t.Fatalf("decade loss = %v, want 30", got)
	}
}

func TestDefaultRangeMatchesPaperEnvelope(t *testing.T) {
	// 16.02 dBm with the ns-3 default log-distance model and -96 dBm
	// sensitivity must give a usable MANET range (around 150 m), well
	// inside the 500 m arena.
	m := NewLogDistanceDefault()
	r := m.RangeFor(DefaultTxPowerDBm, DefaultSensitivityDBm)
	if r < 100 || r > 200 {
		t.Fatalf("default radio range = %.1f m, want within [100, 200]", r)
	}
}

// TestModelsFiniteAtShortRange pins the short-range clamping contract of
// the log-distance model: at d=0 and anywhere below the reference
// distance, the loss is finite, non-negative and equal to the clamped
// reference loss.
func TestModelsFiniteAtShortRange(t *testing.T) {
	m := NewLogDistanceDefault()
	for _, d := range []float64{0, m.ReferenceDistance / 4, m.ReferenceDistance / 2, m.ReferenceDistance} {
		got := m.Loss(d)
		if math.IsNaN(got) || math.IsInf(got, 0) {
			t.Errorf("Loss(%v) = %v, want finite", d, got)
		}
		if got != m.ReferenceLoss {
			t.Errorf("Loss(%v) = %v, want clamped reference loss %v", d, got, m.ReferenceLoss)
		}
		if got < 0 {
			t.Errorf("negative loss %v at d=%v (a short-range gain)", got, d)
		}
	}
}

func TestRangeForInvertsLoss(t *testing.T) {
	for _, m := range []LogDistance{NewLogDistanceDefault(), {Exponent: 2, ReferenceLoss: 40, ReferenceDistance: 2}} {
		for _, tx := range []float64{16.02, 0, -20} {
			d := m.RangeFor(tx, -96)
			if d <= 0 {
				continue
			}
			rx := tx - m.Loss(d)
			if math.Abs(rx-(-96)) > 0.01 {
				t.Errorf("%+v: rx at RangeFor distance = %v, want -96", m, rx)
			}
			// Slightly beyond the range the signal must be below threshold.
			if beyond := tx - m.Loss(d*1.01); beyond > -96 {
				t.Errorf("%+v: rx beyond range = %v, want < -96", m, beyond)
			}
		}
	}
}

func TestRangeForImpossibleBudget(t *testing.T) {
	m := NewLogDistanceDefault()
	if r := m.RangeFor(-96, -20); r != 0 {
		t.Fatalf("impossible budget should give range 0, got %v", r)
	}
}

func TestTxPowerToReach(t *testing.T) {
	// A beacon sent at 16 dBm arriving at -80 dBm implies 96 dB loss;
	// delivering -96 dBm through the same channel needs 0 dBm.
	got := TxPowerToReach(16, -80, -96)
	if math.Abs(got-0) > 1e-9 {
		t.Fatalf("TxPowerToReach = %v, want 0", got)
	}
}

func TestTxPowerToReachRecoversBeaconPower(t *testing.T) {
	check := func(rx float64) bool {
		if math.IsNaN(rx) || rx < -96 || rx > 16 {
			return true
		}
		// Asking to reach the beacon's own rx level returns the beacon
		// power itself.
		return math.Abs(TxPowerToReach(16.02, rx, rx)-16.02) < 1e-9
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestClampTxPower(t *testing.T) {
	if got := ClampTxPower(20, 16.02); got != 16.02 {
		t.Fatalf("over-max clamp = %v", got)
	}
	if got := ClampTxPower(-100, 16.02); got != MinTxPowerDBm {
		t.Fatalf("under-min clamp = %v", got)
	}
	if got := ClampTxPower(3, 16.02); got != 3 {
		t.Fatalf("in-range clamp = %v", got)
	}
}

func TestTxEnergy(t *testing.T) {
	// 10 dBm = 10 mW for 0.5 s -> 5 mJ.
	if got := TxEnergyMilliJoule(10, 0.5); math.Abs(got-5) > 1e-9 {
		t.Fatalf("TxEnergyMilliJoule = %v, want 5", got)
	}
	// Energy grows with power.
	if TxEnergyMilliJoule(16, 1) <= TxEnergyMilliJoule(0, 1) {
		t.Fatal("energy not monotone in power")
	}
}

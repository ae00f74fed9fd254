// Package radio models the physical-layer quantities the AEDB protocol
// reasons about: transmission powers in dBm, the path-loss model, and
// link budgets.
//
// The paper evaluates AEDB with ns-3's 802.11 stack; the relevant defaults
// are reproduced here: a log-distance propagation-loss model with exponent
// 3.0 and 46.6777 dB reference loss at 1 m, a default transmission power of
// 16.02 dBm (Table II) and an energy-detection threshold (receiver
// sensitivity) of -96 dBm, which yields a maximum radio range of roughly
// 150 m — comfortably inside the 500 m x 500 m arena and consistent with
// the protocol's border-threshold domain of [-95, -70] dBm.
package radio

import "math"

// Physical constants and ns-3-compatible defaults.
const (
	// DefaultTxPowerDBm is the default transmission power (Table II).
	DefaultTxPowerDBm = 16.02
	// DefaultSensitivityDBm is the energy-detection threshold below which
	// a frame cannot be received (ns-3 802.11b default is approx -96 dBm).
	DefaultSensitivityDBm = -96.0
	// DefaultCaptureThresholdDB: a frame survives interference only if it
	// is at least this many dB stronger than every overlapping frame.
	DefaultCaptureThresholdDB = 10.0
	// MinTxPowerDBm is the lowest power a radio can be driven at when AEDB
	// reduces the transmission power.
	MinTxPowerDBm = -40.0
)

// DBmToMilliwatt converts a power level from dBm to milliwatts.
func DBmToMilliwatt(dbm float64) float64 { return math.Pow(10, dbm/10) }

// MilliwattToDBm converts a power level from milliwatts to dBm.
// It returns -Inf for non-positive inputs.
func MilliwattToDBm(mw float64) float64 {
	if mw <= 0 {
		return math.Inf(-1)
	}
	return 10 * math.Log10(mw)
}

// LogDistance is the log-distance path-loss model
//
//	PL(d) = ReferenceLoss + 10 * Exponent * log10(d / ReferenceDistance)
//
// with PL(d) = ReferenceLoss for d <= ReferenceDistance. ns-3's
// LogDistancePropagationLossModel defaults (exponent 3, 46.6777 dB at 1 m)
// are provided by NewLogDistanceDefault.
type LogDistance struct {
	Exponent          float64
	ReferenceLoss     float64 // dB at ReferenceDistance
	ReferenceDistance float64 // meters
}

// NewLogDistanceDefault returns the ns-3 default log-distance model.
func NewLogDistanceDefault() LogDistance {
	return LogDistance{Exponent: 3.0, ReferenceLoss: 46.6777, ReferenceDistance: 1.0}
}

// Loss returns the path loss in dB at distance d >= 0 meters.
func (m LogDistance) Loss(d float64) float64 {
	if d <= m.ReferenceDistance {
		return m.ReferenceLoss
	}
	return m.ReferenceLoss + 10*m.Exponent*math.Log10(d/m.ReferenceDistance)
}

// RangeFor returns the maximum distance at which a transmission at
// txDBm is received at or above rxDBm (0 when the budget is below the
// reference loss).
func (m LogDistance) RangeFor(txDBm, rxDBm float64) float64 {
	budget := txDBm - rxDBm // maximum tolerable loss
	if budget < m.ReferenceLoss {
		return 0
	}
	return m.ReferenceDistance * math.Pow(10, (budget-m.ReferenceLoss)/(10*m.Exponent))
}

// TxPowerToReach returns the transmission power needed so that a receiver
// whose beacon (sent at beaconTxDBm) was received at beaconRxDBm hears us
// at targetRxDBm. This is AEDB's cross-layer power estimate: the channel
// loss is inferred from the beacon budget and assumed symmetric.
func TxPowerToReach(beaconTxDBm, beaconRxDBm, targetRxDBm float64) float64 {
	loss := beaconTxDBm - beaconRxDBm
	return targetRxDBm + loss
}

// ClampTxPower bounds a requested power to the radio's feasible interval
// [MinTxPowerDBm, maxDBm].
func ClampTxPower(p, maxDBm float64) float64 {
	if p > maxDBm {
		return maxDBm
	}
	if p < MinTxPowerDBm {
		return MinTxPowerDBm
	}
	return p
}

// TxEnergyMilliJoule returns the radiated energy in millijoules of a
// transmission at power dBm lasting duration seconds. (The paper's energy
// *objective* instead sums dBm levels — see internal/eval — but the
// physical account is kept for reporting.)
func TxEnergyMilliJoule(dbm, duration float64) float64 {
	return DBmToMilliwatt(dbm) * duration
}

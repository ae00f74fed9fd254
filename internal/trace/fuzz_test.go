package trace

import (
	"crypto/sha256"
	"math"
	"runtime"
	"testing"
)

// FuzzDecode feeds Decode arbitrary bytes twice: as a whole file, and as
// a payload under a freshly computed SHA-256 trailer, so mutations get
// past the checksum into the parser. The seed corpus
// (testdata/fuzz/FuzzDecode) holds the trace of a real broadcast, its
// payload, truncations of both and a flipped byte. Decode must never
// panic, must allocate in proportion to its input (no allocation sized
// by an unchecked count), and anything it accepts must re-encode and
// decode to an equal Trace.
//
// The seeds are ~21 KB and every execution reads the memory statistics,
// so the fuzzer's default 60 s minimisation of each new input stalls a
// run; fuzz with a bounded one:
//
//	go test -run '^$' -fuzz FuzzDecode -fuzzminimizetime 100x ./internal/trace
func FuzzDecode(f *testing.F) {
	enc := sample().Encode()
	f.Add(enc)
	f.Add(enc[:len(enc)-sha256.Size])
	f.Add([]byte(magic))
	f.Fuzz(func(t *testing.T, data []byte) {
		decodeChecked(t, data)
		sum := sha256.Sum256(data)
		decodeChecked(t, append(data[:len(data):len(data)], sum[:]...))
	})
}

// decodeChecked decodes data under the FuzzDecode invariants.
func decodeChecked(t *testing.T, data []byte) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tr, err := Decode(data)
	runtime.ReadMemStats(&after)
	// Decisions decode to ~1.2x their encoded size and the protocol name
	// to its own length; anything far beyond that was sized by a count.
	if grew := after.TotalAlloc - before.TotalAlloc; grew > uint64(4*len(data))+1<<16 {
		t.Fatalf("Decode of %d bytes allocated %d bytes", len(data), grew)
	}
	if err != nil {
		return
	}
	again, err := Decode(tr.Encode())
	if err != nil {
		t.Fatalf("re-encoded trace does not decode: %v", err)
	}
	if !sameTrace(tr, again) {
		t.Fatalf("re-encoded trace decodes differently:\n%+v\n%+v", tr.Header, again.Header)
	}
}

// sameTrace compares two traces field by field, floats by their bits
// (NaN payloads included).
func sameTrace(a, b *Trace) bool {
	same := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	ha, hb := a.Header, b.Header
	if ha.Protocol != hb.Protocol || ha.Density != hb.Density || ha.NumNodes != hb.NumNodes ||
		ha.Seed != hb.Seed || ha.Source != hb.Source {
		return false
	}
	for i := range ha.Params {
		if !same(ha.Params[i], hb.Params[i]) {
			return false
		}
	}
	sa, sb := ha.Baseline, hb.Baseline
	if !same(sa.EnergyDBmSum, sb.EnergyDBmSum) || !same(sa.Coverage, sb.Coverage) ||
		!same(sa.Forwardings, sb.Forwardings) || !same(sa.BroadcastTime, sb.BroadcastTime) ||
		!same(sa.EnergyMJ, sb.EnergyMJ) || !same(sa.Collisions, sb.Collisions) {
		return false
	}
	if len(a.Decisions) != len(b.Decisions) {
		return false
	}
	for i := range a.Decisions {
		x, y := &a.Decisions[i], &b.Decisions[i]
		if x.Kind != y.Kind || x.Regime != y.Regime || x.Node != y.Node || x.From != y.From ||
			x.MsgID != y.MsgID || x.Potential != y.Potential {
			return false
		}
		for _, p := range [][2]float64{
			{x.Time, y.Time}, {x.RxPowerDBm, y.RxPowerDBm}, {x.PBestDBm, y.PBestDBm},
			{x.BorderDBm, y.BorderDBm}, {x.DelayLo, y.DelayLo}, {x.DelayHi, y.DelayHi},
			{x.Delay, y.Delay}, {x.NeighborsThreshold, y.NeighborsThreshold},
			{x.BeaconRxDBm, y.BeaconRxDBm}, {x.TxPowerDBm, y.TxPowerDBm},
		} {
			if !same(p[0], p[1]) {
				return false
			}
		}
	}
	return true
}

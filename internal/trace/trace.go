// Package trace records per-node AEDB forwarding decisions into a
// compact, versioned, checksummed binary file — the observability
// substrate behind `aedb-sim -trace` and the `aedb-trace` CLI.
//
// A trace is one recorded simulation run: a header that identifies the
// scenario precisely enough to rebuild it (node count, seed, source, the
// five protocol parameters) plus the baseline metric
// outcome, followed by the stream of manet.Decision values the protocol
// emitted through Config.OnDecision. The file format mirrors the
// strictness of internal/study's checkpoint Load: a magic string, a
// version number, a trailing SHA-256 over everything before it, and a
// decoder that refuses short files, bad magic, unknown versions,
// checksum mismatches (truncation or corruption) and trailing bytes.
//
// Integers are varint-encoded; floats are stored as their exact IEEE 754
// bits, so a decoded trace is bit-identical to the recorded one
// (including NaN payloads in not-applicable fields).
package trace

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"os"

	"aedbmls/internal/aedb"
	"aedbmls/internal/manet"
)

// magic opens every trace file; the trailing 01 is the format family,
// not the version (which follows as a varint and is checked separately).
const magic = "AEDBTR01"

// Version is the trace schema version written by Encode; bump it when
// the layout changes incompatibly.
const Version = 1

// Summary is the metric outcome of the recorded run, embedded in the
// header so counterfactual comparisons need no side files. Fields mirror
// eval.Metrics in declaration order.
type Summary struct {
	EnergyDBmSum  float64
	Coverage      float64
	Forwardings   float64
	BroadcastTime float64
	EnergyMJ      float64
	Collisions    float64
}

// Header identifies the recorded scenario precisely enough for
// counterfactual replay to rebuild it: manet.DefaultScenario(NumNodes),
// warmed under Seed, broadcast from Source.
type Header struct {
	Protocol string
	Density  int
	NumNodes int
	Seed     uint64
	Source   int
	Params   [aedb.NumParams]float64
	Baseline Summary
}

// Trace is one recorded run: scenario identity plus the decision stream.
type Trace struct {
	Header
	Decisions []manet.Decision
}

// Collector accumulates decisions; wire it with
// cfg.OnDecision = collector.Record.
type Collector struct {
	Decisions []manet.Decision
}

// Record implements the manet.Config.OnDecision hook shape.
func (c *Collector) Record(d manet.Decision) { c.Decisions = append(c.Decisions, d) }

// Encode serializes the trace: magic, varint/float64-bits payload,
// trailing SHA-256 checksum.
func (t *Trace) Encode() []byte {
	var b bytes.Buffer
	b.WriteString(magic)
	putUvarint(&b, Version)
	putUvarint(&b, uint64(len(t.Protocol)))
	b.WriteString(t.Protocol)
	putVarint(&b, int64(t.Density))
	putUvarint(&b, uint64(t.NumNodes))
	putUvarint(&b, t.Seed)
	putVarint(&b, int64(t.Source))
	b.WriteByte(0) // reserved (see Decode)
	for _, v := range t.Params {
		putF64(&b, v)
	}
	putF64(&b, t.Baseline.EnergyDBmSum)
	putF64(&b, t.Baseline.Coverage)
	putF64(&b, t.Baseline.Forwardings)
	putF64(&b, t.Baseline.BroadcastTime)
	putF64(&b, t.Baseline.EnergyMJ)
	putF64(&b, t.Baseline.Collisions)
	putUvarint(&b, uint64(len(t.Decisions)))
	for i := range t.Decisions {
		d := &t.Decisions[i]
		b.WriteByte(byte(d.Kind))
		b.WriteByte(d.Regime)
		putVarint(&b, int64(d.Node))
		putVarint(&b, int64(d.From))
		putVarint(&b, int64(d.MsgID))
		putVarint(&b, int64(d.Potential))
		putF64(&b, d.Time)
		putF64(&b, d.RxPowerDBm)
		putF64(&b, d.PBestDBm)
		putF64(&b, d.BorderDBm)
		putF64(&b, d.DelayLo)
		putF64(&b, d.DelayHi)
		putF64(&b, d.Delay)
		putF64(&b, d.NeighborsThreshold)
		putF64(&b, d.BeaconRxDBm)
		putF64(&b, d.TxPowerDBm)
	}
	sum := sha256.Sum256(b.Bytes())
	b.Write(sum[:])
	return b.Bytes()
}

// Decode parses an encoded trace, refusing anything structurally off:
// short files, bad magic, checksum mismatches (which is how truncation
// and bit corruption surface), unknown versions, and trailing data.
func Decode(data []byte) (*Trace, error) {
	if len(data) < len(magic)+sha256.Size {
		return nil, fmt.Errorf("trace: file too short (%d bytes) to be a trace", len(data))
	}
	payload, sum := data[:len(data)-sha256.Size], data[len(data)-sha256.Size:]
	if string(payload[:len(magic)]) != magic {
		return nil, fmt.Errorf("trace: bad magic %q (not a trace file)", payload[:len(magic)])
	}
	if want := sha256.Sum256(payload); !bytes.Equal(sum, want[:]) {
		return nil, fmt.Errorf("trace: checksum mismatch (file truncated or corrupt)")
	}
	r := &reader{data: payload, off: len(magic)}
	if v := r.uvarint(); v != Version {
		if r.err != nil {
			return nil, r.err
		}
		return nil, fmt.Errorf("trace: unsupported version %d (this build reads %d)", v, Version)
	}
	t := &Trace{}
	t.Protocol = r.str()
	t.Density = int(r.varint())
	t.NumNodes = int(r.uvarint())
	t.Seed = r.uvarint()
	t.Source = int(r.varint())
	// The byte after Source once selected the physics arm; it is reserved
	// and written as 0. A 1 marks a trace recorded under the reference
	// path-loss formula, which replay no longer offers.
	switch reserved := r.byte(); reserved {
	case 0:
	case 1:
		return nil, fmt.Errorf("trace: recorded under the removed exact-physics arm; replay runs only the fused path-loss kernel")
	default:
		return nil, fmt.Errorf("trace: reserved header byte is %d, want 0", reserved)
	}
	for i := range t.Params {
		t.Params[i] = r.f64()
	}
	t.Baseline.EnergyDBmSum = r.f64()
	t.Baseline.Coverage = r.f64()
	t.Baseline.Forwardings = r.f64()
	t.Baseline.BroadcastTime = r.f64()
	t.Baseline.EnergyMJ = r.f64()
	t.Baseline.Collisions = r.f64()
	n := r.uvarint()
	if r.err != nil {
		return nil, r.err
	}
	const recordMin = 2 + 4 + 10*8 // kind+regime, four 1-byte-minimum varints, ten floats
	if n > uint64(len(payload)-r.off)/recordMin {
		return nil, fmt.Errorf("trace: decision count %d exceeds remaining payload", n)
	}
	t.Decisions = make([]manet.Decision, n)
	for i := range t.Decisions {
		d := &t.Decisions[i]
		d.Kind = manet.DecisionKind(r.byte())
		d.Regime = r.byte()
		d.Node = int32(r.varint())
		d.From = int32(r.varint())
		d.MsgID = int32(r.varint())
		d.Potential = int32(r.varint())
		d.Time = r.f64()
		d.RxPowerDBm = r.f64()
		d.PBestDBm = r.f64()
		d.BorderDBm = r.f64()
		d.DelayLo = r.f64()
		d.DelayHi = r.f64()
		d.Delay = r.f64()
		d.NeighborsThreshold = r.f64()
		d.BeaconRxDBm = r.f64()
		d.TxPowerDBm = r.f64()
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.off != len(payload) {
		return nil, fmt.Errorf("trace: %d bytes of trailing data after the decision stream", len(payload)-r.off)
	}
	return t, nil
}

// WriteFile encodes and writes the trace.
func (t *Trace) WriteFile(path string) error {
	return os.WriteFile(path, t.Encode(), 0o644)
}

// ReadFile loads and strictly decodes a trace file.
func ReadFile(path string) (*Trace, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Decode(data)
}

func putUvarint(b *bytes.Buffer, v uint64) {
	var buf [binary.MaxVarintLen64]byte
	b.Write(buf[:binary.PutUvarint(buf[:], v)])
}

func putVarint(b *bytes.Buffer, v int64) {
	var buf [binary.MaxVarintLen64]byte
	b.Write(buf[:binary.PutVarint(buf[:], v)])
}

func putF64(b *bytes.Buffer, v float64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
	b.Write(buf[:])
}

// reader is a bounds-checked sequential decoder; the first failure
// sticks in err and every later read returns zero.
type reader struct {
	data []byte
	off  int
	err  error
}

func (r *reader) fail() {
	if r.err == nil {
		r.err = fmt.Errorf("trace: truncated or malformed payload at offset %d", r.off)
	}
}

func (r *reader) byte() byte {
	if r.err != nil || r.off >= len(r.data) {
		r.fail()
		return 0
	}
	v := r.data[r.off]
	r.off++
	return v
}

func (r *reader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.data[r.off:])
	if n <= 0 {
		r.fail()
		return 0
	}
	r.off += n
	return v
}

func (r *reader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.data[r.off:])
	if n <= 0 {
		r.fail()
		return 0
	}
	r.off += n
	return v
}

func (r *reader) f64() float64 {
	if r.err != nil || r.off+8 > len(r.data) {
		r.fail()
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.data[r.off:]))
	r.off += 8
	return v
}

func (r *reader) str() string {
	n := r.uvarint()
	if r.err != nil {
		return ""
	}
	if n > uint64(len(r.data)-r.off) {
		r.fail()
		return ""
	}
	s := string(r.data[r.off : r.off+int(n)])
	r.off += int(n)
	return s
}

package trace

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"math"
	"path/filepath"
	"strings"
	"testing"

	"aedbmls/internal/manet"
)

// sample builds a trace exercising every field class: negative ints,
// NaN floats, an empty regime, a non-trivial decision mix.
func sample() *Trace {
	return &Trace{
		Header: Header{
			Protocol: "aedb",
			Density:  100,
			NumNodes: 25,
			Seed:     7,
			Source:   0,
			Params:   [5]float64{0.1, 0.5, -80, 1, 10},
			Baseline: Summary{
				EnergyDBmSum: 123.456, Coverage: 24, Forwardings: 9,
				BroadcastTime: 0.8125, EnergyMJ: 0.0042, Collisions: 3,
			},
		},
		Decisions: []manet.Decision{
			{
				Kind: manet.DecisionOriginate, Node: 0, From: -1, MsgID: 0,
				Time: 30, RxPowerDBm: math.NaN(), PBestDBm: math.NaN(),
				BorderDBm: -80, BeaconRxDBm: math.NaN(), TxPowerDBm: 16.02,
			},
			{
				Kind: manet.DecisionArm, Node: 3, From: 0, MsgID: 0,
				Time: 30.001, RxPowerDBm: -85.5, PBestDBm: -85.5, BorderDBm: -80,
				DelayLo: 0.1, DelayHi: 0.5, Delay: 0.237, BeaconRxDBm: math.NaN(),
			},
			{
				Kind: manet.DecisionForward, Regime: manet.RegimeDense, Node: 3,
				From: -1, MsgID: 0, Potential: 12, Time: 30.238,
				RxPowerDBm: math.NaN(), PBestDBm: -85.5, BorderDBm: -80,
				NeighborsThreshold: 10, BeaconRxDBm: -81.25, TxPowerDBm: 14.7,
			},
		},
	}
}

// TestRoundTrip checks bit-exact encode/decode: re-encoding the decoded
// trace must reproduce the original bytes (byte comparison sidesteps
// NaN != NaN in struct equality while still proving every field,
// including NaN payloads, survived).
func TestRoundTrip(t *testing.T) {
	orig := sample()
	enc := orig.Encode()
	dec, err := Decode(enc)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !bytes.Equal(dec.Encode(), enc) {
		t.Fatal("decode -> encode does not reproduce the original bytes")
	}
	if dec.Header != orig.Header {
		t.Fatalf("header mismatch:\n got %+v\nwant %+v", dec.Header, orig.Header)
	}
	if len(dec.Decisions) != len(orig.Decisions) {
		t.Fatalf("got %d decisions, want %d", len(dec.Decisions), len(orig.Decisions))
	}
	if d := dec.Decisions[2]; d.Kind != manet.DecisionForward || d.Regime != manet.RegimeDense ||
		d.Potential != 12 || d.TxPowerDBm != 14.7 {
		t.Fatalf("decision 2 corrupted: %+v", d)
	}
	if !math.IsNaN(dec.Decisions[0].RxPowerDBm) {
		t.Fatal("NaN field did not survive the round trip")
	}
}

// TestRoundTripEmpty checks a decision-free trace (e.g. a flooding run,
// which emits no AEDB decisions) round-trips.
func TestRoundTripEmpty(t *testing.T) {
	tr := &Trace{Header: sample().Header}
	dec, err := Decode(tr.Encode())
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if len(dec.Decisions) != 0 || dec.Header != tr.Header {
		t.Fatalf("empty trace corrupted: %+v", dec)
	}
}

// TestDecodeRefusesTruncation sweeps every prefix length: all must be
// refused (the checksum covers the whole payload).
func TestDecodeRefusesTruncation(t *testing.T) {
	enc := sample().Encode()
	for cut := 0; cut < len(enc); cut++ {
		if _, err := Decode(enc[:cut]); err == nil {
			t.Fatalf("truncation to %d/%d bytes was accepted", cut, len(enc))
		}
	}
}

// TestDecodeRefusesCorruption flips one bit at several offsets spanning
// magic, header, records and checksum.
func TestDecodeRefusesCorruption(t *testing.T) {
	enc := sample().Encode()
	for _, off := range []int{0, len(magic), len(magic) + 3, len(enc) / 2, len(enc) - 1} {
		bad := append([]byte(nil), enc...)
		bad[off] ^= 0x40
		if _, err := Decode(bad); err == nil {
			t.Fatalf("bit flip at offset %d was accepted", off)
		}
	}
}

// TestDecodeRefusesTrailingData mirrors study.Load's strictness: extra
// bytes after a valid file are an error, not ignored.
func TestDecodeRefusesTrailingData(t *testing.T) {
	enc := append(sample().Encode(), 0xFF)
	if _, err := Decode(enc); err == nil {
		t.Fatal("trailing byte was accepted")
	}
}

// TestDecodeRefusesFutureVersion crafts a structurally valid file with a
// bumped version varint and a recomputed checksum: the decoder must
// refuse it by version, not by checksum.
func TestDecodeRefusesFutureVersion(t *testing.T) {
	enc := sample().Encode()
	payload := append([]byte(nil), enc[:len(enc)-sha256.Size]...)
	// Version is the single-byte uvarint right after the magic.
	if v, n := binary.Uvarint(payload[len(magic):]); v != Version || n != 1 {
		t.Fatalf("test layout assumption broken: version varint = (%d, %d)", v, n)
	}
	payload[len(magic)] = Version + 1
	sum := sha256.Sum256(payload)
	if _, err := Decode(append(payload, sum[:]...)); err == nil ||
		!strings.Contains(err.Error(), "version") {
		t.Fatalf("future version accepted or misreported: %v", err)
	}
}

// TestDecodeRefusesReservedHeaderByte crafts files whose reserved header
// byte (the former physics arm) is non-zero, under a recomputed checksum:
// a 1 is refused by naming the removed exact-physics arm, any other
// value as a malformed header.
func TestDecodeRefusesReservedHeaderByte(t *testing.T) {
	tr := sample()
	var prefix bytes.Buffer
	prefix.WriteString(magic)
	putUvarint(&prefix, Version)
	putUvarint(&prefix, uint64(len(tr.Protocol)))
	prefix.WriteString(tr.Protocol)
	putVarint(&prefix, int64(tr.Density))
	putUvarint(&prefix, uint64(tr.NumNodes))
	putUvarint(&prefix, tr.Seed)
	putVarint(&prefix, int64(tr.Source))
	enc := tr.Encode()
	off := prefix.Len()
	if !bytes.HasPrefix(enc, prefix.Bytes()) || enc[off] != 0 {
		t.Fatalf("test layout assumption broken: reserved byte %d at offset %d", enc[off], off)
	}
	for v, want := range map[byte]string{1: "exact-physics", 2: "reserved"} {
		payload := append([]byte(nil), enc[:len(enc)-sha256.Size]...)
		payload[off] = v
		sum := sha256.Sum256(payload)
		if _, err := Decode(append(payload, sum[:]...)); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("reserved byte %d: accepted or misreported: %v", v, err)
		}
	}
}

// TestReadFileMissing keeps the file-level error path honest.
func TestReadFileMissing(t *testing.T) {
	if _, err := ReadFile(filepath.Join(t.TempDir(), "absent.trc")); err == nil {
		t.Fatal("missing file was accepted")
	}
}

// TestWriteReadFile round-trips through the filesystem.
func TestWriteReadFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.trc")
	orig := sample()
	if err := orig.WriteFile(path); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	dec, err := ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if !bytes.Equal(dec.Encode(), orig.Encode()) {
		t.Fatal("file round trip is not bit-identical")
	}
}

// TestCollectorRecords checks the hook shape appends in order.
func TestCollectorRecords(t *testing.T) {
	var c Collector
	c.Record(manet.Decision{Kind: manet.DecisionOriginate, Node: 0})
	c.Record(manet.Decision{Kind: manet.DecisionArm, Node: 5})
	if len(c.Decisions) != 2 || c.Decisions[1].Node != 5 {
		t.Fatalf("collector state: %+v", c.Decisions)
	}
}

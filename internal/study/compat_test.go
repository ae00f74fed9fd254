package study

import (
	"flag"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the committed testdata: the schema-compat checkpoint and the checkpoint-stream golden")

// compatCheckpoint is the reference state for the schema-compatibility
// test: every field of the version-1 checkpoint layout populated with
// fixed values, including hex-float edge cases (denormal, negative zero,
// infinities) that must survive the file round-trip bit for bit. NaN is
// deliberately absent — reflect.DeepEqual cannot compare it; the fuzz test
// covers NaN decoding.
func compatCheckpoint() *Checkpoint {
	sol := func(base float64) Solution {
		return Solution{
			X:         []F64{F64(base), F64(base / 3), F64(-base)},
			F:         []F64{F64(base * base), F64(1 / (base + 1))},
			Violation: F64(base / 7),
			Metrics: []F64{F64(base + 1), F64(base + 2), F64(base + 3),
				F64(base + 4), F64(base + 5), F64(base + 6)},
		}
	}
	edge := Solution{
		X: []F64{F64(math.SmallestNonzeroFloat64), F64(math.Copysign(0, -1)), F64(math.MaxFloat64)},
		F: []F64{F64(math.Inf(1)), F64(math.Inf(-1))},
	}
	return &Checkpoint{
		Algorithm:   "compat-test",
		Fingerprint: Fingerprint("compat-v1", "problem=reference"),
		Evaluations: 1234,
		Iteration:   56,
		Counters:    map[string]int64{"accepted": 78, "resets": 9},
		RNG:         RNGState{1, 2, 3, math.MaxUint64},
		ExtraRNGs:   []RNGState{{5, 6, 7, 8}},
		Archive: &ArchiveState{
			Kind:      "crowding",
			Capacity:  100,
			Divisions: 8,
			Solutions: []Solution{sol(0.25), sol(0.75), edge},
		},
		Population: []Solution{sol(0.5)},
		Elite:      []Solution{sol(0.125)},
		Grid:       []Solution{sol(0.625)},
		Workers: []WorkerState{
			{RNG: RNGState{9, 10, 11, 12}, Current: sol(0.375), Spent: 13, Iter: 14},
			{RNG: RNGState{15, 16, 17, 18}, Current: Solution{X: []F64{}, F: []F64{}}, Spent: 0, Iter: 0},
		},
	}
}

// TestSchemaCompat pins the on-disk checkpoint format: the committed
// testdata file was written by an earlier build, and this build must still
// load it to the exact same in-memory state. Any accidental change to the
// JSON layout, the F64 spelling, or the checksum canonicalization fails
// here (Load recomputes the checksum with the *current* marshaller, so a
// drifted encoder no longer matches the stored digest). After an
// intentional schema bump, regenerate with:
//
//	go test ./internal/study -run TestSchemaCompat -update
func TestSchemaCompat(t *testing.T) {
	path := filepath.Join("testdata", "schema-v1.ckpt")
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := Save(path, compatCheckpoint()); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
	}

	got, err := Load(path)
	if err != nil {
		t.Fatalf("this build no longer reads the committed schema-v%d checkpoint: %v\n(if the format changed intentionally, bump Schema and regenerate with -update)", Schema, err)
	}
	want := compatCheckpoint()
	want.Schema = Schema
	if want.Checksum, err = checksum(want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("committed checkpoint decoded to a different state than this build produces:\ngot  %+v\nwant %+v", got, want)
	}
}

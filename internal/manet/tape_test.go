package manet

import (
	"testing"
	"unsafe"
)

// TestTapeBytes pins the packed tape layout on the 75-node parent the
// scenario store records and the two children it masks: a tape retains
// 12 bytes per upsert plus its beacon table and row offsets, each mask
// shares its parent's beacon table, and the recorded upsert counts match
// the ones the unpacked layout recorded.
func TestTapeBytes(t *testing.T) {
	const slack = 4 << 10 // struct headers and the stripped schedule
	wantUpserts := map[uint64]int{1: 10803, 2: 10392, 3: 13090}
	for seed := uint64(1); seed <= 3; seed++ {
		cfg := DefaultScenario(75)
		snap, err := BuildSnapshot(cfg, seed, cfg.WarmupTime)
		if err != nil {
			t.Fatal(err)
		}
		parent, err := snap.RecordBeaconTape(cfg.EndTime)
		if err != nil {
			t.Fatal(err)
		}
		if got := parent.Upserts(); got != wantUpserts[seed] {
			t.Errorf("seed %d: %d upserts, want %d", seed, got, wantUpserts[seed])
		}
		beacons := len(parent.beacons)
		check := func(label string, tp *BeaconTape, beaconBytes int) {
			limit := 12*tp.Upserts() + beaconBytes + 4*(tp.NumNodes()+1) + slack
			if b := tp.Bytes(); b > limit {
				t.Errorf("seed %d %s: %d bytes for %d upserts, want <= %d", seed, label, b, tp.Upserts(), limit)
			}
		}
		check("parent", parent, 16*beacons)
		total := parent.Bytes()
		for _, k := range []int{25, 50} {
			m, err := parent.Mask(k)
			if err != nil {
				t.Fatal(err)
			}
			if unsafe.SliceData(m.beacons) != unsafe.SliceData(parent.beacons) {
				t.Errorf("seed %d mask %d: beacon table is a copy, want the parent's", seed, k)
			}
			check("mask", m, 0)
			total += m.Bytes()
			ms, err := snap.Mask(k)
			if err != nil {
				t.Fatal(err)
			}
			if ms.Bytes() >= snap.Bytes() {
				t.Errorf("seed %d mask %d: snapshot %d bytes, parent %d", seed, k, ms.Bytes(), snap.Bytes())
			}
		}
		t.Logf("seed %d: tapes %d B (%d upserts, %d beacons), parent snapshot %d B", seed, total, parent.Upserts(), beacons, snap.Bytes())
	}
}

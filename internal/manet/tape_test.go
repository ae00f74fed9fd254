package manet

import (
	"runtime"
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

// TestSnapshotBytes pins the packed snapshot layout on the 75-node parent
// the scenario store builds and the two children it masks: the parent's
// neighbor tables retain 12 bytes per row plus their beacon table and row
// offsets, its receiver lists are exactly sized, and each mask shares the
// parent's beacon table, network RNG, mobility models and RNG streams and
// holds its own rows in exactly sized columns.
func TestSnapshotBytes(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		cfg := DefaultScenario(75)
		snap, err := BuildSnapshot(cfg, seed, cfg.WarmupTime)
		if err != nil {
			t.Fatal(err)
		}
		p := &snap.nbrs
		rows := len(p.rx)
		limit := 12*rows + int(unsafe.Sizeof(rowBeacon{}))*len(p.beacons) + 4*(snap.NumNodes()+1)
		if b := p.bytes(); b > limit {
			t.Errorf("seed %d: neighbor tables hold %d bytes for %d rows, want <= %d", seed, b, rows, limit)
		}
		exactLen := func(label string, l, c int) {
			if l != c {
				t.Errorf("seed %d %s: len %d, cap %d", seed, label, l, c)
			}
		}
		exactLen("receiver ids", len(snap.rx.ids), cap(snap.rx.ids))
		exactLen("receiver dists", len(snap.rx.dist), cap(snap.rx.dist))
		total := snap.Bytes()
		for _, k := range []int{25, 50} {
			m, err := snap.Mask(k)
			if err != nil {
				t.Fatal(err)
			}
			if unsafe.SliceData(m.nbrs.beacons) != unsafe.SliceData(p.beacons) {
				t.Errorf("seed %d mask %d: beacon table is a copy, want the parent's", seed, k)
			}
			if m.netRng != snap.netRng {
				t.Errorf("seed %d mask %d: network RNG is a copy, want the parent's", seed, k)
			}
			for i := range m.nodes {
				if m.nodes[i].mob != snap.nodes[i].mob || m.nodes[i].rng != snap.nodes[i].rng {
					t.Fatalf("seed %d mask %d node %d: mobility model or RNG stream is a copy, want the parent's", seed, k, i)
				}
			}
			exactLen("masked offsets", len(m.nbrs.start), cap(m.nbrs.start))
			exactLen("masked powers", len(m.nbrs.rx), cap(m.nbrs.rx))
			exactLen("masked beacon indices", len(m.nbrs.beacon), cap(m.nbrs.beacon))
			exactLen("masked events", len(m.events), cap(m.events))
			total += m.Bytes()
		}
		t.Logf("seed %d: parent %d B (%d rows, %d beacons, %d receiver-list entries), with masks %d B",
			seed, snap.Bytes(), rows, len(p.beacons), len(snap.rx.ids), total)
	}
}

// TestRecordTapeAllocs pins the recorder's allocations: recording a
// default 75-node tape allocates each raw row once (fixed-size chunks,
// no append regrowth), so the whole recording, network instantiation and
// packing included, stays under one copy of the raw rows plus twice the
// packed tape.
func TestRecordTapeAllocs(t *testing.T) {
	cfg := DefaultScenario(75)
	snap, err := BuildSnapshot(cfg, 1, cfg.WarmupTime)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tp, err := snap.RecordBeaconTape(cfg.EndTime)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	alloc := after.TotalAlloc - before.TotalAlloc
	limit := uint64(tp.Upserts())*uint64(unsafe.Sizeof(tapeRow{})) + 2*uint64(tp.Bytes())
	if alloc > limit {
		t.Errorf("recording allocated %d bytes, want <= %d (%d upserts, packed %d bytes)", alloc, limit, tp.Upserts(), tp.Bytes())
	}
	t.Logf("recording allocated %d bytes (limit %d)", alloc, limit)
}

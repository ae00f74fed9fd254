// Packed neighbor rows: the read-only layout beacon tapes and snapshots
// store neighbor-table rows in.
package manet

import (
	"fmt"
	"iter"
	"math"
	"slices"
	"unsafe"
)

// packedRows holds read-only per-receiver neighbor-table rows. Receiver
// i's rows are [start[i], start[i+1]) of the two parallel columns: the
// received power in dBm (rx) and the index of the beacon the row came
// from (beacon), 12 bytes a row. A row's sender and timestamp are its
// beacon's: beacons holds each distinct beacon the rows reference. Rows
// masked from a larger table keep their parent's beacon indices and share
// its beacon table (shared).
//
// A table's rows are all of one kind, set by the beacon medium: powers
// converted from the sender's distance (fast beacons, the default) or,
// when measured is set, powers measured on received frames (frame-level
// beacons), which Node.Neighbors does not hold to the sensitivity.
type packedRows struct {
	beacons  []rowBeacon
	shared   bool // beacons belongs to the rows these were masked from
	measured bool
	start    []int32
	rx       []float64
	beacon   []uint32
}

// rowBeacon is one beacon that rows reference: when it was heard and who
// sent it.
type rowBeacon struct {
	t    float64
	from int32
}

// bytes returns the memory the rows retain beyond their header, counted
// by slice capacity. A shared beacon table counts only where it is owned.
func (p *packedRows) bytes() int {
	b := cap(p.start)*4 + cap(p.rx)*8 + cap(p.beacon)*4
	if !p.shared {
		b += cap(p.beacons) * int(unsafe.Sizeof(rowBeacon{}))
	}
	return b
}

// rec decodes a converted row of beacon b with power rx into the table
// row it stores. The squared distance is not kept: Node.Neighbors reads
// it only for unconverted rows. The flags are constants, which keeps the
// decode a few stores (tape replay decodes every upsert it applies).
func (b *rowBeacon) rec(rx float64) nbrRec {
	return nbrRec{id: b.from, rx: rx, rxValid: true, lastHeard: b.t}
}

// appendTable appends receiver i's rows to dst, decoded, in table order.
func (p *packedRows) appendTable(dst []nbrRec, i int) []nbrRec {
	lo, hi := p.start[i], p.start[i+1]
	rx, beacon := p.rx[lo:hi], p.beacon[lo:hi]
	n := len(dst)
	dst = slices.Grow(dst, len(rx))[:n+len(rx)]
	out := dst[n:]
	rx, beacon = rx[:len(out)], beacon[:len(out)]
	beacons := p.beacons
	for j := range out {
		out[j] = beacons[beacon[j]].rec(rx[j])
	}
	if p.measured {
		for j := range out {
			out[j].hasRx, out[j].rxValid = true, false
		}
	}
	return dst
}

// tableLen returns the number of rows receiver i holds.
func (p *packedRows) tableLen(i int) int { return int(p.start[i+1] - p.start[i]) }

// mask returns the rows of the k-node sub-network of nodes [0, k):
// receivers [0, k), each keeping, in order, its rows whose sender is
// below k. The result shares p's beacon table and holds its own rows in
// columns of exactly their size.
func (p *packedRows) mask(k int) packedRows {
	m := packedRows{beacons: p.beacons, shared: true, measured: p.measured, start: make([]int32, k+1)}
	// Receivers [0, k) own rows [0, start[k]): count the survivors per
	// receiver, then copy them in one pass.
	kept := func(r int32) bool { return int(p.beacons[p.beacon[r]].from) < k }
	for i := range k {
		m.start[i+1] = m.start[i]
		for r := p.start[i]; r < p.start[i+1]; r++ {
			if kept(r) {
				m.start[i+1]++
			}
		}
	}
	m.rx = make([]float64, m.start[k])
	m.beacon = make([]uint32, m.start[k])
	w := 0
	for r := int32(0); r < p.start[k]; r++ {
		if kept(r) {
			m.rx[w], m.beacon[w] = p.rx[r], p.beacon[r]
			w++
		}
	}
	return m
}

// packTables packs live neighbor tables in table order. convert returns
// a row's power in dBm, performing any deferred conversion. It fails when
// the tables mix measured and converted rows, which no beacon medium
// produces.
func packTables(nodes []*Node, convert func(*nbrRec) float64) (packedRows, error) {
	total := 0
	for _, n := range nodes {
		total += len(n.neighbors)
	}
	p := packedRows{
		start:  make([]int32, len(nodes)+1),
		rx:     make([]float64, 0, total),
		beacon: make([]uint32, 0, total),
	}
	type key struct {
		t    uint64
		from int32
	}
	index := make(map[key]uint32)
	for i, n := range nodes {
		for j := range n.neighbors {
			e := &n.neighbors[j]
			if len(p.rx) == 0 {
				p.measured = e.hasRx
			} else if e.hasRx != p.measured {
				return packedRows{}, fmt.Errorf("manet: cannot snapshot neighbor tables mixing measured and converted rows")
			}
			k := key{math.Float64bits(e.lastHeard), e.id}
			b, ok := index[k]
			if !ok {
				b = uint32(len(p.beacons))
				index[k] = b
				p.beacons = append(p.beacons, rowBeacon{t: e.lastHeard, from: e.id})
			}
			p.rx = append(p.rx, convert(e))
			p.beacon = append(p.beacon, b)
		}
		p.start[i+1] = int32(len(p.rx))
	}
	p.beacons = exact(p.beacons)
	return p, nil
}

// exact returns a copy of s whose capacity is its length, so Bytes
// counts no append slack.
func exact[T any](s []T) []T { return append(make([]T, 0, len(s)), s...) }

// chunkLen is the block size of chunks: 1024 tape rows are 16 KB.
const chunkLen = 1024

// chunks is an append-only sequence stored in fixed-size blocks, so a
// recording allocates each element once however long it grows, where one
// growing slice would copy it again at every doubling.
type chunks[T any] struct {
	blocks [][]T
	n      int
}

// add appends v.
func (c *chunks[T]) add(v T) {
	if c.n%chunkLen == 0 {
		c.blocks = append(c.blocks, make([]T, 0, chunkLen))
	}
	last := &c.blocks[len(c.blocks)-1]
	*last = append(*last, v)
	c.n++
}

// all yields the elements in the order they were added.
func (c *chunks[T]) all() iter.Seq[T] {
	return func(yield func(T) bool) {
		for _, b := range c.blocks {
			for _, v := range b {
				if !yield(v) {
					return
				}
			}
		}
	}
}

// flat returns the elements in one slice of exactly their number.
func (c *chunks[T]) flat() []T {
	s := make([]T, 0, c.n)
	for _, b := range c.blocks {
		s = append(s, b...)
	}
	return s
}

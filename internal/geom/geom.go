// Package geom provides the small amount of 2-D geometry the MANET
// substrate needs: vectors, axis-aligned rectangles, and a uniform spatial
// grid for efficient radio range queries.
package geom

import "math"

// Vec2 is a point or displacement in the plane.
type Vec2 struct {
	X, Y float64
}

// Add returns v + w.
func (v Vec2) Add(w Vec2) Vec2 { return Vec2{v.X + w.X, v.Y + w.Y} }

// Sub returns v - w.
func (v Vec2) Sub(w Vec2) Vec2 { return Vec2{v.X - w.X, v.Y - w.Y} }

// Scale returns v scaled by k.
func (v Vec2) Scale(k float64) Vec2 { return Vec2{v.X * k, v.Y * k} }

// Dot returns the dot product of v and w.
func (v Vec2) Dot(w Vec2) float64 { return v.X*w.X + v.Y*w.Y }

// Len returns the Euclidean norm of v.
func (v Vec2) Len() float64 { return math.Hypot(v.X, v.Y) }

// Dist returns the Euclidean distance between v and w.
func (v Vec2) Dist(w Vec2) float64 { return v.Sub(w).Len() }

// Dist2 returns the squared Euclidean distance between v and w.
func (v Vec2) Dist2(w Vec2) float64 {
	d := v.Sub(w)
	return d.Dot(d)
}

// Unit returns the direction vector for angle theta (radians).
func Unit(theta float64) Vec2 { return Vec2{math.Cos(theta), math.Sin(theta)} }

// Rect is an axis-aligned rectangle [MinX,MaxX] x [MinY,MaxY].
type Rect struct {
	MinX, MinY, MaxX, MaxY float64
}

// Square returns a square area of the given side with origin (0,0).
func Square(side float64) Rect { return Rect{0, 0, side, side} }

// Width returns the horizontal extent of r.
func (r Rect) Width() float64 { return r.MaxX - r.MinX }

// Height returns the vertical extent of r.
func (r Rect) Height() float64 { return r.MaxY - r.MinY }

// Contains reports whether p lies inside r (inclusive).
func (r Rect) Contains(p Vec2) bool {
	return p.X >= r.MinX && p.X <= r.MaxX && p.Y >= r.MinY && p.Y <= r.MaxY
}

// Clamp returns p moved to the nearest point inside r.
func (r Rect) Clamp(p Vec2) Vec2 {
	return Vec2{math.Min(math.Max(p.X, r.MinX), r.MaxX),
		math.Min(math.Max(p.Y, r.MinY), r.MaxY)}
}

// Reflect folds point p back into r, mirror-reflecting at the borders, and
// reports which axes were flipped so callers can mirror a velocity vector.
// It handles displacements of arbitrary size.
func (r Rect) Reflect(p Vec2) (Vec2, bool, bool) {
	x, fx := reflect1(p.X, r.MinX, r.MaxX)
	y, fy := reflect1(p.Y, r.MinY, r.MaxY)
	return Vec2{x, y}, fx, fy
}

// reflect1 mirrors coordinate v into [lo, hi], reporting whether an odd
// number of reflections occurred.
func reflect1(v, lo, hi float64) (float64, bool) {
	if hi <= lo {
		return lo, false
	}
	// Fast paths: inside, or one mirror away (the common case for mobility
	// segments much shorter than the arena).
	if v >= lo {
		if v <= hi {
			return v, false
		}
		if m := 2*hi - v; m >= lo {
			return m, true
		}
	} else if m := 2*lo - v; m <= hi {
		return m, true
	}
	span := hi - lo
	// General case: map into a sawtooth of period 2*span.
	t := math.Mod(v-lo, 2*span)
	if t < 0 {
		t += 2 * span
	}
	if t <= span {
		return lo + t, false
	}
	return hi - (t - span), true
}

// FlatGrid is an allocation-free uniform grid over a fixed population of n
// points with IDs 0..n-1, the shape of a MANET node set. It stores cells
// in CSR layout (one flat id array plus per-cell offsets), so a full
// rebuild is a counting sort with zero allocations after the first Build,
// and membership queries never touch a map.
//
// The intended protocol: Build with every point's position at some instant
// t0, then Query with an inflated radius (true radius + how far points may
// have drifted since t0); the caller re-filters candidates against exact
// current positions. This is what lets the broadcast medium answer "who
// can hear this transmission" without an O(n) scan per frame.
type FlatGrid struct {
	bounds   Rect
	cellSize float64
	nx, ny   int
	starts   []int32 // len nx*ny+1; cell c occupies ids[starts[c]:starts[c+1]]
	ids      []int32 // len n, grouped by cell
	cellOf   []int32 // len n, cell index of each id at Build time
	counts   []int32 // scratch for the counting sort
	pos      []Vec2  // positions at Build time, indexed by id
}

// NewFlatGrid creates a grid over bounds for n points. cellSize is
// typically the maximum radio range so a range query touches few cells.
func NewFlatGrid(bounds Rect, cellSize float64, n int) *FlatGrid {
	if cellSize <= 0 {
		panic("geom: NewFlatGrid with non-positive cell size")
	}
	if n < 0 {
		panic("geom: NewFlatGrid with negative point count")
	}
	nx := int(math.Ceil(bounds.Width() / cellSize))
	ny := int(math.Ceil(bounds.Height() / cellSize))
	if nx < 1 {
		nx = 1
	}
	if ny < 1 {
		ny = 1
	}
	return &FlatGrid{
		bounds:   bounds,
		cellSize: cellSize,
		nx:       nx,
		ny:       ny,
		starts:   make([]int32, nx*ny+1),
		ids:      make([]int32, n),
		cellOf:   make([]int32, n),
		counts:   make([]int32, nx*ny),
		pos:      make([]Vec2, n),
	}
}

func (g *FlatGrid) clampCell(p Vec2) (int, int) {
	cx := int((p.X - g.bounds.MinX) / g.cellSize)
	cy := int((p.Y - g.bounds.MinY) / g.cellSize)
	if cx < 0 {
		cx = 0
	} else if cx >= g.nx {
		cx = g.nx - 1
	}
	if cy < 0 {
		cy = 0
	} else if cy >= g.ny {
		cy = g.ny - 1
	}
	return cx, cy
}

// Build (re)indexes all n points from their positions. pos must have
// exactly the length the grid was created for. No allocations occur.
func (g *FlatGrid) Build(pos []Vec2) {
	if len(pos) != len(g.pos) {
		panic("geom: FlatGrid.Build with wrong point count")
	}
	copy(g.pos, pos)
	for i := range g.counts {
		g.counts[i] = 0
	}
	for i, p := range pos {
		cx, cy := g.clampCell(p)
		c := int32(cy*g.nx + cx)
		g.cellOf[i] = c
		g.counts[c]++
	}
	var acc int32
	for c, n := range g.counts {
		g.starts[c] = acc
		acc += n
		g.counts[c] = g.starts[c] // reuse as write cursor
	}
	g.starts[len(g.starts)-1] = acc
	for i := range pos {
		c := g.cellOf[i]
		g.ids[g.counts[c]] = int32(i)
		g.counts[c]++
	}
}

// Query appends to dst the IDs of all points whose Build-time position
// lies within radius of q (excluding exclude; pass a negative exclude to
// keep all) and returns the extended slice. IDs within a cell appear in
// ascending order, but cell visitation order is row-major, so callers
// needing a globally deterministic order should sort the result.
func (g *FlatGrid) Query(dst []int32, q Vec2, radius float64, exclude int) []int32 {
	r2 := radius * radius
	span := int(math.Ceil(radius / g.cellSize))
	cx, cy := g.clampCell(q)
	for dy := -span; dy <= span; dy++ {
		y := cy + dy
		if y < 0 || y >= g.ny {
			continue
		}
		for dx := -span; dx <= span; dx++ {
			x := cx + dx
			if x < 0 || x >= g.nx {
				continue
			}
			c := y*g.nx + x
			for _, id := range g.ids[g.starts[c]:g.starts[c+1]] {
				if int(id) == exclude {
					continue
				}
				if g.pos[id].Dist2(q) <= r2 {
					dst = append(dst, id)
				}
			}
		}
	}
	return dst
}

// Len returns the number of indexed points.
func (g *FlatGrid) Len() int { return len(g.pos) }

// Dims returns the grid dimensions in cells.
func (g *FlatGrid) Dims() (nx, ny int) { return g.nx, g.ny }

// CellSize returns the grid resolution.
func (g *FlatGrid) CellSize() float64 { return g.cellSize }

// Bounds returns the rectangle the grid was built over.
func (g *FlatGrid) Bounds() Rect { return g.bounds }

package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func TestVecOps(t *testing.T) {
	a, b := Vec2{1, 2}, Vec2{3, -1}
	if got := a.Add(b); got != (Vec2{4, 1}) {
		t.Fatalf("Add = %v", got)
	}
	if got := a.Sub(b); got != (Vec2{-2, 3}) {
		t.Fatalf("Sub = %v", got)
	}
	if got := a.Scale(2); got != (Vec2{2, 4}) {
		t.Fatalf("Scale = %v", got)
	}
	if got := a.Dot(b); got != 1 {
		t.Fatalf("Dot = %v", got)
	}
	if got := (Vec2{3, 4}).Len(); got != 5 {
		t.Fatalf("Len = %v", got)
	}
	if got := a.Dist(a); got != 0 {
		t.Fatalf("Dist self = %v", got)
	}
}

func TestDist2MatchesDist(t *testing.T) {
	check := func(ax, ay, bx, by float64) bool {
		if anyBad(ax, ay, bx, by) {
			return true
		}
		a, b := Vec2{ax, ay}, Vec2{bx, by}
		d, d2 := a.Dist(b), a.Dist2(b)
		return math.Abs(d*d-d2) <= 1e-9*(1+d2)
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func anyBad(vs ...float64) bool {
	for _, v := range vs {
		if math.IsNaN(v) || math.Abs(v) > 1e8 {
			return true
		}
	}
	return false
}

func TestUnitLength(t *testing.T) {
	for theta := 0.0; theta < 7; theta += 0.1 {
		if d := math.Abs(Unit(theta).Len() - 1); d > 1e-12 {
			t.Fatalf("Unit(%f) length off by %g", theta, d)
		}
	}
}

func TestRectBasics(t *testing.T) {
	r := Square(100)
	if r.Width() != 100 || r.Height() != 100 {
		t.Fatalf("square dims: %v x %v", r.Width(), r.Height())
	}
	if !r.Contains(Vec2{50, 50}) || r.Contains(Vec2{-1, 50}) || r.Contains(Vec2{50, 101}) {
		t.Fatal("Contains misbehaves")
	}
	if got := r.Clamp(Vec2{-5, 120}); got != (Vec2{0, 100}) {
		t.Fatalf("Clamp = %v", got)
	}
}

func TestReflectStaysInBounds(t *testing.T) {
	r := Rect{10, 20, 110, 90}
	check := func(x, y float64) bool {
		if anyBad(x, y) {
			return true
		}
		p, _, _ := r.Reflect(Vec2{x, y})
		return r.Contains(p)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestReflectIdentityInside(t *testing.T) {
	r := Square(500)
	p, fx, fy := r.Reflect(Vec2{250, 100})
	if p != (Vec2{250, 100}) || fx || fy {
		t.Fatalf("inside point changed: %v %v %v", p, fx, fy)
	}
}

func TestReflectSingleMirror(t *testing.T) {
	r := Square(100)
	p, fx, _ := r.Reflect(Vec2{110, 50})
	if p.X != 90 || !fx {
		t.Fatalf("got %v fx=%v, want x=90 fx=true", p, fx)
	}
	p, fx, _ = r.Reflect(Vec2{-30, 50})
	if p.X != 30 || !fx {
		t.Fatalf("got %v fx=%v, want x=30 fx=true", p, fx)
	}
}

func TestReflectFastSlowAgree(t *testing.T) {
	// The fast single-mirror path must agree with the general sawtooth.
	slow := func(v, lo, hi float64) float64 {
		span := hi - lo
		u := math.Mod(v-lo, 2*span)
		if u < 0 {
			u += 2 * span
		}
		if u <= span {
			return lo + u
		}
		return hi - (u - span)
	}
	check := func(v float64) bool {
		if anyBad(v) {
			return true
		}
		got, _ := reflect1(v, 0, 500)
		want := slow(v, 0, 500)
		return math.Abs(got-want) < 1e-6
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestReflectDegenerateRect(t *testing.T) {
	r := Rect{5, 5, 5, 5}
	p, _, _ := r.Reflect(Vec2{99, -3})
	if p != (Vec2{5, 5}) {
		t.Fatalf("degenerate rect reflect = %v", p)
	}
}

func TestGridPanicsOnBadCellSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewFlatGrid with cell size 0 did not panic")
		}
	}()
	NewFlatGrid(Square(10), 0, 4)
}

func TestFlatGridMatchesBruteForce(t *testing.T) {
	bounds := Square(1000)
	const n = 300
	pts := make([]Vec2, n)
	x := uint32(7)
	next := func() float64 {
		x = x*1664525 + 1013904223
		return float64(x%100000) / 100
	}
	for i := range pts {
		pts[i] = Vec2{X: next(), Y: next()}
	}
	g := NewFlatGrid(bounds, 150, n)
	g.Build(pts)
	for _, q := range []Vec2{{X: 0, Y: 0}, {X: 500, Y: 500}, {X: 999, Y: 1}, {X: 140, Y: 860}} {
		for _, radius := range []float64{10, 150, 400} {
			got := g.Query(nil, q, radius, -1)
			want := map[int32]bool{}
			for i, p := range pts {
				if p.Dist2(q) <= radius*radius {
					want[int32(i)] = true
				}
			}
			if len(got) != len(want) {
				t.Fatalf("q=%v r=%v: %d hits, want %d", q, radius, len(got), len(want))
			}
			for _, id := range got {
				if !want[id] {
					t.Fatalf("q=%v r=%v: spurious id %d", q, radius, id)
				}
			}
		}
	}
}

func TestFlatGridExclude(t *testing.T) {
	g := NewFlatGrid(Square(100), 50, 3)
	g.Build([]Vec2{{X: 10, Y: 10}, {X: 12, Y: 10}, {X: 90, Y: 90}})
	got := g.Query(nil, Vec2{X: 10, Y: 10}, 20, 0)
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("exclude failed: %v", got)
	}
}

func TestFlatGridRebuildReusesStorage(t *testing.T) {
	g := NewFlatGrid(Square(100), 25, 50)
	pts := make([]Vec2, 50)
	for i := range pts {
		pts[i] = Vec2{X: float64(i * 2), Y: float64(i)}
	}
	g.Build(pts)
	allocs := testing.AllocsPerRun(50, func() { g.Build(pts) })
	if allocs > 0 {
		t.Fatalf("rebuild allocates %v per op, want 0", allocs)
	}
}

func TestFlatGridOutOfBoundsClamped(t *testing.T) {
	// Points slightly outside bounds (float drift) land in edge cells and
	// stay queryable.
	g := NewFlatGrid(Square(100), 30, 2)
	g.Build([]Vec2{{X: -3, Y: 50}, {X: 104, Y: 50}})
	if got := g.Query(nil, Vec2{X: 0, Y: 50}, 5, -1); len(got) != 1 || got[0] != 0 {
		t.Fatalf("clamped low point lost: %v", got)
	}
	if got := g.Query(nil, Vec2{X: 100, Y: 50}, 5, -1); len(got) != 1 || got[0] != 1 {
		t.Fatalf("clamped high point lost: %v", got)
	}
}

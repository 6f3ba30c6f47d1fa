package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDist(t *testing.T) {
	tests := []struct {
		name string
		p, q Point
		want float64
	}{
		{"same point", Point{1, 1}, Point{1, 1}, 0},
		{"unit x", Point{0, 0}, Point{1, 0}, 1},
		{"unit y", Point{0, 0}, Point{0, 1}, 1},
		{"3-4-5", Point{0, 0}, Point{3, 4}, 5},
		{"negative coords", Point{-3, -4}, Point{0, 0}, 5},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.p.Dist(tt.q); math.Abs(got-tt.want) > 1e-12 {
				t.Errorf("Dist = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestDistSymmetry(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		p, q := Point{ax, ay}, Point{bx, by}
		return p.Dist(q) == q.Dist(p)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDist2MatchesDistSquared(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 100; i++ {
		p := Point{rng.Float64() * 100, rng.Float64() * 100}
		q := Point{rng.Float64() * 100, rng.Float64() * 100}
		d := p.Dist(q)
		if math.Abs(p.Dist2(q)-d*d) > 1e-6 {
			t.Fatalf("Dist2(%v,%v) = %v, want %v", p, q, p.Dist2(q), d*d)
		}
	}
}

func TestInRange(t *testing.T) {
	p := Point{0, 0}
	if !p.InRange(Point{125, 0}, 125) {
		t.Error("boundary point should be in range (inclusive)")
	}
	if p.InRange(Point{125.01, 0}, 125) {
		t.Error("point beyond range reported in range")
	}
}

func TestUniformPlacementBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pts := UniformPlacement(rng, 500, 500)
	if len(pts) != 500 {
		t.Fatalf("got %d points, want 500", len(pts))
	}
	for _, p := range pts {
		if p.X < 0 || p.X >= 500 || p.Y < 0 || p.Y >= 500 {
			t.Fatalf("point %v outside [0,500)²", p)
		}
	}
}

func TestUniformPlacementDeterministic(t *testing.T) {
	a := UniformPlacement(rand.New(rand.NewSource(9)), 50, 100)
	b := UniformPlacement(rand.New(rand.NewSource(9)), 50, 100)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("placement not deterministic at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestLinePlacement(t *testing.T) {
	pts := LinePlacement(4, 100)
	for i, p := range pts {
		if p.X != float64(i)*100 || p.Y != 0 {
			t.Fatalf("pts[%d] = %v", i, p)
		}
	}
}

func TestCentroid(t *testing.T) {
	pts := []Point{{0, 0}, {2, 0}, {2, 2}, {0, 2}}
	if got := Centroid(pts); got != (Point{1, 1}) {
		t.Fatalf("Centroid = %v, want (1,1)", got)
	}
}

func TestCentroidEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Centroid(nil) did not panic")
		}
	}()
	Centroid(nil)
}

func TestClosest(t *testing.T) {
	pts := []Point{{0, 0}, {10, 10}, {5, 5}}
	if got := Closest(pts, Point{6, 6}); got != 2 {
		t.Fatalf("Closest = %d, want 2", got)
	}
	// Tie broken by lowest index.
	pts = []Point{{1, 0}, {-1, 0}}
	if got := Closest(pts, Point{0, 0}); got != 0 {
		t.Fatalf("Closest tie = %d, want 0", got)
	}
}

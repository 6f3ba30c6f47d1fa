// Package geom provides the 2-D geometry primitives used to place sensor
// nodes and reason about radio range.
package geom

import (
	"fmt"
	"math"
	"math/rand"
)

// Point is a position in the deployment plane, in meters.
type Point struct {
	X, Y float64
}

// String renders the point as "(x, y)" with centimeter precision.
func (p Point) String() string {
	return fmt.Sprintf("(%.2f, %.2f)", p.X, p.Y)
}

// Dist returns the Euclidean distance between p and q in meters.
func (p Point) Dist(q Point) float64 {
	return math.Hypot(p.X-q.X, p.Y-q.Y)
}

// Dist2 returns the squared distance between p and q. It avoids the square
// root when callers only compare against a squared threshold.
func (p Point) Dist2(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return dx*dx + dy*dy
}

// InRange reports whether q lies within radius r of p (inclusive).
func (p Point) InRange(q Point, r float64) bool {
	return p.Dist2(q) <= r*r
}

// UniformPlacement returns n points drawn uniformly at random from the
// side×side square with origin (0,0), using rng for reproducibility.
func UniformPlacement(rng *rand.Rand, n int, side float64) []Point {
	pts := make([]Point, n)
	FillUniform(rng, pts, side)
	return pts
}

// FillUniform overwrites every point of pts with one drawn uniformly at
// random from the side×side square, drawing exactly what
// UniformPlacement draws for len(pts) points.
func FillUniform(rng *rand.Rand, pts []Point, side float64) {
	for i := range pts {
		pts[i] = Point{X: rng.Float64() * side, Y: rng.Float64() * side}
	}
}

// LinePlacement returns n collinear points with the given spacing,
// producing an n-hop chain when spacing is just under the radio range.
func LinePlacement(n int, spacing float64) []Point {
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = Point{X: float64(i) * spacing}
	}
	return pts
}

// Centroid returns the arithmetic mean of pts. It panics on an empty slice.
func Centroid(pts []Point) Point {
	if len(pts) == 0 {
		panic("geom: centroid of empty point set")
	}
	var cx, cy float64
	for _, p := range pts {
		cx += p.X
		cy += p.Y
	}
	n := float64(len(pts))
	return Point{X: cx / n, Y: cy / n}
}

// Closest returns the index of the point in pts nearest to target,
// breaking ties by lowest index. It panics on an empty slice.
func Closest(pts []Point, target Point) int {
	if len(pts) == 0 {
		panic("geom: closest point in empty point set")
	}
	best, bestD := 0, math.Inf(1)
	for i, p := range pts {
		if d := p.Dist2(target); d < bestD {
			best, bestD = i, d
		}
	}
	return best
}

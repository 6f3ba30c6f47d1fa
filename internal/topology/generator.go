package topology

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/essat/essat/internal/geom"
	"github.com/essat/essat/internal/registry"
)

// The listed deployment shapes. Uniform is the paper's §5 setup;
// the others model common real deployments: engineered grids, clustered
// installations around points of interest, and corridor/line networks
// (pipelines, roads, perimeters).
const (
	Uniform  = "uniform"
	Grid     = "grid"
	Clusters = "clusters"
	Corridor = "corridor"
)

// Generator places the nodes of one deployment shape inside the
// cfg.AreaSide square: it overwrites every entry of pts, which holds
// exactly cfg.NumNodes points, with a point in [0, cfg.AreaSide]², with
// shape knobs read strictly from cfg.Params. A generator must be
// deterministic in rng: the same rng state and config always yield the
// same positions.
type Generator func(rng *rand.Rand, cfg Config, pts []geom.Point) error

// generators lists every deployment shape in presentation order.
var generators = registry.Table[string, Generator]{
	{Name: Uniform, Model: uniform},
	{Name: Grid, Model: grid},
	{Name: Clusters, Model: clusters},
	{Name: Corridor, Model: corridor},
}

// LookupGenerator returns the generator listed under name.
func LookupGenerator(name string) (Generator, bool) { return generators.Lookup(name) }

// GeneratorNames lists every generator in presentation order.
func GeneratorNames() []string { return generators.Names() }

// New builds the deployment described by cfg, placing it with the
// generator cfg.Generator names. An empty Generator selects
// uniform-random placement (geom.UniformPlacement), the paper's
// deployment.
func New(rng *rand.Rand, cfg Config) (*Topology, error) {
	pts, err := place(rng, cfg, nil)
	if err != nil {
		return nil, err
	}
	return fromPositions(pts, cfg.Range, cfg.NeighborRange)
}

// Replay draws the placement cfg describes from rng and discards it,
// consuming exactly the random numbers New would. Deployment caches use
// it on a hit: the expensive adjacency build is skipped, but the run
// engine's rng stream stays identical to an uncached build, so cached
// and uncached runs are byte-for-byte the same. The points are drawn
// into scratch, which Replay overwrites; a scratch shorter than
// cfg.NumNodes is replaced by a fresh slice.
func Replay(rng *rand.Rand, cfg Config, scratch []geom.Point) error {
	_, err := place(rng, cfg, scratch)
	return err
}

// place validates cfg and draws its placement from rng into buf, or into
// a fresh slice when buf is too short, and returns the placement.
func place(rng *rand.Rand, cfg Config, buf []geom.Point) ([]geom.Point, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	name := cfg.Generator
	if name == "" {
		name = Uniform
	}
	g, ok := LookupGenerator(name)
	if !ok {
		return nil, fmt.Errorf("topology: unknown generator %q (registered: %v)", name, GeneratorNames())
	}
	pts := buf
	if len(pts) < cfg.NumNodes {
		pts = make([]geom.Point, cfg.NumNodes)
	}
	pts = pts[:cfg.NumNodes]
	return pts, g(rng, cfg, pts)
}

func (c Config) validate() error {
	if c.NumNodes <= 0 {
		return fmt.Errorf("topology: NumNodes must be positive, got %d", c.NumNodes)
	}
	if c.AreaSide <= 0 || c.Range <= 0 {
		return fmt.Errorf("topology: AreaSide and Range must be positive, got %g and %g", c.AreaSide, c.Range)
	}
	return nil
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// uniform draws every position uniformly at random from the square —
// the paper's deployment. No Params.
func uniform(rng *rand.Rand, cfg Config, pts []geom.Point) error {
	p := registry.ReadParams(cfg.Params)
	if err := p.Done(); err != nil {
		return fmt.Errorf("topology/uniform: %w", err)
	}
	geom.FillUniform(rng, pts, cfg.AreaSide)
	return nil
}

// grid places nodes at the cell centers of the near-square grid that
// covers the area, row-major. Params: "jitter" displaces each node
// uniformly by up to ±jitter meters per axis (default 0, a perfect
// engineered grid).
func grid(rng *rand.Rand, cfg Config, pts []geom.Point) error {
	n, side := cfg.NumNodes, cfg.AreaSide
	p := registry.ReadParams(cfg.Params)
	jitter := p.Float("jitter", 0)
	if err := p.Done(); err != nil {
		return fmt.Errorf("topology/grid: %w", err)
	}
	if jitter < 0 {
		return fmt.Errorf("topology: grid jitter must be non-negative, got %g", jitter)
	}
	cols := int(math.Ceil(math.Sqrt(float64(n))))
	rows := (n + cols - 1) / cols
	dx := side / float64(cols)
	dy := side / float64(rows)
	for i := range pts {
		r, c := i/cols, i%cols
		p := geom.Point{X: (float64(c) + 0.5) * dx, Y: (float64(r) + 0.5) * dy}
		if jitter > 0 {
			p.X = clamp(p.X+(2*rng.Float64()-1)*jitter, 0, side)
			p.Y = clamp(p.Y+(2*rng.Float64()-1)*jitter, 0, side)
		}
		pts[i] = p
	}
	return nil
}

// clusters scatters Gaussian clusters around uniformly placed
// centers, round-robin so clusters stay balanced. Params: "clusters"
// (number of clusters, default 4) and "spread" (per-axis standard
// deviation in meters, default AreaSide/8).
func clusters(rng *rand.Rand, cfg Config, pts []geom.Point) error {
	side := cfg.AreaSide
	p := registry.ReadParams(cfg.Params)
	k := int(p.Float("clusters", 4))
	spread := p.Float("spread", side/8)
	if err := p.Done(); err != nil {
		return fmt.Errorf("topology/clusters: %w", err)
	}
	if k <= 0 {
		return fmt.Errorf("topology: clusters must be positive, got %d", k)
	}
	if spread <= 0 {
		return fmt.Errorf("topology: cluster spread must be positive, got %g", spread)
	}
	centers := geom.UniformPlacement(rng, k, side)
	for i := range pts {
		c := centers[i%k]
		pts[i] = geom.Point{
			X: clamp(c.X+rng.NormFloat64()*spread, 0, side),
			Y: clamp(c.Y+rng.NormFloat64()*spread, 0, side),
		}
	}
	return nil
}

// corridor stretches the deployment along a horizontal band through
// the middle of the area (a pipeline, road, or perimeter segment). The
// x axis is stratified — node i lands uniformly inside the i-th of
// NumNodes equal slots — so the chain has no gaps wider than two slots.
// Params: "width" (band height in meters, default AreaSide/5).
func corridor(rng *rand.Rand, cfg Config, pts []geom.Point) error {
	n, side := cfg.NumNodes, cfg.AreaSide
	p := registry.ReadParams(cfg.Params)
	width := p.Float("width", side/5)
	if err := p.Done(); err != nil {
		return fmt.Errorf("topology/corridor: %w", err)
	}
	if width <= 0 || width > side {
		return fmt.Errorf("topology: corridor width must be in (0, AreaSide], got %g", width)
	}
	y0 := (side - width) / 2
	slot := side / float64(n)
	for i := range pts {
		pts[i] = geom.Point{
			X: (float64(i) + rng.Float64()) * slot,
			Y: y0 + rng.Float64()*width,
		}
	}
	return nil
}

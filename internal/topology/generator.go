package topology

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/essat/essat/internal/geom"
	"github.com/essat/essat/internal/registry"
)

// The registered deployment shapes. Uniform is the paper's §5 setup;
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
// cfg.AreaSide square. Implementations must be deterministic in rng:
// the same rng state and config always yield the same positions.
type Generator interface {
	// Name is the registry key ("uniform", "grid", ...).
	Name() string
	// Generate returns exactly cfg.NumNodes points inside
	// [0, cfg.AreaSide]², reading shape knobs from cfg.Params.
	Generate(rng *rand.Rand, cfg Config) ([]geom.Point, error)
}

var generators = registry.New[string, Generator]("topology generator")

// RegisterGenerator adds g under its name. rank orders GeneratorNames()
// for presentation (lower first); ties break by name. It panics on
// duplicates.
func RegisterGenerator(rank int, g Generator) {
	generators.Register(g.Name(), rank, g)
}

// LookupGenerator returns the generator registered under name.
func LookupGenerator(name string) (Generator, bool) { return generators.Lookup(name) }

// GeneratorNames lists every registered generator in presentation order.
func GeneratorNames() []string { return generators.Names() }

// New builds the deployment described by cfg, dispatching on
// cfg.Generator through the registry. An empty Generator selects
// uniform-random placement (geom.UniformPlacement), the paper's
// deployment.
func New(rng *rand.Rand, cfg Config) (*Topology, error) {
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
	pts, err := g.Generate(rng, cfg)
	if err != nil {
		return nil, err
	}
	return fromPositions(pts, cfg.Range, cfg.NeighborRange)
}

// Replay draws the placement cfg describes from rng and discards it,
// consuming exactly the random numbers New would. Deployment caches use
// it on a hit: the expensive adjacency build is skipped, but the run
// engine's rng stream stays identical to an uncached build, so cached
// and uncached runs are byte-for-byte the same.
func Replay(rng *rand.Rand, cfg Config) error {
	if err := cfg.validate(); err != nil {
		return err
	}
	name := cfg.Generator
	if name == "" {
		name = Uniform
	}
	g, ok := LookupGenerator(name)
	if !ok {
		return fmt.Errorf("topology: unknown generator %q (registered: %v)", name, GeneratorNames())
	}
	_, err := g.Generate(rng, cfg)
	return err
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

// Param returns the generator knob under key, or def when absent.
func (c Config) Param(key string, def float64) float64 {
	if v, ok := c.Params[key]; ok {
		return v
	}
	return def
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

func init() {
	RegisterGenerator(10, uniformGen{})
	RegisterGenerator(20, gridGen{})
	RegisterGenerator(30, clustersGen{})
	RegisterGenerator(40, corridorGen{})
}

// uniformGen draws every position uniformly at random from the square —
// the paper's deployment. No Params.
type uniformGen struct{}

func (uniformGen) Name() string { return Uniform }

func (uniformGen) Generate(rng *rand.Rand, cfg Config) ([]geom.Point, error) {
	return geom.UniformPlacement(rng, cfg.NumNodes, cfg.AreaSide), nil
}

// gridGen places nodes at the cell centers of the near-square grid that
// covers the area, row-major. Params: "jitter" displaces each node
// uniformly by up to ±jitter meters per axis (default 0, a perfect
// engineered grid).
type gridGen struct{}

func (gridGen) Name() string { return Grid }

func (gridGen) Generate(rng *rand.Rand, cfg Config) ([]geom.Point, error) {
	n, side := cfg.NumNodes, cfg.AreaSide
	jitter := cfg.Param("jitter", 0)
	if jitter < 0 {
		return nil, fmt.Errorf("topology: grid jitter must be non-negative, got %g", jitter)
	}
	cols := int(math.Ceil(math.Sqrt(float64(n))))
	rows := (n + cols - 1) / cols
	dx := side / float64(cols)
	dy := side / float64(rows)
	pts := make([]geom.Point, n)
	for i := range pts {
		r, c := i/cols, i%cols
		p := geom.Point{X: (float64(c) + 0.5) * dx, Y: (float64(r) + 0.5) * dy}
		if jitter > 0 {
			p.X = clamp(p.X+(2*rng.Float64()-1)*jitter, 0, side)
			p.Y = clamp(p.Y+(2*rng.Float64()-1)*jitter, 0, side)
		}
		pts[i] = p
	}
	return pts, nil
}

// clustersGen scatters Gaussian clusters around uniformly placed
// centers, round-robin so clusters stay balanced. Params: "clusters"
// (number of clusters, default 4) and "spread" (per-axis standard
// deviation in meters, default AreaSide/8).
type clustersGen struct{}

func (clustersGen) Name() string { return Clusters }

func (clustersGen) Generate(rng *rand.Rand, cfg Config) ([]geom.Point, error) {
	n, side := cfg.NumNodes, cfg.AreaSide
	k := int(cfg.Param("clusters", 4))
	if k <= 0 {
		return nil, fmt.Errorf("topology: clusters must be positive, got %d", k)
	}
	spread := cfg.Param("spread", side/8)
	if spread <= 0 {
		return nil, fmt.Errorf("topology: cluster spread must be positive, got %g", spread)
	}
	centers := geom.UniformPlacement(rng, k, side)
	pts := make([]geom.Point, n)
	for i := range pts {
		c := centers[i%k]
		pts[i] = geom.Point{
			X: clamp(c.X+rng.NormFloat64()*spread, 0, side),
			Y: clamp(c.Y+rng.NormFloat64()*spread, 0, side),
		}
	}
	return pts, nil
}

// corridorGen stretches the deployment along a horizontal band through
// the middle of the area (a pipeline, road, or perimeter segment). The
// x axis is stratified — node i lands uniformly inside the i-th of
// NumNodes equal slots — so the chain has no gaps wider than two slots.
// Params: "width" (band height in meters, default AreaSide/5).
type corridorGen struct{}

func (corridorGen) Name() string { return Corridor }

func (corridorGen) Generate(rng *rand.Rand, cfg Config) ([]geom.Point, error) {
	n, side := cfg.NumNodes, cfg.AreaSide
	width := cfg.Param("width", side/5)
	if width <= 0 || width > side {
		return nil, fmt.Errorf("topology: corridor width must be in (0, AreaSide], got %g", width)
	}
	y0 := (side - width) / 2
	slot := side / float64(n)
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{
			X: (float64(i) + rng.Float64()) * slot,
			Y: y0 + rng.Float64()*width,
		}
	}
	return pts, nil
}

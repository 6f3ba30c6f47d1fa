package topology

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"github.com/essat/essat/internal/geom"
)

func TestGeneratorRegistry(t *testing.T) {
	names := GeneratorNames()
	want := []string{Uniform, Grid, Clusters, Corridor}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("GeneratorNames() = %v, want %v", names, want)
	}
	for _, name := range want {
		if _, ok := LookupGenerator(name); !ok {
			t.Errorf("generator %q not registered", name)
		}
	}
	if _, ok := LookupGenerator("moebius"); ok {
		t.Error("LookupGenerator accepted an unregistered name")
	}
	if _, err := New(rand.New(rand.NewSource(1)), Config{NumNodes: 10, AreaSide: 100, Range: 30, Generator: "moebius"}); err == nil {
		t.Error("New accepted an unregistered generator")
	}
}

// TestGeneratorsRejectUnknownParams: a misspelt knob fails New and
// Replay with an error naming it, rather than running with defaults.
func TestGeneratorsRejectUnknownParams(t *testing.T) {
	for _, name := range GeneratorNames() {
		cfg := Config{NumNodes: 10, AreaSide: 100, Range: 30, Generator: name,
			Params: map[string]float64{"jiter": 5}}
		_, err := New(rand.New(rand.NewSource(1)), cfg)
		if err == nil || !strings.Contains(err.Error(), `"jiter"`) {
			t.Errorf("%s: New with an unknown param: err = %v, want one naming \"jiter\"", name, err)
		}
		if err := Replay(rand.New(rand.NewSource(1)), cfg); err == nil {
			t.Errorf("%s: Replay accepted an unknown param", name)
		}
	}
}

func TestGeneratorsPlaceInBounds(t *testing.T) {
	cfg := Config{NumNodes: 50, AreaSide: 400, Range: 125}
	for _, name := range GeneratorNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			g, _ := LookupGenerator(name)
			pts, err := g(rand.New(rand.NewSource(3)), withGen(cfg, name))
			if err != nil {
				t.Fatal(err)
			}
			if len(pts) != cfg.NumNodes {
				t.Fatalf("placed %d nodes, want %d", len(pts), cfg.NumNodes)
			}
			for i, p := range pts {
				if p.X < 0 || p.X > cfg.AreaSide || p.Y < 0 || p.Y > cfg.AreaSide {
					t.Fatalf("node %d at %v outside the %g m square", i, p, cfg.AreaSide)
				}
			}
		})
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	cfg := Config{NumNodes: 40, AreaSide: 300, Range: 100}
	for _, name := range GeneratorNames() {
		g, _ := LookupGenerator(name)
		a, err := g(rand.New(rand.NewSource(7)), withGen(cfg, name))
		if err != nil {
			t.Fatal(err)
		}
		b, err := g(rand.New(rand.NewSource(7)), withGen(cfg, name))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same rng seed produced different placements", name)
		}
	}
}

// TestNewUniformMatchesPlacement is the byte-identity guard for the
// default path: dispatching an empty Generator through the registry
// must consume the rng exactly as a direct uniform placement does.
func TestNewUniformMatchesPlacement(t *testing.T) {
	cfg := Config{NumNodes: 80, AreaSide: 500, Range: 125}
	a, err := New(rand.New(rand.NewSource(42)), cfg) // empty Generator
	if err != nil {
		t.Fatal(err)
	}
	pts := geom.UniformPlacement(rand.New(rand.NewSource(42)), cfg.NumNodes, cfg.AreaSide)
	b, err := FromPositions(pts, cfg.Range)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("New with empty generator differs from UniformPlacement + FromPositions")
	}
}

func TestGridShape(t *testing.T) {
	g, _ := LookupGenerator(Grid)
	cfg := Config{NumNodes: 9, AreaSide: 300, Range: 150, Generator: Grid}
	pts, err := g(rand.New(rand.NewSource(1)), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 9 nodes in 300 m → 3×3 grid at cell centers 50, 150, 250.
	want := []float64{50, 150, 250}
	for i, p := range pts {
		if p.X != want[i%3] || p.Y != want[i/3] {
			t.Fatalf("node %d at %v, want (%g, %g)", i, p, want[i%3], want[i/3])
		}
	}
	// Negative jitter is rejected.
	cfg.Params = map[string]float64{"jitter": -1}
	if _, err := g(rand.New(rand.NewSource(1)), cfg); err == nil {
		t.Error("grid accepted negative jitter")
	}
}

func TestCorridorShape(t *testing.T) {
	g, _ := LookupGenerator(Corridor)
	cfg := Config{
		NumNodes: 30, AreaSide: 600, Range: 125,
		Generator: Corridor, Params: map[string]float64{"width": 60},
	}
	pts, err := g(rand.New(rand.NewSource(2)), cfg)
	if err != nil {
		t.Fatal(err)
	}
	slot := cfg.AreaSide / float64(cfg.NumNodes)
	for i, p := range pts {
		if p.Y < 270 || p.Y > 330 {
			t.Fatalf("node %d at %v outside the 60 m band around y=300", i, p)
		}
		if p.X < float64(i)*slot || p.X >= float64(i+1)*slot {
			t.Fatalf("node %d at %v outside its x stratum [%g, %g)", i, p, float64(i)*slot, float64(i+1)*slot)
		}
	}
}

func TestClustersShape(t *testing.T) {
	g, _ := LookupGenerator(Clusters)
	cfg := Config{
		NumNodes: 60, AreaSide: 500, Range: 125,
		Generator: Clusters, Params: map[string]float64{"clusters": 2, "spread": 10},
	}
	pts, err := g(rand.New(rand.NewSource(5)), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// With tiny spread, nodes hug their two centers: every node must be
	// near the centroid of its own (round-robin) cluster.
	for parity := 0; parity < 2; parity++ {
		var members []int
		for i := range pts {
			if i%2 == parity {
				members = append(members, i)
			}
		}
		var cx, cy float64
		for _, i := range members {
			cx += pts[i].X
			cy += pts[i].Y
		}
		cx /= float64(len(members))
		cy /= float64(len(members))
		for _, i := range members {
			dx, dy := pts[i].X-cx, pts[i].Y-cy
			if dx*dx+dy*dy > 60*60 {
				t.Fatalf("node %d at %v strays %g+ m from its cluster center (%g, %g)", i, pts[i], 60.0, cx, cy)
			}
		}
	}
}

func withGen(cfg Config, name string) Config {
	cfg.Generator = name
	return cfg
}

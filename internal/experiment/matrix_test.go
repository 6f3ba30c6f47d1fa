package experiment

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"github.com/essat/essat/internal/topology"
)

// TestProtocolTopologyMatrix runs every registered protocol on every
// registered topology generator through a small scenario, twice, and
// checks (a) determinism — the same seed yields an identical Result —
// and (b) basic invariants: duty cycle in (0,1], coverage within the
// tree size, and latency samples whenever the tree has members.
func TestProtocolTopologyMatrix(t *testing.T) {
	shapes := []struct {
		gen    string
		params map[string]float64
	}{
		{topology.Uniform, nil},
		{topology.Grid, map[string]float64{"jitter": 10}},
		{topology.Clusters, map[string]float64{"clusters": 3, "spread": 70}},
		{topology.Corridor, map[string]float64{"width": 80}},
	}
	build := func(p Protocol, gen string, params map[string]float64) Scenario {
		sc := DefaultScenario(p, 7)
		sc.Topology = topology.Config{
			NumNodes: 36, AreaSide: 360, Range: 125,
			Generator: gen, Params: params,
		}
		sc.Duration = 12 * time.Second
		sc.MeasureFrom = 2 * time.Second
		rng := rand.New(rand.NewSource(99))
		sc.Queries = QueryClasses(rng, 1.0, 1, 3*time.Second)
		return sc
	}
	for _, p := range AllProtocols {
		p := p
		for _, shape := range shapes {
			shape := shape
			t.Run(string(p)+"/"+shape.gen, func(t *testing.T) {
				t.Parallel()
				r1, err := Run(build(p, shape.gen, shape.params))
				if err != nil {
					t.Fatal(err)
				}
				r2, err := Run(build(p, shape.gen, shape.params))
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(r1, r2) {
					t.Fatalf("same seed produced different results:\n%+v\nvs\n%+v", r1, r2)
				}
				if r1.DutyCycle <= 0 || r1.DutyCycle > 1 {
					t.Errorf("duty cycle %v out of (0,1]", r1.DutyCycle)
				}
				if r1.TreeSize < 1 {
					t.Errorf("tree has no members")
				}
				if r1.Coverage < 0 || r1.Coverage > float64(r1.TreeSize) {
					t.Errorf("coverage %.2f outside [0, %d]", r1.Coverage, r1.TreeSize)
				}
				if r1.TreeSize > 1 && r1.Latency.N == 0 {
					t.Errorf("no latency samples despite %d tree members", r1.TreeSize)
				}
				if r1.Latency.N > 0 && r1.Latency.Mean <= 0 {
					t.Errorf("non-positive mean latency %v", r1.Latency.Mean)
				}
			})
		}
	}
}

// TestStagedRunMatchesRun checks the explicit build → simulate →
// collect stages against the one-shot Run on an identical scenario.
func TestStagedRunMatchesRun(t *testing.T) {
	direct, err := Run(smokeScenario(DTSSS, 9))
	if err != nil {
		t.Fatal(err)
	}
	s, err := BuildWith(nil, smokeScenario(DTSSS, 9))
	if err != nil {
		t.Fatal(err)
	}
	if s.Topo == nil || s.Tree == nil || s.Channel == nil || s.Eng == nil || len(s.Nodes) == 0 {
		t.Fatal("Build left exported fields unset")
	}
	s.Simulate()
	staged := s.Collect()
	if !reflect.DeepEqual(direct, staged) {
		t.Fatalf("staged result differs from Run:\n%+v\nvs\n%+v", direct, staged)
	}
}

func TestBuildRejectsUnknownProtocol(t *testing.T) {
	sc := smokeScenario("NO-SUCH", 1)
	if _, err := BuildWith(nil, sc); err == nil {
		t.Fatal("Build accepted an unregistered protocol")
	}
}

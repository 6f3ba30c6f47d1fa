// Package corpus generates seeded, reproducible workload corpora:
// randomized-but-valid declarative scenario specs covering the full
// model cross-product (every protocol × topology generator ×
// propagation model × radio profile × dynamics pattern) with
// fuzzed-but-bounded knobs.
//
// A corpus is the campaign layer's workload (the ReqBench workload.py
// analogue): Generate is pure and deterministic in its Config — the
// same seed and count always produce byte-identical specs — so a
// campaign can be regenerated or resumed anywhere without
// shipping the spec files themselves. Every emitted spec is strictly
// valid by construction: it round-trips through the strict JSON parser
// and compiles through Spec.Scenario, a property Generate re-checks
// item by item (and FuzzCorpusSpec extends to experiment.Build).
package corpus

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"time"

	"github.com/essat/essat/internal/experiment"
	"github.com/essat/essat/internal/phy"
	"github.com/essat/essat/internal/protocol"
	"github.com/essat/essat/internal/radio"
	"github.com/essat/essat/internal/stats"
	"github.com/essat/essat/internal/topology"
)

// Config parameterizes one corpus.
type Config struct {
	// Seed drives every random choice; 0 selects 1. The same (Seed,
	// Count) always generates the identical corpus.
	Seed int64
	// Count is the number of specs to generate; 0 selects 252, one full
	// protocol × topology × propagation × radio cross-product.
	Count int
	// MaxNodes bounds deployment scale (default 48; minimum scale is 24
	// nodes). Campaigns trade per-run depth for run count.
	MaxNodes int
	// MaxDuration bounds simulated time per run (default 6s, minimum
	// 3s). Short runs keep a 10k-run campaign tractable.
	MaxDuration time.Duration
}

func (c Config) withDefaults() Config {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Count <= 0 {
		c.Count = 252
	}
	if c.MaxNodes < 24 {
		c.MaxNodes = 48
	}
	if c.MaxDuration < 3*time.Second {
		c.MaxDuration = 6 * time.Second
	}
	return c
}

// Item is one generated workload: a spec plus its stable identity
// within the corpus.
type Item struct {
	// Index is the item's position in the corpus (0-based). It orders
	// the campaign's merged result set.
	Index int
	// ID is the human-readable identity: index plus the dimension names
	// ("0012-dts-ss-grid-shadowing-cc1000-crash").
	ID string
	// Spec is the generated scenario, strictly valid by construction.
	Spec *experiment.Spec
}

// The dynamics patterns the generator cycles through. "calm" runs
// undisturbed; the rest exercise each injector and one composition.
var dynPatterns = []string{"calm", "crash", "linkloss", "burst", "crash+burst"}

// Generate produces the corpus cfg describes. It is deterministic:
// equal configs yield byte-identical specs (same JSON encoding, same
// order). Every item is verified to strict-parse and compile before
// being returned; a verification failure reports a generator bug.
func Generate(cfg Config) ([]Item, error) {
	cfg = cfg.withDefaults()
	protos := protocol.All()
	gens := topology.GeneratorNames()
	props := phy.PropagationNames()
	radios := radio.ProfileNames()

	items := make([]Item, 0, cfg.Count)
	for idx := 0; idx < cfg.Count; idx++ {
		// Walk the cross-product in mixed-radix order so any prefix of
		// the corpus covers the fastest-varying dimensions evenly and a
		// full 7×4×3×3 block (252 items) covers every combination.
		p := protos[idx%len(protos)]
		gen := gens[(idx/len(protos))%len(gens)]
		prop := props[(idx/(len(protos)*len(gens)))%len(props)]
		prof := radios[(idx/(len(protos)*len(gens)*len(props)))%len(radios)]
		dyn := dynPatterns[idx%len(dynPatterns)]

		rng := rand.New(rand.NewSource(cfg.Seed*1_000_003 + int64(idx)*7919))
		spec := buildSpec(rng, cfg, idx, string(p), gen, prop, prof, dyn)
		if err := Verify(spec); err != nil {
			return nil, fmt.Errorf("corpus: generated item %d invalid (generator bug): %w", idx, err)
		}
		items = append(items, Item{
			Index: idx,
			ID:    itemID(idx, string(p), gen, prop, prof, dyn),
			Spec:  spec,
		})
	}
	return items, nil
}

// buildSpec draws one randomized-but-bounded spec for the given
// cross-product cell. Every knob range is chosen so the spec compiles
// and builds cleanly: densities keep deployments connected, phases and
// injector times stay inside the run, probabilities stay in (0,1).
func buildSpec(rng *rand.Rand, cfg Config, idx int, proto, gen, prop, prof, dyn string) *experiment.Spec {
	nodes := 24 + rng.Intn(cfg.MaxNodes-24+1)
	// Scale the area with the node count so density stays at or above
	// the paper's 80 nodes per 500 m² with a 125 m range — sparse enough
	// to be multihop, dense enough that trees reach most nodes.
	area := round2(500 * math.Sqrt(float64(nodes)/80.0) * (0.85 + 0.2*rng.Float64()))
	durSecs := 3 + rng.Intn(int(cfg.MaxDuration/time.Second)-2)
	duration := time.Duration(durSecs) * time.Second

	spec := &experiment.Spec{
		Protocol: proto,
		Seed:     cfg.Seed*1_000_000 + int64(idx) + 1,
		Nodes:    nodes,
		Area:     area,
		Duration: experiment.Dur(duration),
		Workload: &experiment.WorkloadSpec{
			BaseRate: round2(1 + 2*rng.Float64()),
			PerClass: 1 + rng.Intn(2),
			PhaseMax: experiment.Dur(time.Duration(500+rng.Intn(1000)) * time.Millisecond),
		},
		Audit: true,
	}

	if gen != topology.Uniform {
		spec.Topology = gen
		switch gen {
		case topology.Grid:
			spec.TopologyParams = map[string]float64{"jitter": round2(25 * rng.Float64())}
		case topology.Clusters:
			spec.TopologyParams = map[string]float64{
				"clusters": float64(3 + rng.Intn(4)),
				"spread":   round2(area/10 + rng.Float64()*area/10),
			}
		case topology.Corridor:
			spec.TopologyParams = map[string]float64{"width": round2(area/5 + rng.Float64()*area/5)}
		}
	}

	switch prop {
	case phy.Shadowing:
		spec.Channel = &experiment.ChannelSpec{Model: prop, Params: map[string]float64{
			"sigma":    round2(2 + 4*rng.Float64()),
			"pathloss": round2(2.5 + 1.5*rng.Float64()),
		}}
	case phy.DualDisc:
		spec.Channel = &experiment.ChannelSpec{Model: prop, Params: map[string]float64{
			"inner": round2(0.6 + 0.3*rng.Float64()),
			"outer": round2(1.0 + 0.4*rng.Float64()),
		}}
	}
	if prof != radio.Paper {
		spec.Radio = &experiment.RadioSpec{Profile: prof}
	}

	// Dynamics: every injected disturbance starts after the first second
	// and ends inside the run.
	half := duration / 2
	at := func() experiment.Duration {
		return experiment.Dur(time.Second + time.Duration(rng.Int63n(int64(half))))
	}
	addCrash := func() {
		spec.Dynamics = append(spec.Dynamics, experiment.DynamicsSpec{
			Kind:     "crash",
			At:       at(),
			Duration: experiment.Dur(time.Duration(500+rng.Intn(1500)) * time.Millisecond),
			Count:    1 + rng.Intn(2),
		})
	}
	addBurst := func() {
		burstLen := time.Duration(1500+rng.Intn(1500)) * time.Millisecond
		spec.Dynamics = append(spec.Dynamics, experiment.DynamicsSpec{
			Kind:     "burst",
			At:       at(),
			Duration: experiment.Dur(burstLen),
			Period:   experiment.Dur(time.Duration(300+rng.Intn(700)) * time.Millisecond),
			Queries:  1 + rng.Intn(2),
		})
	}
	switch dyn {
	case "crash":
		addCrash()
	case "linkloss":
		spec.Dynamics = append(spec.Dynamics, experiment.DynamicsSpec{
			Kind:     "linkloss",
			At:       at(),
			Duration: experiment.Dur(time.Duration(1000+rng.Intn(2000)) * time.Millisecond),
			Peak:     round2(0.2 + 0.6*rng.Float64()),
			Steps:    4 + rng.Intn(5),
		})
	case "burst":
		addBurst()
	case "crash+burst":
		addCrash()
		addBurst()
	}

	// Results pipeline coverage: half the corpus requests metric sinks,
	// so campaign runs continuously prove sink records survive
	// journaling and merges byte-identically. The draw comes
	// after every existing one, keeping pre-results corpora reproducible
	// from the same seeds.
	switch idx % 4 {
	case 1:
		spec.Results = &experiment.ResultsSpec{Sinks: []experiment.SinkSpec{
			{Name: stats.SinkEnergy},
			{Name: stats.SinkTimeseries, Params: map[string]float64{
				"bucket_ms": float64(250 * (1 + rng.Intn(4))),
			}},
		}}
	case 3:
		spec.Results = &experiment.ResultsSpec{Sinks: []experiment.SinkSpec{{Name: stats.SinkJSONL}}}
	}
	return spec
}

// Verify checks the invariant every corpus item promises: the spec's
// strict-JSON encoding round-trips through the strict parser and the
// result compiles through Spec.Scenario. (experiment.Build is heavier;
// FuzzCorpusSpec covers it.)
func Verify(spec *experiment.Spec) error {
	data, err := json.Marshal(spec)
	if err != nil {
		return err
	}
	parsed, err := experiment.ParseSpec(data)
	if err != nil {
		return err
	}
	if _, err := parsed.Scenario(); err != nil {
		return err
	}
	return nil
}

func itemID(idx int, parts ...string) string {
	slug := strings.ToLower(strings.Join(parts, "-"))
	slug = strings.ReplaceAll(slug, "+", "-")
	return fmt.Sprintf("%04d-%s", idx, slug)
}

func round2(v float64) float64 { return math.Round(v*100) / 100 }

// Manifest records a written corpus: its generation parameters and the
// identity + content hash of every spec file, so a loader can detect a
// corrupted or hand-edited corpus before a campaign runs against it.
type Manifest struct {
	Version int             `json:"version"`
	Seed    int64           `json:"seed"`
	Count   int             `json:"count"`
	Specs   []ManifestEntry `json:"specs"`
}

// ManifestEntry names one spec file and pins its content.
type ManifestEntry struct {
	Index  int    `json:"index"`
	ID     string `json:"id"`
	File   string `json:"file"`
	SHA256 string `json:"sha256"`
}

// ManifestName is the manifest's filename inside a corpus directory.
const ManifestName = "manifest.json"

// specDir is the subdirectory holding the spec files.
const specDir = "specs"

// Write materializes a corpus: one strict-JSON spec file per item under
// dir/specs plus dir/manifest.json.
func Write(dir string, cfg Config, items []Item) error {
	cfg = cfg.withDefaults()
	if err := os.MkdirAll(filepath.Join(dir, specDir), 0o755); err != nil {
		return err
	}
	m := Manifest{Version: 1, Seed: cfg.Seed, Count: len(items)}
	for _, it := range items {
		data, err := json.MarshalIndent(it.Spec, "", "  ")
		if err != nil {
			return err
		}
		data = append(data, '\n')
		rel := filepath.Join(specDir, it.ID+".json")
		if err := os.WriteFile(filepath.Join(dir, rel), data, 0o644); err != nil {
			return err
		}
		sum := sha256.Sum256(data)
		m.Specs = append(m.Specs, ManifestEntry{
			Index:  it.Index,
			ID:     it.ID,
			File:   rel,
			SHA256: hex.EncodeToString(sum[:]),
		})
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, ManifestName), append(data, '\n'), 0o644)
}

// Load reads a written corpus back: the manifest plus every spec file,
// verifying content hashes and strict validity. The returned items are
// in manifest (index) order.
func Load(dir string) (*Manifest, []Item, error) {
	data, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		return nil, nil, fmt.Errorf("corpus: %w", err)
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, nil, fmt.Errorf("corpus: %s: %w", ManifestName, err)
	}
	if m.Version != 1 {
		return nil, nil, fmt.Errorf("corpus: unsupported manifest version %d", m.Version)
	}
	items := make([]Item, 0, len(m.Specs))
	for _, e := range m.Specs {
		raw, err := os.ReadFile(filepath.Join(dir, e.File))
		if err != nil {
			return nil, nil, fmt.Errorf("corpus: %w", err)
		}
		if sum := sha256.Sum256(raw); hex.EncodeToString(sum[:]) != e.SHA256 {
			return nil, nil, fmt.Errorf("corpus: %s does not match its manifest hash (corrupted or edited?)", e.File)
		}
		spec, err := experiment.ParseSpec(raw)
		if err != nil {
			return nil, nil, fmt.Errorf("corpus: %s: %w", e.File, err)
		}
		items = append(items, Item{Index: e.Index, ID: e.ID, Spec: spec})
	}
	return &m, items, nil
}

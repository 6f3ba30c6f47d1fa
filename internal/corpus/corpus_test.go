package corpus

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/essat/essat/internal/experiment"
)

// TestGenerateDeterministic: the corpus contract — the same config
// always yields byte-identical specs, so a campaign can regenerate its
// workload anywhere instead of shipping spec files.
func TestGenerateDeterministic(t *testing.T) {
	cfg := Config{Seed: 42, Count: 40}
	a, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].ID != b[i].ID {
			t.Fatalf("item %d: ID %q vs %q", i, a[i].ID, b[i].ID)
		}
		aj, _ := json.Marshal(a[i].Spec)
		bj, _ := json.Marshal(b[i].Spec)
		if !bytes.Equal(aj, bj) {
			t.Fatalf("item %d: specs differ:\n%s\n%s", i, aj, bj)
		}
	}

	// A different seed must actually change the corpus.
	c, err := Generate(Config{Seed: 43, Count: 40})
	if err != nil {
		t.Fatal(err)
	}
	cj, _ := json.Marshal(c[0].Spec)
	aj, _ := json.Marshal(a[0].Spec)
	if bytes.Equal(aj, cj) {
		t.Fatal("different seeds produced identical first specs")
	}
}

// TestGenerateCoversCrossProduct: one full 252-item corpus hits every
// protocol × topology generator × propagation model × radio profile
// cell exactly once.
func TestGenerateCoversCrossProduct(t *testing.T) {
	items, err := Generate(Config{Seed: 1, Count: 252})
	if err != nil {
		t.Fatal(err)
	}
	cells := make(map[[4]string]int)
	for _, it := range items {
		gen, prop, prof := "uniform", "disc", "paper"
		if it.Spec.Topology != "" {
			gen = it.Spec.Topology
		}
		if it.Spec.Channel != nil {
			prop = it.Spec.Channel.Model
		}
		if it.Spec.Radio != nil {
			prof = it.Spec.Radio.Profile
		}
		cells[[4]string{it.Spec.Protocol, gen, prop, prof}]++
	}
	if len(cells) != 252 {
		t.Fatalf("corpus covers %d distinct cells, want 252 (7×4×3×3)", len(cells))
	}
	for cell, n := range cells {
		if n != 1 {
			t.Errorf("cell %v drawn %d times, want exactly once", cell, n)
		}
	}
}

// TestWriteLoadRoundTrip: a written corpus loads back identically, a
// manifest that still carries the retired "shards" key loads, and Load
// refuses a spec file whose bytes no longer match the manifest.
func TestWriteLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Seed: 9, Count: 8}
	items, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := Write(dir, cfg, items); err != nil {
		t.Fatal(err)
	}

	man, loaded, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if man.Seed != 9 || man.Count != 8 {
		t.Fatalf("manifest = {seed %d, count %d}, want {9, 8}", man.Seed, man.Count)
	}
	if len(loaded) != len(items) {
		t.Fatalf("loaded %d items, want %d", len(loaded), len(items))
	}
	for i := range items {
		want, _ := json.Marshal(items[i].Spec)
		got, _ := json.Marshal(loaded[i].Spec)
		if loaded[i].ID != items[i].ID || !bytes.Equal(want, got) {
			t.Fatalf("item %d did not round-trip", i)
		}
	}

	// Manifests written when a corpus could be split across machines
	// carry a "shards" key; it is ignored.
	mpath := filepath.Join(dir, ManifestName)
	mdata, err := os.ReadFile(mpath)
	if err != nil {
		t.Fatal(err)
	}
	old := bytes.Replace(mdata, []byte(`"count": 8,`), []byte(`"count": 8,
  "shards": 1,`), 1)
	if bytes.Equal(old, mdata) {
		t.Fatal("manifest layout changed; cannot insert the retired shards key")
	}
	if err := os.WriteFile(mpath, old, 0o644); err != nil {
		t.Fatal(err)
	}
	if man, loaded, err := Load(dir); err != nil || man.Count != 8 || len(loaded) != len(items) {
		t.Fatalf("manifest with a shards key: Load = (%v, %d items, %v), want 8 items", man, len(loaded), err)
	}

	// Tamper with one spec file: Load must detect the hash mismatch.
	path := filepath.Join(dir, man.Specs[2].File)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(data, ' '), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Load(dir); err == nil {
		t.Fatal("Load accepted a corrupted spec file")
	}
}

// FuzzCorpusSpec: every spec the generator can emit strict-parses and
// builds without error — the guarantee that lets a campaign trust its
// workload blindly. The fuzzer explores the seed space; each iteration
// checks a small corpus end to end through experiment.Build.
func FuzzCorpusSpec(f *testing.F) {
	f.Add(int64(1))
	f.Add(int64(42))
	f.Add(int64(-7))
	f.Add(int64(1 << 40))
	f.Fuzz(func(t *testing.T, seed int64) {
		items, err := Generate(Config{Seed: seed, Count: 5, MaxNodes: 24, MaxDuration: 3 * time.Second})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, it := range items {
			data, err := json.Marshal(it.Spec)
			if err != nil {
				t.Fatal(err)
			}
			spec, err := experiment.ParseSpec(data)
			if err != nil {
				t.Fatalf("%s does not strict-parse: %v", it.ID, err)
			}
			sc, err := spec.Scenario()
			if err != nil {
				t.Fatalf("%s does not compile: %v", it.ID, err)
			}
			if _, err := experiment.BuildWith(nil, sc); err != nil {
				t.Fatalf("%s does not build: %v", it.ID, err)
			}
		}
	})
}

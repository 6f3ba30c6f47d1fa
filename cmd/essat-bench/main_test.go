package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestCLISmoke builds essat-bench and drives it end to end: a short
// two-figure sweep on two workers, selected by both ID forms, whose
// -benchjson report carries each figure's own work totals, and the
// exit codes of two invalid invocations.
func TestCLISmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not on PATH")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "essat-bench")
	if out, err := exec.Command(goBin, "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	run := func(args ...string) (string, error) {
		var stdout, stderr bytes.Buffer
		cmd := exec.Command(bin, args...)
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		if err != nil {
			t.Logf("essat-bench %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
		}
		return stdout.String(), err
	}

	report := filepath.Join(dir, "bench.json")
	out, err := run("-fig", "3", "-fig", "fig5", "-duration", "2s", "-seeds", "1", "-parallel", "2", "-benchjson", report)
	if err != nil {
		t.Fatalf("sweep: %v\n%s", err, out)
	}
	for _, want := range []string{"== fig3:", "== fig5:"} {
		if !strings.Contains(out, want) {
			t.Errorf("output prints no %q table:\n%s", want, out)
		}
	}
	data, err := os.ReadFile(report)
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Figures []struct {
			ID         string  `json:"id"`
			Runs       int     `json:"runs"`
			Events     uint64  `json:"events"`
			SimSeconds float64 `json:"sim_seconds"`
		} `json:"figures"`
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("decode report: %v\n%s", err, data)
	}
	// Fig. 3 is 5 protocols × 5 rates, Fig. 5 is 3 protocols, each at
	// one seed of 2 simulated seconds.
	want := []struct {
		id   string
		runs int
	}{{"fig3", 25}, {"fig5", 3}}
	if len(rep.Figures) != len(want) {
		t.Fatalf("report holds %d figures, want %d:\n%s", len(rep.Figures), len(want), data)
	}
	for i, w := range want {
		f := rep.Figures[i]
		if f.ID != w.id || f.Runs != w.runs || f.Events == 0 || f.SimSeconds != float64(2*w.runs) {
			t.Errorf("figure %d = %+v, want %s with %d runs, events > 0, %d sim seconds",
				i, f, w.id, w.runs, 2*w.runs)
		}
	}

	if _, err := run("-fig", "nope"); err == nil {
		t.Error("-fig nope exited 0")
	}
	// The no-arena path is gone: its flag is refused, not ignored.
	if _, err := run("-fig", "5", "-arena=false"); err == nil {
		t.Error("-arena=false exited 0")
	}
}

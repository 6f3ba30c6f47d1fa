package main

import (
	"bytes"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestCLISmoke builds essat-sim and drives it end to end: the registry
// listing, a short run that must print the same bytes with and without
// -shards 1 (the sequential run is the one-shard case), and the exit
// codes of two invalid invocations.
func TestCLISmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not on PATH")
	}
	bin := filepath.Join(t.TempDir(), "essat-sim")
	if out, err := exec.Command(goBin, "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	run := func(args ...string) (string, error) {
		var stdout, stderr bytes.Buffer
		cmd := exec.Command(bin, args...)
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		if err != nil {
			t.Logf("essat-sim %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
		}
		return stdout.String(), err
	}

	list, err := run("-list")
	if err != nil {
		t.Fatalf("-list: %v", err)
	}
	for _, p := range []string{"DTS-SS", "STS-SS", "NTS-SS", "SPAN", "PSM", "SYNC", "TMAC"} {
		if !strings.Contains(list, p) {
			t.Errorf("-list does not name protocol %s", p)
		}
	}

	short := []string{"-protocol", "DTS-SS", "-rate", "2", "-duration", "5s", "-seed", "7", "-audit"}
	seq, err := run(short...)
	if err != nil {
		t.Fatalf("sequential run: %v", err)
	}
	one, err := run(append(short, "-shards", "1")...)
	if err != nil {
		t.Fatalf("-shards 1 run: %v", err)
	}
	if seq == "" || seq != one {
		t.Errorf("-shards 1 output differs from the sequential run:\n%s\n---\n%s", seq, one)
	}

	if _, err := run("-scenario", filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("a missing -scenario file exited 0")
	}
	if _, err := run("-lookahead", "1ms", "-duration", "5s"); err == nil {
		t.Error("-lookahead without -shards exited 0")
	}
}

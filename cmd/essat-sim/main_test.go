package main

import (
	"bytes"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestCLISmoke builds essat-sim and drives it end to end: the registry
// listing, a short audited run, -trace on a loaded spec, and the exit
// codes of three invalid invocations.
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
	// The root recorder is attached to every run, not offered as a sink.
	_, sinkList, _ := strings.Cut(list, "-sinks):\n")
	sinkList, _, _ = strings.Cut(sinkList, "\n\n")
	if sinks := strings.Fields(sinkList); !slices.Contains(sinks, "jsonl") || slices.Contains(sinks, "root") {
		t.Errorf("-list metric sinks = %v, want jsonl and no root", sinks)
	}

	short := []string{"-protocol", "DTS-SS", "-rate", "2", "-duration", "5s", "-seed", "7", "-audit"}
	if out, err := run(short...); err != nil || !strings.Contains(out, "duty cycle") {
		t.Fatalf("short run: %v\n%s", err, out)
	}

	// -trace applies to a loaded spec like -audit does.
	traced, err := run("-scenario", filepath.Join("..", "..", "testdata", "example.json"), "-duration", "5s", "-trace", "16")
	if err != nil {
		t.Fatalf("-scenario -trace run: %v", err)
	}
	if !strings.Contains(traced, "last 16 structured events") {
		t.Errorf("-trace 16 with -scenario printed no event block:\n%s", traced)
	}

	if _, err := run("-scenario", filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("a missing -scenario file exited 0")
	}
	// The sharded engine is gone: its flag is refused, not ignored.
	if _, err := run(append(short, "-shards", "2")...); err == nil {
		t.Error("-shards 2 exited 0")
	}
	if _, err := run(append(short, "-sinks", "root")...); err == nil {
		t.Error("-sinks root exited 0")
	}
}

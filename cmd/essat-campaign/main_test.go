package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestCLISmoke builds essat-campaign and drives a small campaign end to
// end: gen, run, status, merge and a resume of the finished campaign,
// plus the exit codes of the removed shard flags.
func TestCLISmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not on PATH")
	}
	bin := filepath.Join(t.TempDir(), "essat-campaign")
	if out, err := exec.Command(goBin, "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	run := func(args ...string) (string, error) {
		var stdout, stderr bytes.Buffer
		cmd := exec.Command(bin, args...)
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		if err != nil {
			t.Logf("essat-campaign %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
		}
		return stdout.String(), err
	}

	dir := filepath.Join(t.TempDir(), "camp")
	if _, err := run("gen", "-dir", dir, "-seed", "2026", "-count", "6", "-max-nodes", "24", "-max-duration", "3s"); err != nil {
		t.Fatalf("gen: %v", err)
	}
	out, err := run("run", "-dir", dir, "-workers", "2", "-q")
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out, "6 specs:") || !strings.Contains(out, "campaign complete") {
		t.Errorf("run printed no complete 6-spec summary:\n%s", out)
	}
	if out, err := run("status", "-dir", dir); err != nil || !strings.Contains(out, "0 pending") {
		t.Errorf("status: %v\n%s", err, out)
	}
	if _, err := run("merge", "-dir", dir); err != nil {
		t.Fatalf("merge: %v", err)
	}
	results, err := os.ReadFile(filepath.Join(dir, "results.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(results, []byte{'\n'}); n != 6 {
		t.Errorf("results.jsonl has %d lines, want 6", n)
	}
	if _, err := run("resume", "-dir", dir, "-workers", "2", "-q"); err != nil {
		t.Errorf("resume of a finished campaign: %v", err)
	}

	// Campaign sharding is gone: the flag parser refuses its flags
	// rather than ignoring them.
	for _, args := range [][]string{
		{"gen", "-dir", filepath.Join(t.TempDir(), "sharded"), "-count", "2", "-shards", "2"},
		{"run", "-dir", dir, "-shard", "1"},
		{"resume", "-dir", dir, "-shard", "1"},
	} {
		name := strings.Join([]string{args[0], args[len(args)-2], args[len(args)-1]}, " ")
		t.Run(name, func(t *testing.T) {
			_, err := run(args...)
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 2 {
				t.Errorf("%s: %v, want the flag parser's exit status 2", name, err)
			}
		})
	}
}

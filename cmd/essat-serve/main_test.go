package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestCLISmoke builds essat-serve and drives it end to end: two invalid
// -sinks values refused at boot, readiness, one run, one malformed spec,
// and a clean drain on SIGTERM.
func TestCLISmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not on PATH")
	}
	bin := filepath.Join(t.TempDir(), "essat-serve")
	if out, err := exec.Command(goBin, "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}

	// A sink typo fails the boot; root is attached to every run, not a
	// sink to name.
	for _, sink := range []string{"bogus", "root"} {
		t.Run("sinks="+sink, func(t *testing.T) {
			// A server that wrongly boots is stopped by the timeout.
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			out, err := exec.CommandContext(ctx, bin, "-sinks", sink, "-addr", "127.0.0.1:0").CombinedOutput()
			if code := exitCode(err); code != 1 {
				t.Errorf("exit %d, want 1\n%s", code, out)
			}
		})
	}

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	var stderr bytes.Buffer
	cmd := exec.Command(bin, "-addr", addr, "-workers", "1", "-q")
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	var waitErr error
	exited := make(chan struct{})
	go func() {
		waitErr = cmd.Wait()
		close(exited)
	}()
	// stop kills the server unless it has exited, waits for it, and
	// returns what it wrote to stderr.
	stop := func() string {
		select {
		case <-exited:
		default:
			cmd.Process.Kill()
			<-exited
		}
		return stderr.String()
	}
	defer stop()

	base := "http://" + addr
	client := &http.Client{Timeout: 30 * time.Second}
	for deadline := time.Now().Add(10 * time.Second); ; {
		resp, err := client.Get(base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("not ready after 10 s: %v\n%s", err, stop())
		}
		time.Sleep(50 * time.Millisecond)
	}

	post := func(body string) (int, []byte) {
		t.Helper()
		resp, err := client.Post(base+"/run", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, buf.Bytes()
	}
	code, body := post(`{"protocol":"DTS-SS","duration":"5s","workload":{"base_rate":1,"per_class":1}}`)
	var res struct{ Protocol string }
	if err := json.Unmarshal(body, &res); code != http.StatusOK || err != nil || res.Protocol != "DTS-SS" {
		t.Errorf("POST /run: %d %s, want 200 with protocol DTS-SS", code, body)
	}
	if code, body := post(`{"protocol":`); code != http.StatusBadRequest {
		t.Errorf("malformed POST /run: %d %s, want 400", code, body)
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case <-exited:
		if waitErr != nil {
			t.Errorf("exit after SIGTERM: %v\n%s", waitErr, stderr.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("no exit 30 s after SIGTERM\n%s", stop())
	}
}

// exitCode returns a finished command's exit status: 0 for a nil error,
// -1 when the command did not run to an exit.
func exitCode(err error) int {
	if err == nil {
		return 0
	}
	var ee *exec.ExitError
	if errors.As(err, &ee) {
		return ee.ExitCode()
	}
	return -1
}

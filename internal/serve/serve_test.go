package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/essat/essat/internal/experiment"
	"github.com/essat/essat/internal/protocol"
)

// slowProto delegates to a real stack and then keeps the run busy by
// scheduling a dense self-perpetuating event chain, so concurrency
// tests can hold worker slots long enough to observe shedding.
func slowProto(ctx *protocol.BuildContext) {
	nts, _ := protocol.Lookup(protocol.NTSSS)
	nts(ctx)
	// Only once per run (the builder runs per node): the root — the one
	// node handed a sink — anchors the chain.
	if ctx.Sink != nil {
		var tick func()
		tick = func() {
			time.Sleep(10 * time.Millisecond) // real wall-clock cost per event
			ctx.Eng.After(10*time.Millisecond, tick)
		}
		ctx.Eng.After(time.Millisecond, tick)
	}
}

const slowProtoName protocol.Protocol = "slow-serve-test"

// servePanicProto panics mid-run, exercising the 500 path.
func servePanicProto(ctx *protocol.BuildContext) {
	nts, _ := protocol.Lookup(protocol.NTSSS)
	nts(ctx)
	if ctx.Sink != nil {
		ctx.Eng.After(500*time.Millisecond, func() { panic("injected serve bug") })
	}
}

const servePanicName protocol.Protocol = "panic-serve-test"

func TestMain(m *testing.M) {
	protocol.RegisterTestDouble(slowProtoName, slowProto)
	protocol.RegisterTestDouble(servePanicName, servePanicProto)
	os.Exit(m.Run())
}

// specJSON is a small fast run: ~1s simulated on 30 nodes.
func specJSON(proto string) string {
	return fmt.Sprintf(`{"protocol":%q,"nodes":30,"area":300,"duration":"1s","workload":{"base_rate":1,"per_class":1}}`, proto)
}

func postRun(t *testing.T, ts *httptest.Server, path, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	_, _ = buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

func TestRunEndpoint(t *testing.T) {
	s := New(Config{Workers: 2, Audit: true})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, body := postRun(t, ts, "/run", specJSON("DTS-SS"))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	var rr RunResponse
	if err := json.Unmarshal(body, &rr); err != nil {
		t.Fatalf("bad response JSON: %v", err)
	}
	if rr.Protocol != "DTS-SS" || rr.TreeSize == 0 || rr.Events == 0 {
		t.Errorf("implausible result: %+v", rr)
	}
	if rr.Seed == 0 {
		t.Errorf("server did not assign a per-request seed")
	}
	if rr.Audit == nil || rr.Audit.Digest == "" {
		t.Errorf("audit summary missing despite Config.Audit")
	}
	if rr.Audit != nil && rr.Audit.Violations != 0 {
		t.Errorf("run had %d invariant violations", rr.Audit.Violations)
	}

	// Distinct requests get distinct seeds.
	resp2, body2 := postRun(t, ts, "/run", specJSON("DTS-SS"))
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("second run status = %d", resp2.StatusCode)
	}
	var rr2 RunResponse
	_ = json.Unmarshal(body2, &rr2)
	if rr2.Seed == rr.Seed {
		t.Errorf("two seedless requests shared seed %d", rr.Seed)
	}
}

func TestBadSpecs(t *testing.T) {
	s := New(Config{Workers: 1, MaxNodes: 100, MaxBodyBytes: 4096})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cases := []struct {
		name, body, wantKind string
	}{
		{"malformed JSON", `{"protocol": `, "bad_spec"},
		{"unknown field", `{"protocol":"DTS-SS","bogus":1}`, "bad_spec"},
		{"removed parallelism block", `{"protocol":"DTS-SS","parallelism":{"shards":2},"workload":{"base_rate":1,"per_class":1}}`, "bad_spec"},
		{"unknown protocol", specJSON("NO-SUCH"), "bad_spec"},
		{"no workload", `{"protocol":"DTS-SS"}`, "bad_spec"},
		{"too many nodes", `{"protocol":"DTS-SS","nodes":5000,"workload":{"base_rate":1,"per_class":1}}`, "too_large"},
		{"oversized body", `{"protocol":"DTS-SS","queries":[` + strings.Repeat(`{"id":1,"period":"1s"},`, 400) + `]}`, "bad_spec"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := postRun(t, ts, "/run", tc.body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400 (body %s)", resp.StatusCode, body)
			}
			var er ErrorResponse
			if err := json.Unmarshal(body, &er); err != nil || er.Kind != tc.wantKind {
				t.Errorf("kind = %q (err %v), want %q", er.Kind, err, tc.wantKind)
			}
		})
	}
	if got := s.Stats().BadSpec; got != uint64(len(cases)) {
		t.Errorf("bad_spec counter = %d, want %d", got, len(cases))
	}

	// GET is not a run.
	resp, err := http.Get(ts.URL + "/run")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /run status = %d, want 405", resp.StatusCode)
	}
}

func TestBudgetResponses(t *testing.T) {
	s := New(Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Per-request event budget terminates the run with 422.
	resp, body := postRun(t, ts, "/run?max_events=1000", specJSON("DTS-SS"))
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status = %d, want 422 (body %s)", resp.StatusCode, body)
	}
	var er ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil || er.Kind != "budget" {
		t.Fatalf("kind = %q, want budget", er.Kind)
	}
	if er.Seed == 0 || er.Protocol != "DTS-SS" {
		t.Errorf("budget error lacks repro info: %+v", er)
	}

	// Bad budget parameters are 400s.
	for _, q := range []string{"?max_events=0", "?max_events=x", "?deadline=-1s", "?deadline=x"} {
		resp, _ := postRun(t, ts, "/run"+q, specJSON("DTS-SS"))
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", q, resp.StatusCode)
		}
	}

	// A server-wide budget applies without query parameters.
	s2 := New(Config{Workers: 1, Budget: experiment.Budget{MaxEvents: 1000}})
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	resp2, _ := postRun(t, ts2, "/run", specJSON("DTS-SS"))
	if resp2.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("server-budget status = %d, want 422", resp2.StatusCode)
	}
}

func TestPanicContained(t *testing.T) {
	s := New(Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, body := postRun(t, ts, "/run", specJSON(string(servePanicName)))
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500 (body %s)", resp.StatusCode, body)
	}
	var er ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if er.Kind != "panic" || er.Seed == 0 || !strings.Contains(string(er.Spec), string(servePanicName)) {
		t.Errorf("panic response lacks repro info: kind=%q seed=%d spec=%s", er.Kind, er.Seed, er.Spec)
	}

	// The worker slot was released and the server still serves.
	resp2, body2 := postRun(t, ts, "/run", specJSON("DTS-SS"))
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("run after panic: status = %d (body %s)", resp2.StatusCode, body2)
	}
	if st := s.Stats(); st.Panics != 1 || st.OK != 1 {
		t.Errorf("stats = %+v, want 1 panic and 1 ok", st)
	}
}

func TestLoadShedding(t *testing.T) {
	// One worker, one queue slot: a burst of slow runs must shed the
	// overflow with 429 + Retry-After.
	s := New(Config{Workers: 1, Queue: 1, RetryAfter: 2 * time.Second})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const burst = 8
	statuses := make(chan int, burst)
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/run", "application/json",
				strings.NewReader(specJSON(string(slowProtoName))))
			if err != nil {
				statuses <- -1
				return
			}
			if resp.StatusCode == http.StatusTooManyRequests {
				if ra := resp.Header.Get("Retry-After"); ra != "2" {
					t.Errorf("Retry-After = %q, want \"2\"", ra)
				}
			}
			resp.Body.Close()
			statuses <- resp.StatusCode
		}()
	}
	wg.Wait()
	close(statuses)

	counts := map[int]int{}
	for st := range statuses {
		counts[st]++
	}
	if counts[http.StatusTooManyRequests] == 0 {
		t.Errorf("no request was shed under a %d-deep burst: %v", burst, counts)
	}
	if counts[http.StatusOK] == 0 {
		t.Errorf("no request completed: %v", counts)
	}
	if got := int(s.Stats().Shed); got != counts[http.StatusTooManyRequests] {
		t.Errorf("shed counter = %d, responses = %d", got, counts[http.StatusTooManyRequests])
	}
}

func TestDrain(t *testing.T) {
	s := New(Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Ready before drain...
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/readyz before drain = %d", resp.StatusCode)
	}

	s.BeginDrain()
	s.BeginDrain() // idempotent

	// ...503 after: both readiness and new runs.
	resp, body := postRun(t, ts, "/run", specJSON("DTS-SS"))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("/run while draining = %d (body %s)", resp.StatusCode, body)
	}
	resp2, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("/readyz while draining = %d", resp2.StatusCode)
	}
	var st Stats
	if err := json.NewDecoder(resp2.Body).Decode(&st); err != nil || !st.Draining {
		t.Errorf("/readyz draining flag: %+v (err %v)", st, err)
	}

	// Liveness is unaffected.
	resp3, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusOK {
		t.Errorf("/healthz while draining = %d", resp3.StatusCode)
	}
}

func TestClientCancelMidRun(t *testing.T) {
	before := runtime.NumGoroutine()

	s := New(Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/run",
		strings.NewReader(specJSON(string(slowProtoName))))
	req.Header.Set("Content-Type", "application/json")
	if resp, err := http.DefaultClient.Do(req); err == nil {
		resp.Body.Close()
		t.Fatalf("slow run finished before the client deadline: %d", resp.StatusCode)
	}

	// The abandoned run's worker slot must come back: a fresh request
	// succeeds promptly.
	done := make(chan int, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/run", "application/json", strings.NewReader(specJSON("DTS-SS")))
		if err != nil {
			done <- -1
			return
		}
		resp.Body.Close()
		done <- resp.StatusCode
	}()
	select {
	case st := <-done:
		if st != http.StatusOK {
			t.Fatalf("run after client cancel: status %d", st)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("worker slot not released after client cancellation")
	}

	// No goroutines may leak from the canceled run (allow slack for
	// httptest/transport helpers to wind down).
	for i := 0; ; i++ {
		if runtime.NumGoroutine() <= before+4 {
			break
		}
		if i > 100 {
			t.Fatalf("goroutine leak: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

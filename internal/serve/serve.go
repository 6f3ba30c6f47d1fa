// Package serve embeds the simulation engine in a long-running HTTP
// service: scenario specs in, result summaries out, heavy concurrent
// traffic in between. The design goal is graceful degradation — under
// any load or input the server answers quickly and stays up:
//
//   - Runs execute on a bounded worker pool (a counting semaphore over
//     the handler goroutines) with a bounded wait queue; when both are
//     full, requests are shed immediately with 429 + Retry-After
//     instead of queueing unboundedly.
//   - Every run carries the request's context and a resource budget
//     (wall-clock deadline, max events), so a pathological spec cannot
//     monopolize a worker — it terminates with a typed error mapped to
//     an HTTP status.
//   - A panicking run is contained by the experiment lifecycle layer
//     into a 500 carrying the repro seed and spec; the worker slot is
//     released and subsequent requests are unaffected.
//   - BeginDrain flips the server into draining: /readyz turns 503 so
//     load balancers stop routing here, new runs are refused, and
//     in-flight runs finish (http.Server.Shutdown waits on them).
//
// The API contract is the existing strict JSON Spec: POST /run with a
// spec body. Malformed or invalid specs — unknown fields included —
// are 400s, never crashes.
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/essat/essat/internal/experiment"
	"github.com/essat/essat/internal/stats"
)

// Config tunes one Server. Zero values select the documented defaults.
type Config struct {
	// Workers bounds concurrently executing runs; default GOMAXPROCS
	// (runs are CPU-bound).
	Workers int
	// Queue bounds requests waiting for a worker; beyond it requests
	// are shed with 429. Default 2×Workers; negative means no waiting
	// (shed as soon as all workers are busy).
	Queue int
	// Budget is the default per-run resource budget. Requests may lower
	// (never raise) it via the deadline / max_events query parameters.
	Budget experiment.Budget
	// MaxBodyBytes caps the request body; default 1 MiB.
	MaxBodyBytes int64
	// MaxNodes rejects specs whose deployments exceed this scale with a
	// 400 (0 = unlimited). A resource guard, like Budget, but decided
	// before any work happens.
	MaxNodes int
	// BaseSeed seeds the per-request sequence assigned to specs that
	// omit a seed; default 1.
	BaseSeed int64
	// RetryAfter is the hint returned with 429 responses; default 1s.
	RetryAfter time.Duration
	// Audit forces the cross-layer invariant auditor on every run, so
	// each response carries a trace digest.
	Audit bool
	// Sinks names metric sinks (stats.SinkNames) attached to every run
	// whose spec has no results block of its own, so each response
	// carries their records. Names must be validated by the caller
	// (essat-serve does it at startup); an invalid name fails runs with
	// bad_spec.
	Sinks []string
	// Log receives one line per completed run and per shed/panic; nil
	// disables logging.
	Log *log.Logger
}

// Stats is a snapshot of the server's request counters, exposed on
// /readyz.
type Stats struct {
	OK       uint64 `json:"ok"`
	BadSpec  uint64 `json:"bad_spec"`
	Shed     uint64 `json:"shed"`
	Budget   uint64 `json:"budget"`
	Panics   uint64 `json:"panics"`
	Canceled uint64 `json:"canceled"`
	InFlight int64  `json:"in_flight"`
	Queued   int64  `json:"queued"`
	Draining bool   `json:"draining"`
	// CacheHits and CacheMisses count deployment-cache outcomes across
	// all workers: a hit means the run skipped topology placement and
	// tree construction because an identical deployment was built before.
	CacheHits   uint64 `json:"cache_hits"`
	CacheMisses uint64 `json:"cache_misses"`
}

// RunResponse is the JSON body of a successful POST /run.
type RunResponse struct {
	Protocol      string  `json:"protocol"`
	Seed          int64   `json:"seed"`
	TreeSize      int     `json:"tree_size"`
	MaxRank       int     `json:"max_rank"`
	DutyCycle     float64 `json:"duty_cycle"`
	LatencyMeanMs float64 `json:"latency_mean_ms"`
	LatencyP95Ms  float64 `json:"latency_p95_ms"`
	Coverage      float64 `json:"coverage"`
	Events        uint64  `json:"events"`
	ElapsedMs     float64 `json:"elapsed_ms"`
	Audit         *Audit  `json:"audit,omitempty"`
	// Records carries the metric-sink records (versioned schema; see
	// stats.SchemaVersion) when the spec's results block or the server's
	// -sinks flag selected sinks; absent otherwise, so sink-less
	// responses are byte-identical to earlier servers'.
	Records []stats.Record `json:"records,omitempty"`
}

// Audit is the response form of the invariant auditor's summary.
type Audit struct {
	Digest     string `json:"digest"`
	Events     uint64 `json:"events"`
	Violations int    `json:"violations"`
}

// ErrorResponse is the JSON body of every non-200. Kind is machine-
// readable: bad_spec, too_large, shed, draining, budget, panic,
// canceled.
type ErrorResponse struct {
	Kind  string `json:"kind"`
	Error string `json:"error"`
	// Seed and Protocol identify the run for reproduction (panic and
	// budget errors).
	Seed     int64  `json:"seed,omitempty"`
	Protocol string `json:"protocol,omitempty"`
	// Spec echoes the failing spec on panics: together with Seed it is
	// a complete repro (essat-sim -scenario).
	Spec json.RawMessage `json:"spec,omitempty"`
	// RetryAfterMs accompanies shed responses.
	RetryAfterMs int64 `json:"retry_after_ms,omitempty"`
}

// Server is the simulation service. Create with New, mount Handler,
// call BeginDrain on shutdown.
type Server struct {
	cfg Config

	// slots is the worker pool: a buffered channel used as a counting
	// semaphore, Workers deep. waiting bounds the run requests parked
	// on a full pool; overflow is shed.
	slots   chan struct{}
	waiting chan struct{}

	draining  chan struct{}
	drainOnce sync.Once

	seedCtr  atomic.Int64
	inFlight atomic.Int64
	queued   atomic.Int64

	ok, badSpec, shed, budget, panics, canceled atomic.Uint64

	// arenas pools one reusable experiment.Arena per worker slot; all
	// arenas share cache, so repeated identical specs skip deployment
	// construction regardless of which worker picks them up.
	arenas chan *experiment.Arena
	cache  *experiment.DeployCache

	mux *http.ServeMux
}

// New builds a Server from cfg, applying defaults.
func New(cfg Config) *Server {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	switch {
	case cfg.Queue < 0:
		cfg.Queue = 0
	case cfg.Queue == 0:
		cfg.Queue = 2 * cfg.Workers
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 1 << 20
	}
	if cfg.BaseSeed == 0 {
		cfg.BaseSeed = 1
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = time.Second
	}
	s := &Server{
		cfg:      cfg,
		slots:    make(chan struct{}, cfg.Workers),
		waiting:  make(chan struct{}, cfg.Queue),
		draining: make(chan struct{}),
		arenas:   make(chan *experiment.Arena, cfg.Workers),
		cache:    experiment.NewDeployCache(0),
	}
	for i := 0; i < cfg.Workers; i++ {
		s.arenas <- experiment.NewArenaWithCache(s.cache)
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/run", s.handleRun)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/readyz", s.handleReadyz)
	return s
}

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Workers reports the worker-pool size after defaulting.
func (s *Server) Workers() int { return cap(s.slots) }

// QueueDepth reports the wait-queue bound after defaulting.
func (s *Server) QueueDepth() int { return cap(s.waiting) }

// BeginDrain flips the server into draining mode: /readyz answers 503,
// new and queued runs are refused with 503, in-flight runs continue.
// Follow with http.Server.Shutdown, which waits for them. Idempotent.
func (s *Server) BeginDrain() {
	s.drainOnce.Do(func() { close(s.draining) })
}

// Draining reports whether BeginDrain was called.
func (s *Server) Draining() bool {
	select {
	case <-s.draining:
		return true
	default:
		return false
	}
}

// Stats snapshots the request counters.
func (s *Server) Stats() Stats {
	hits, misses := s.cache.Stats()
	return Stats{
		OK:          s.ok.Load(),
		BadSpec:     s.badSpec.Load(),
		Shed:        s.shed.Load(),
		Budget:      s.budget.Load(),
		Panics:      s.panics.Load(),
		Canceled:    s.canceled.Load(),
		InFlight:    s.inFlight.Load(),
		Queued:      s.queued.Load(),
		Draining:    s.Draining(),
		CacheHits:   hits,
		CacheMisses: misses,
	}
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Log != nil {
		s.cfg.Log.Printf(format, args...)
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	st := s.Stats()
	status := http.StatusOK
	if st.Draining {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, st)
}

// acquire claims a worker slot, waiting in the bounded queue if the
// pool is busy. It returns a release func on success, or writes the
// shed/drain/cancel response and returns nil.
func (s *Server) acquire(w http.ResponseWriter, r *http.Request) func() {
	release := func() { <-s.slots }
	select {
	case s.slots <- struct{}{}:
		return release
	default:
	}
	// Pool busy: park in the bounded wait queue, or shed.
	select {
	case s.waiting <- struct{}{}:
	default:
		s.shed.Add(1)
		s.logf("shed: pool and queue full (in-flight %d, queued %d)", s.inFlight.Load(), s.queued.Load())
		retry := s.cfg.RetryAfter
		w.Header().Set("Retry-After", strconv.Itoa(int((retry+time.Second-1)/time.Second)))
		writeJSON(w, http.StatusTooManyRequests, ErrorResponse{
			Kind:         "shed",
			Error:        "all workers busy and wait queue full; retry later",
			RetryAfterMs: retry.Milliseconds(),
		})
		return nil
	}
	s.queued.Add(1)
	defer func() { s.queued.Add(-1); <-s.waiting }()
	select {
	case s.slots <- struct{}{}:
		return release
	case <-s.draining:
		writeJSON(w, http.StatusServiceUnavailable, ErrorResponse{
			Kind:  "draining",
			Error: "server is draining; no new runs accepted",
		})
		return nil
	case <-r.Context().Done():
		s.canceled.Add(1)
		// 499: client closed request (nginx convention); the client is
		// gone, the status is for the access log.
		w.WriteHeader(499)
		return nil
	}
}

// requestBudget derives the run budget from the server default and the
// request's deadline / max_events query parameters, which may only
// tighten it.
func (s *Server) requestBudget(r *http.Request) (experiment.Budget, error) {
	b := s.cfg.Budget
	q := r.URL.Query()
	if v := q.Get("deadline"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d <= 0 {
			return b, fmt.Errorf("invalid deadline %q", v)
		}
		if b.WallClock == 0 || d < b.WallClock {
			b.WallClock = d
		}
	}
	if v := q.Get("max_events"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil || n == 0 {
			return b, fmt.Errorf("invalid max_events %q", v)
		}
		if b.MaxEvents == 0 || n < b.MaxEvents {
			b.MaxEvents = n
		}
	}
	return b, nil
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeJSON(w, http.StatusMethodNotAllowed, ErrorResponse{Kind: "bad_spec", Error: "POST a JSON scenario spec"})
		return
	}
	if s.Draining() {
		writeJSON(w, http.StatusServiceUnavailable, ErrorResponse{
			Kind:  "draining",
			Error: "server is draining; no new runs accepted",
		})
		return
	}

	body, err := readAll(w, r, s.cfg.MaxBodyBytes)
	if err != nil {
		s.badSpec.Add(1)
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Kind: "bad_spec", Error: err.Error()})
		return
	}
	spec, err := experiment.ParseSpec(body)
	if err != nil {
		s.badSpec.Add(1)
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Kind: "bad_spec", Error: err.Error()})
		return
	}
	if s.cfg.MaxNodes > 0 && spec.Nodes > s.cfg.MaxNodes {
		s.badSpec.Add(1)
		writeJSON(w, http.StatusBadRequest, ErrorResponse{
			Kind:  "too_large",
			Error: fmt.Sprintf("spec requests %d nodes; this server caps deployments at %d", spec.Nodes, s.cfg.MaxNodes),
		})
		return
	}
	budget, err := s.requestBudget(r)
	if err != nil {
		s.badSpec.Add(1)
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Kind: "bad_spec", Error: err.Error()})
		return
	}
	// Per-request seeds: a spec without one gets a fresh seed from the
	// server's sequence, echoed in the response for reproduction.
	if spec.Seed == 0 {
		spec.Seed = s.cfg.BaseSeed + s.seedCtr.Add(1)
	}
	if s.cfg.Audit {
		spec.Audit = true
	}
	if len(s.cfg.Sinks) > 0 && spec.Results == nil {
		rs := &experiment.ResultsSpec{}
		for _, name := range s.cfg.Sinks {
			rs.Sinks = append(rs.Sinks, experiment.SinkSpec{Name: name})
		}
		spec.Results = rs
	}

	release := s.acquire(w, r)
	if release == nil {
		return
	}
	defer release()

	s.inFlight.Add(1)
	defer s.inFlight.Add(-1)

	// One pooled arena per worker slot: the semaphore guarantees at most
	// Workers goroutines reach this point, so the receive never blocks.
	arena := <-s.arenas
	defer func() { s.arenas <- arena }()

	start := time.Now()
	res, err := experiment.RunSpecContextWith(r.Context(), arena, spec, budget)
	elapsed := time.Since(start)

	if err != nil {
		var pe *experiment.PanicError
		var be *experiment.BudgetExceededError
		switch {
		case errors.As(err, &pe):
			// A stack that panicked mid-event may have left the pooled
			// engine inconsistent in ways Reset cannot repair; drop it.
			arena.Discard()
			s.panics.Add(1)
			s.logf("panic: protocol %s seed %d: %v\n%s", pe.Protocol, pe.Seed, pe.Value, pe.Stack)
			writeJSON(w, http.StatusInternalServerError, ErrorResponse{
				Kind:     "panic",
				Error:    pe.Error(),
				Seed:     pe.Seed,
				Protocol: string(pe.Protocol),
				Spec:     json.RawMessage(pe.SpecJSON),
			})
		case errors.As(err, &be):
			s.budget.Add(1)
			s.logf("budget: protocol %s seed %d: %v", spec.Protocol, spec.Seed, err)
			writeJSON(w, http.StatusUnprocessableEntity, ErrorResponse{
				Kind:     "budget",
				Error:    be.Error(),
				Seed:     spec.Seed,
				Protocol: spec.Protocol,
			})
		case errors.Is(err, r.Context().Err()) && r.Context().Err() != nil:
			s.canceled.Add(1)
			w.WriteHeader(499)
		default:
			// Everything else is a spec the compile/build stage refused.
			s.badSpec.Add(1)
			writeJSON(w, http.StatusBadRequest, ErrorResponse{Kind: "bad_spec", Error: err.Error()})
		}
		return
	}

	s.ok.Add(1)
	s.logf("run: protocol %s seed %d: %d events in %v", spec.Protocol, spec.Seed, res.Events, elapsed.Round(time.Millisecond))
	resp := RunResponse{
		Protocol:      string(res.Protocol),
		Seed:          res.Seed,
		TreeSize:      res.TreeSize,
		MaxRank:       res.MaxRank,
		DutyCycle:     res.DutyCycle,
		LatencyMeanMs: float64(res.Latency.Mean) / float64(time.Millisecond),
		LatencyP95Ms:  float64(res.Latency.P95) / float64(time.Millisecond),
		Coverage:      res.Coverage,
		Events:        res.Events,
		ElapsedMs:     float64(elapsed) / float64(time.Millisecond),
	}
	if res.Audit != nil {
		resp.Audit = &Audit{Digest: res.Audit.Digest, Events: res.Audit.Events, Violations: res.Audit.Total}
	}
	resp.Records = res.Records
	writeJSON(w, http.StatusOK, resp)
}

// readAll reads the request body under the configured cap, translating
// the limiter's error into something actionable.
func readAll(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, error) {
	lr := http.MaxBytesReader(w, r.Body, limit)
	defer lr.Close()
	data, err := io.ReadAll(lr)
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return nil, fmt.Errorf("request body exceeds %d bytes", limit)
		}
		return nil, err
	}
	return data, nil
}

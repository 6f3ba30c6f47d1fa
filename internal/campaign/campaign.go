package campaign

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"github.com/essat/essat/internal/corpus"
	"github.com/essat/essat/internal/experiment"
)

// ErrInterrupted reports a run stopped by context cancellation
// (SIGINT/SIGTERM in the CLI) after checkpointing the journal. The
// campaign is resumable; nothing was lost.
var ErrInterrupted = errors.New("campaign: interrupted (journal checkpointed, resume to continue)")

// ErrJournalExists reports a fresh run pointed at a campaign that has
// already started; the caller wants resume, not a restart that would
// redo finished work.
var ErrJournalExists = errors.New("campaign: journal already has records; use resume")

// ErrIncomplete reports a merge attempted before every spec has a
// terminal record.
var ErrIncomplete = errors.New("campaign: not all specs have terminal records yet")

// ResultsName is the merged result set's filename inside a campaign
// directory.
const ResultsName = "results.jsonl"

// quarantineDir is the subdirectory collecting panic repro bundles.
const quarantineDir = "quarantine"

// journalName is the campaign's write-ahead journal inside its
// directory. The numbered name is kept so directories written when a
// campaign could span several journals still resume.
const journalName = "journal-000.jsonl"

// RunConfig parameterizes one campaign run.
type RunConfig struct {
	// Workers is the bounded worker pool size; <=0 selects GOMAXPROCS.
	Workers int
	// Budget bounds each run; the zero value is unlimited. Campaigns
	// should set at least MaxEvents so one pathological spec cannot
	// wedge a worker forever.
	Budget experiment.Budget
	// MaxRetries caps wall-clock budget retries per spec (attempts
	// beyond the first); <0 selects DefaultMaxRetries. An events budget
	// is exact and deterministic, so its overrun is never retried.
	MaxRetries int
	// RetryBackoff is the base backoff before a retry, grown
	// exponentially and jittered; <=0 selects DefaultRetryBackoff and
	// values above MaxRetryBackoff are clamped to it.
	RetryBackoff time.Duration
	// SyncEvery is the journal's fsync batch size; <=0 selects
	// DefaultSyncEvery.
	SyncEvery int
	// Resume permits running against a journal that already has records
	// (skipping completed specs). A fresh run with an existing journal
	// fails with ErrJournalExists.
	Resume bool
	// Log, when non-nil, receives one human-readable progress line per
	// terminal record.
	Log io.Writer
	// OnRecord, when non-nil, is called after each terminal record is
	// journaled — a deterministic hook for tests to observe (and
	// interrupt) a campaign mid-flight.
	OnRecord func(Record)
}

// DefaultMaxRetries caps wall-clock budget retries; DefaultRetryBackoff
// is the base delay before the first retry; MaxRetryBackoff caps the
// exponential growth so a user-settable retry count can never shift
// the delay into overflow.
const (
	DefaultMaxRetries   = 2
	DefaultRetryBackoff = 50 * time.Millisecond
	MaxRetryBackoff     = 30 * time.Second
)

func (c RunConfig) withDefaults() RunConfig {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.MaxRetries < 0 {
		c.MaxRetries = DefaultMaxRetries
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = DefaultRetryBackoff
	}
	if c.RetryBackoff > MaxRetryBackoff {
		c.RetryBackoff = MaxRetryBackoff
	}
	return c
}

// retryDelay is the jittered exponential backoff before retry number
// attempt+1: base × 2^(attempt-1) capped at MaxRetryBackoff, plus up
// to 100% jitter. Growth is by doubling under the cap, not shifting —
// a shift by a user-settable attempt count overflows to a non-positive
// duration and panics the jitter draw.
func retryDelay(base time.Duration, attempt int, rng *rand.Rand) time.Duration {
	d := base
	for i := 1; i < attempt && d < MaxRetryBackoff; i++ {
		d *= 2
	}
	if d > MaxRetryBackoff {
		d = MaxRetryBackoff
	}
	return d + time.Duration(rng.Int63n(int64(d)+1))
}

// Summary reports what one Run did.
type Summary struct {
	// Total is the corpus's spec count; Skipped how many already had
	// terminal records when the run started (resume).
	Total   int
	Skipped int
	// Completed and Failed count terminal records written by this
	// process; Quarantined (⊆ Failed) counts panic repro bundles;
	// Retries counts budget-retry attempts beyond the first.
	Completed   int
	Failed      int
	Quarantined int
	Retries     int
	// Interrupted reports the run stopped on context cancellation with
	// work remaining; the journal is checkpointed and resumable.
	Interrupted bool
	// ResultsPath is the merged result set, written by every run that
	// is not interrupted.
	ResultsPath string
}

// Run executes the corpus campaign at dir on a bounded worker pool,
// journaling every outcome. Each worker owns a reusable experiment
// arena; all workers share one deployment cache. Audit is
// forced on for every run so each done record carries the invariant
// auditor's trace digest.
//
// Failure policy: a *BudgetExceededError on the wall-clock budget
// retries with jittered exponential backoff up to MaxRetries, then
// journals a terminal budget failure. One on the events budget would
// fail the same way again, so it journals at once. A *PanicError
// writes a repro bundle (spec + seed + stack) under quarantine/ and
// journals a terminal panic failure; a build error journals
// immediately. The campaign always continues past
// individual failures. Context cancellation checkpoints the journal
// and returns ErrInterrupted.
//
// A run that is not interrupted ends with every spec journaled and
// writes the merged result set (see Merge).
func Run(ctx context.Context, dir string, cfg RunConfig) (*Summary, error) {
	cfg = cfg.withDefaults()
	_, items, err := corpus.Load(dir)
	if err != nil {
		return nil, err
	}

	jpath := filepath.Join(dir, journalName)
	recs, err := ReadJournal(jpath)
	if err != nil {
		return nil, err
	}
	if len(recs) > 0 && !cfg.Resume {
		return nil, fmt.Errorf("%w: %s has %d records", ErrJournalExists, jpath, len(recs))
	}
	prog := Replay(recs)

	sum := &Summary{Total: len(items)}
	var pending []corpus.Item
	for _, it := range items {
		if _, done := prog.Terminal[it.Index]; done {
			sum.Skipped++
			continue
		}
		pending = append(pending, it)
	}

	j, err := OpenJournal(jpath, cfg.SyncEvery)
	if err != nil {
		return nil, err
	}
	defer j.Close()

	if len(pending) > 0 {
		if err := runPool(ctx, dir, cfg, j, pending, sum); err != nil {
			return nil, err
		}
	}

	// Checkpoint: every journaled record is durable before we either
	// report interruption or attempt the merge.
	if err := j.Sync(); err != nil {
		return nil, err
	}
	if sum.Interrupted {
		return sum, ErrInterrupted
	}
	// Every spec now has a terminal record: write the merged result set.
	path, err := Merge(dir)
	if err != nil {
		return nil, err
	}
	sum.ResultsPath = path
	return sum, nil
}

// runPool drains pending through cfg.Workers workers, accumulating
// into sum (guarded by a mutex shared with the journal's own).
func runPool(ctx context.Context, dir string, cfg RunConfig, j *Journal, pending []corpus.Item, sum *Summary) error {
	cache := experiment.NewDeployCache(0)
	work := make(chan corpus.Item)
	// stop is closed when a worker bails (error or interrupt) so the
	// feed loop never blocks sending to a pool with no receivers left —
	// with one worker that block would otherwise be a guaranteed hang.
	stop := make(chan struct{})
	var stopOnce sync.Once
	halt := func() { stopOnce.Do(func() { close(stop) }) }
	var mu sync.Mutex
	var firstErr error
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
		halt()
	}

	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			arena := experiment.NewArenaWithCache(cache)
			for it := range work {
				rec, err := runOne(ctx, dir, cfg, j, arena, it)
				if err != nil {
					fail(err)
					return
				}
				if rec == nil {
					// Interrupted mid-spec: no terminal record; resume
					// reruns it.
					mu.Lock()
					sum.Interrupted = true
					mu.Unlock()
					halt()
					return
				}
				mu.Lock()
				switch {
				case rec.Op == OpDone:
					sum.Completed++
				default:
					sum.Failed++
					if rec.FailKind == FailPanic {
						sum.Quarantined++
					}
				}
				sum.Retries += rec.Attempt - 1
				mu.Unlock()
				if cfg.Log != nil {
					detail := rec.Digest
					if rec.Op == OpFail {
						detail = rec.FailKind
					}
					fmt.Fprintf(cfg.Log, "%-4s %s %s\n", rec.Op, rec.ID, detail)
				}
				if cfg.OnRecord != nil {
					cfg.OnRecord(*rec)
				}
			}
		}()
	}

feed:
	for _, it := range pending {
		select {
		case work <- it:
		case <-ctx.Done():
			mu.Lock()
			sum.Interrupted = true
			mu.Unlock()
			break feed
		case <-stop:
			break feed
		}
	}
	close(work)
	wg.Wait()
	return firstErr
}

// runOne runs one spec to a terminal record, retrying wall-clock budget
// overruns and quarantining panics. It returns (nil, nil) when interrupted by
// ctx before reaching a terminal state.
func runOne(ctx context.Context, dir string, cfg RunConfig, j *Journal, arena *experiment.Arena, it corpus.Item) (*Record, error) {
	// Jittered backoff seeded per spec: reproducible scheduling in
	// tests without coordination between workers.
	rng := rand.New(rand.NewSource(it.Spec.Seed))
	for attempt := 1; ; attempt++ {
		if ctx.Err() != nil {
			return nil, nil
		}
		if err := j.Append(Record{Op: OpClaim, Attempt: attempt, ResultRecord: ResultRecord{Index: it.Index, ID: it.ID}}); err != nil {
			return nil, err
		}

		// Force the auditor on: done records must carry the trace
		// digest, whatever the spec says.
		spec := *it.Spec
		spec.Audit = true
		res, runErr := experiment.RunSpecContextWith(ctx, arena, &spec, cfg.Budget)

		var rec Record
		switch {
		case runErr == nil:
			rec = Record{Op: OpDone, Attempt: attempt, ResultRecord: ResultRecord{
				Index:         it.Index,
				ID:            it.ID,
				Protocol:      string(res.Protocol),
				Seed:          res.Seed,
				Status:        "ok",
				Digest:        res.Audit.Digest,
				Events:        res.Events,
				TreeSize:      res.TreeSize,
				MaxRank:       res.MaxRank,
				Coverage:      res.Coverage,
				DutyCycle:     res.DutyCycle,
				LatencyMeanNs: res.Latency.Mean.Nanoseconds(),
				Violations:    res.Audit.Total,
				Records:       res.Records,
			}}

		case errors.Is(runErr, context.Canceled) || errors.Is(runErr, context.DeadlineExceeded):
			return nil, nil

		default:
			var pe *experiment.PanicError
			var be *experiment.BudgetExceededError
			switch {
			case errors.As(runErr, &pe):
				qdir, qerr := quarantine(dir, it, attempt, pe)
				if qerr != nil {
					return nil, qerr
				}
				rec = Record{Op: OpFail, Attempt: attempt, ResultRecord: ResultRecord{
					Index: it.Index, ID: it.ID,
					Protocol: string(pe.Protocol), Seed: pe.Seed,
					Status: "failed", FailKind: FailPanic,
					Error:      pe.Error(),
					Quarantine: qdir,
				}}
			case errors.As(runErr, &be):
				if be.Resource == "wall-clock" && attempt <= cfg.MaxRetries {
					select {
					case <-time.After(retryDelay(cfg.RetryBackoff, attempt, rng)):
						continue
					case <-ctx.Done():
						return nil, nil
					}
				}
				// Normalized message: BudgetExceededError.Error() embeds
				// wall-clock elapsed time, which would break merged-result
				// byte-identity across runs.
				rec = Record{Op: OpFail, Attempt: attempt, ResultRecord: ResultRecord{
					Index: it.Index, ID: it.ID,
					Protocol: it.Spec.Protocol, Seed: it.Spec.Seed,
					Status: "failed", FailKind: FailBudget,
					Error: fmt.Sprintf("exceeded %s budget after %d attempts", be.Resource, attempt),
				}}
			default:
				rec = Record{Op: OpFail, Attempt: attempt, ResultRecord: ResultRecord{
					Index: it.Index, ID: it.ID,
					Protocol: it.Spec.Protocol, Seed: it.Spec.Seed,
					Status: "failed", FailKind: FailBuild,
					Error: runErr.Error(),
				}}
			}
		}
		if err := j.Append(rec); err != nil {
			return nil, err
		}
		return &rec, nil
	}
}

// quarantine writes a panic repro bundle under dir/quarantine/<id>/:
// spec.json (runnable via essat-sim -scenario), panic.txt (value +
// stack), and meta.json. It returns the bundle directory relative to
// the campaign root.
func quarantine(root string, it corpus.Item, attempt int, pe *experiment.PanicError) (string, error) {
	rel := filepath.Join(quarantineDir, it.ID)
	dir := filepath.Join(root, rel)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("campaign: %w", err)
	}
	specJSON := pe.SpecJSON
	if specJSON == nil {
		data, err := json.MarshalIndent(it.Spec, "", "  ")
		if err != nil {
			return "", fmt.Errorf("campaign: %w", err)
		}
		specJSON = data
	}
	if err := os.WriteFile(filepath.Join(dir, "spec.json"), append(specJSON, '\n'), 0o644); err != nil {
		return "", fmt.Errorf("campaign: %w", err)
	}
	body := fmt.Sprintf("panic: %v\n\nprotocol: %s\nseed: %d\nattempt: %d\n\n%s",
		pe.Value, pe.Protocol, pe.Seed, attempt, pe.Stack)
	if err := os.WriteFile(filepath.Join(dir, "panic.txt"), []byte(body), 0o644); err != nil {
		return "", fmt.Errorf("campaign: %w", err)
	}
	meta := map[string]any{
		"id": it.ID, "index": it.Index,
		"protocol": string(pe.Protocol), "seed": pe.Seed,
		"attempt": attempt, "value": fmt.Sprint(pe.Value),
	}
	data, err := json.MarshalIndent(meta, "", "  ")
	if err != nil {
		return "", fmt.Errorf("campaign: %w", err)
	}
	if err := os.WriteFile(filepath.Join(dir, "meta.json"), append(data, '\n'), 0o644); err != nil {
		return "", fmt.Errorf("campaign: %w", err)
	}
	return rel, nil
}

// Merge folds the campaign journal into the merged result set,
// dir/results.jsonl: one deterministic ResultRecord line per spec in
// manifest (index) order. It fails with ErrIncomplete if any spec
// lacks a terminal record. The file is written atomically (temp +
// rename), and its bytes depend only on the terminal outcomes — never
// on worker interleaving, retries, restarts, or resumes — which is the
// campaign layer's core crash-safety guarantee.
func Merge(dir string) (string, error) {
	man, err := readManifest(dir)
	if err != nil {
		return "", err
	}
	recs, err := ReadJournal(filepath.Join(dir, journalName))
	if err != nil {
		return "", err
	}
	terminal := Replay(recs).Terminal

	var buf []byte
	for _, e := range man.Specs {
		rec, ok := terminal[e.Index]
		if !ok {
			return "", fmt.Errorf("%w: spec %d (%s)", ErrIncomplete, e.Index, e.ID)
		}
		line, err := json.Marshal(rec.ResultRecord)
		if err != nil {
			return "", fmt.Errorf("campaign: %w", err)
		}
		buf = append(buf, line...)
		buf = append(buf, '\n')
	}

	// A unique temp file per caller: a `merge` racing the run that
	// completes the campaign would otherwise interleave truncates and
	// writes on a shared temp path. Rename is atomic and both write
	// identical bytes, so whichever lands last is still correct.
	path := filepath.Join(dir, ResultsName)
	tmp, err := os.CreateTemp(dir, ResultsName+".tmp-")
	if err != nil {
		return "", fmt.Errorf("campaign: %w", err)
	}
	if _, err := tmp.Write(buf); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return "", fmt.Errorf("campaign: %w", err)
	}
	if err := tmp.Chmod(0o644); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return "", fmt.Errorf("campaign: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return "", fmt.Errorf("campaign: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return "", fmt.Errorf("campaign: %w", err)
	}
	return path, nil
}

// Status summarizes a campaign directory's progress.
type Status struct {
	// Specs counts the corpus; Done, Failed, and Pending count its
	// specs by terminal state in the journal.
	Specs   int
	Done    int
	Failed  int
	Pending int
	// Merged reports whether results.jsonl exists.
	Merged bool
}

// ReadStatus reads the manifest and the journal at dir.
func ReadStatus(dir string) (*Status, error) {
	man, err := readManifest(dir)
	if err != nil {
		return nil, err
	}
	recs, err := ReadJournal(filepath.Join(dir, journalName))
	if err != nil {
		return nil, err
	}
	prog := Replay(recs)
	st := &Status{Specs: len(man.Specs)}
	for _, e := range man.Specs {
		rec, ok := prog.Terminal[e.Index]
		switch {
		case !ok:
			st.Pending++
		case rec.Op == OpDone:
			st.Done++
		default:
			st.Failed++
		}
	}
	if _, err := os.Stat(filepath.Join(dir, ResultsName)); err == nil {
		st.Merged = true
	}
	return st, nil
}

// readManifest reads just the corpus manifest (no spec files).
func readManifest(dir string) (*corpus.Manifest, error) {
	data, err := os.ReadFile(filepath.Join(dir, corpus.ManifestName))
	if err != nil {
		return nil, fmt.Errorf("campaign: %w", err)
	}
	var m corpus.Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("campaign: %s: %w", corpus.ManifestName, err)
	}
	return &m, nil
}

package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/essat/essat/internal/corpus"
	"github.com/essat/essat/internal/experiment"
	"github.com/essat/essat/internal/protocol"
)

// campaignPanicProto wires a normal NTS-SS stack and then panics
// mid-run — the shape of a protocol bug a campaign must quarantine
// rather than die from.
func campaignPanicProto(ctx *protocol.BuildContext) {
	nts, _ := protocol.Lookup(protocol.NTSSS)
	nts(ctx)
	ctx.Eng.After(500*time.Millisecond, func() { panic("injected campaign bug") })
}

const campaignPanicName protocol.Protocol = "campaign-panic"

func TestMain(m *testing.M) {
	protocol.RegisterTestDouble(campaignPanicName, campaignPanicProto)
	os.Exit(m.Run())
}

// genCorpus writes a small fast corpus (24-node, 3s runs) to a temp
// dir and returns the dir.
func genCorpus(t *testing.T, count int) string {
	t.Helper()
	dir := t.TempDir()
	cfg := corpus.Config{Seed: 7, Count: count, MaxNodes: 24, MaxDuration: 3 * time.Second}
	items, err := corpus.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := corpus.Write(dir, cfg, items); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestJournalTornFinalLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j, err := OpenJournal(path, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := []Record{
		{Op: OpClaim, Attempt: 1, ResultRecord: ResultRecord{Index: 0, ID: "a"}},
		{Op: OpDone, Attempt: 1, ResultRecord: ResultRecord{Index: 0, ID: "a", Status: "ok", Digest: "deadbeefdeadbeef"}},
	}
	for _, rec := range want {
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate a SIGKILL mid-write: a partial record with no newline.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"op":"done","idx":1,"id":"b","st`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	recs, err := ReadJournal(path)
	if err != nil {
		t.Fatalf("torn final line must be tolerated, got %v", err)
	}
	if len(recs) != len(want) {
		t.Fatalf("read %d records, want %d (torn line dropped)", len(recs), len(want))
	}
	for i := range want {
		if recs[i].Op != want[i].Op || recs[i].Index != want[i].Index || recs[i].Digest != want[i].Digest {
			t.Fatalf("record %d = %+v, want %+v", i, recs[i], want[i])
		}
	}

	// Corruption anywhere earlier is NOT tolerated: truncating a middle
	// line must fail loudly instead of silently dropping records.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	corrupt := bytes.Replace(data, []byte(`{"op":"claim"`), []byte(`{"op:"claim"`), 1)
	if err := os.WriteFile(path, corrupt, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadJournal(path); err == nil {
		t.Fatal("ReadJournal accepted a corrupt non-final line")
	}
}

// TestJournalResumeAfterTornTail: reopening a journal whose final line
// is torn must truncate the tail before appending — with O_APPEND the
// first resumed record would otherwise concatenate onto the partial
// line, turning a tolerated torn tail into corruption that poisons
// every later read (merge, status, further resumes).
func TestJournalResumeAfterTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j, err := OpenJournal(path, 1)
	if err != nil {
		t.Fatal(err)
	}
	pre := []Record{
		{Op: OpClaim, Attempt: 1, ResultRecord: ResultRecord{Index: 0, ID: "a"}},
		{Op: OpDone, Attempt: 1, ResultRecord: ResultRecord{Index: 0, ID: "a", Status: "ok", Digest: "d0"}},
	}
	for _, rec := range pre {
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// SIGKILL mid-write: a partial record with no newline.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"op":"done","idx":1,"id":"b","st`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// Resume with the default batched config, as a real resume would.
	j2, err := OpenJournal(path, DefaultSyncEvery)
	if err != nil {
		t.Fatal(err)
	}
	post := []Record{
		{Op: OpClaim, Attempt: 1, ResultRecord: ResultRecord{Index: 1, ID: "b"}},
		{Op: OpDone, Attempt: 1, ResultRecord: ResultRecord{Index: 1, ID: "b", Status: "ok", Digest: "d1"}},
	}
	for _, rec := range post {
		if err := j2.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}

	recs, err := ReadJournal(path)
	if err != nil {
		t.Fatalf("journal unreadable after resuming past a torn tail: %v", err)
	}
	if len(recs) != len(pre)+len(post) {
		t.Fatalf("read %d records, want %d (torn tail truncated, resumed records intact)", len(recs), len(pre)+len(post))
	}
	prog := Replay(recs)
	if prog.Terminal[0].Digest != "d0" || prog.Terminal[1].Digest != "d1" {
		t.Fatalf("replay terminals = %+v, want digests d0 and d1", prog.Terminal)
	}
}

func TestJournalMissingFileIsEmpty(t *testing.T) {
	recs, err := ReadJournal(filepath.Join(t.TempDir(), "nope.jsonl"))
	if err != nil || recs != nil {
		t.Fatalf("missing journal = (%v, %v), want (nil, nil)", recs, err)
	}
}

// TestReplayDuplicateTerminal: duplicate done-records resolve
// deterministically — the first wins.
func TestReplayDuplicateTerminal(t *testing.T) {
	prog := Replay([]Record{
		{Op: OpClaim, ResultRecord: ResultRecord{Index: 3}},
		{Op: OpDone, ResultRecord: ResultRecord{Index: 3, Status: "ok", Digest: "first"}},
		{Op: OpDone, ResultRecord: ResultRecord{Index: 3, Status: "ok", Digest: "second"}},
		{Op: OpFail, ResultRecord: ResultRecord{Index: 3, Status: "failed"}},
	})
	rec, ok := prog.Terminal[3]
	if !ok || rec.Digest != "first" {
		t.Fatalf("Terminal[3] = %+v, want the first done record", rec)
	}
	if prog.Claims[3] != 1 {
		t.Fatalf("Claims[3] = %d, want 1", prog.Claims[3])
	}
}

// TestCampaignResumeDigestMatch is the tentpole's core guarantee: a
// campaign interrupted mid-flight and resumed produces a merged result
// set byte-identical to an uninterrupted run of the same corpus.
func TestCampaignResumeDigestMatch(t *testing.T) {
	const count = 4

	// Reference: uninterrupted.
	refDir := genCorpus(t, count)
	refSum, err := Run(context.Background(), refDir, RunConfig{Workers: 2, SyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	if refSum.Completed != count || refSum.ResultsPath == "" {
		t.Fatalf("reference run = %+v, want %d completed and a merged result set", refSum, count)
	}
	refResults, err := os.ReadFile(refSum.ResultsPath)
	if err != nil {
		t.Fatal(err)
	}

	// Interrupted: cancel after the first terminal record, mid-campaign.
	intDir := genCorpus(t, count)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var terminal atomic.Int32
	_, err = Run(ctx, intDir, RunConfig{
		Workers:   2,
		SyncEvery: 1,
		OnRecord: func(Record) {
			if terminal.Add(1) == 1 {
				cancel()
			}
		},
	})
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("interrupted run returned %v, want ErrInterrupted", err)
	}
	recs, err := ReadJournal(filepath.Join(intDir, journalName))
	if err != nil {
		t.Fatal(err)
	}
	prog := Replay(recs)
	if len(prog.Terminal) == 0 || len(prog.Terminal) >= count {
		t.Fatalf("interrupted journal has %d terminal records, want mid-campaign (0 < n < %d)", len(prog.Terminal), count)
	}
	st, err := ReadStatus(intDir)
	if err != nil {
		t.Fatal(err)
	}
	if st.Specs != count || st.Done+st.Failed != len(prog.Terminal) || st.Pending != count-len(prog.Terminal) || st.Merged {
		t.Fatalf("status of interrupted campaign = %+v, want %d journaled, %d pending, unmerged", st, len(prog.Terminal), count-len(prog.Terminal))
	}

	// Resume: skips completed specs, finishes the rest, merges.
	resSum, err := Run(context.Background(), intDir, RunConfig{Workers: 2, SyncEvery: 1, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if resSum.Skipped != len(prog.Terminal) {
		t.Fatalf("resume skipped %d specs, want %d (the journaled ones)", resSum.Skipped, len(prog.Terminal))
	}
	if resSum.ResultsPath == "" {
		t.Fatal("resume did not merge a complete campaign")
	}
	gotResults, err := os.ReadFile(resSum.ResultsPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotResults, refResults) {
		t.Fatalf("merged results after interrupt+resume differ from uninterrupted reference:\n--- resumed\n%s--- reference\n%s", gotResults, refResults)
	}
}

// TestCampaignRefusesStaleJournal: a fresh `run` against a campaign
// that already has journal records must refuse, pointing at resume.
func TestCampaignRefusesStaleJournal(t *testing.T) {
	dir := genCorpus(t, 1)
	if _, err := Run(context.Background(), dir, RunConfig{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(context.Background(), dir, RunConfig{Workers: 1}); !errors.Is(err, ErrJournalExists) {
		t.Fatalf("rerun without Resume returned %v, want ErrJournalExists", err)
	}
	// Resume against the complete campaign is a no-op that still merges.
	sum, err := Run(context.Background(), dir, RunConfig{Workers: 1, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Skipped != 1 || sum.Completed != 0 || sum.ResultsPath == "" {
		t.Fatalf("resume of complete campaign = %+v, want 1 skipped, 0 run, merged", sum)
	}
}

// TestCampaignBudgetRetry: a spec that exhausts its wall-clock budget
// retries up to the cap with backoff, while one that exhausts its
// (exact, deterministic) events budget fails on the first attempt. Both
// land a terminal budget failure with a deterministic (wall-clock-free)
// message.
func TestCampaignBudgetRetry(t *testing.T) {
	cases := []struct {
		name     string
		budget   experiment.Budget
		attempts int
		message  string
	}{
		{"events", experiment.Budget{MaxEvents: 200}, 1, "exceeded events budget after 1 attempts"},
		{"wall-clock", experiment.Budget{WallClock: time.Nanosecond}, 3, "exceeded wall-clock budget after 3 attempts"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := genCorpus(t, 1)
			sum, err := Run(context.Background(), dir, RunConfig{
				Workers:      1,
				Budget:       tc.budget,
				MaxRetries:   2,
				RetryBackoff: time.Millisecond,
				SyncEvery:    1,
			})
			if err != nil {
				t.Fatal(err)
			}
			if sum.Failed != 1 || sum.Retries != tc.attempts-1 || sum.Quarantined != 0 {
				t.Fatalf("summary = %+v, want 1 failed after %d retries, none quarantined", sum, tc.attempts-1)
			}
			recs, err := ReadJournal(filepath.Join(dir, journalName))
			if err != nil {
				t.Fatal(err)
			}
			prog := Replay(recs)
			if prog.Claims[0] != tc.attempts {
				t.Fatalf("journal has %d claims, want %d", prog.Claims[0], tc.attempts)
			}
			rec := prog.Terminal[0]
			if rec.Op != OpFail || rec.FailKind != FailBudget {
				t.Fatalf("terminal record = %+v, want a budget failure", rec)
			}
			if rec.Error != tc.message {
				t.Fatalf("budget failure message %q, want the normalized deterministic %q", rec.Error, tc.message)
			}
		})
	}
}

// TestCampaignQuarantine: a panicking spec leaves a complete repro
// bundle in quarantine/ while the campaign runs to completion and
// merges, with the failure recorded in the result set.
func TestCampaignQuarantine(t *testing.T) {
	dir := t.TempDir()
	specs := []*experiment.Spec{
		{Protocol: string(campaignPanicName), Seed: 3, Nodes: 30, Area: 300,
			Duration: experiment.Dur(2 * time.Second),
			Workload: &experiment.WorkloadSpec{BaseRate: 1, PerClass: 1}},
		{Protocol: string(protocol.NTSSS), Seed: 4, Nodes: 30, Area: 300,
			Duration: experiment.Dur(2 * time.Second),
			Workload: &experiment.WorkloadSpec{BaseRate: 1, PerClass: 1}},
	}
	items := []corpus.Item{
		{Index: 0, ID: "0000-campaign-panic", Spec: specs[0]},
		{Index: 1, ID: "0001-nts-ss", Spec: specs[1]},
	}
	if err := corpus.Write(dir, corpus.Config{Seed: 3, Count: 2}, items); err != nil {
		t.Fatal(err)
	}

	sum, err := Run(context.Background(), dir, RunConfig{Workers: 2, SyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Completed != 1 || sum.Failed != 1 || sum.Quarantined != 1 {
		t.Fatalf("summary = %+v, want 1 completed, 1 quarantined failure", sum)
	}
	if sum.ResultsPath == "" {
		t.Fatal("campaign with a quarantined spec did not complete and merge")
	}

	// The repro bundle: spec + stack, enough to replay the crash.
	qdir := filepath.Join(dir, quarantineDir, "0000-campaign-panic")
	specJSON, err := os.ReadFile(filepath.Join(qdir, "spec.json"))
	if err != nil {
		t.Fatalf("quarantine bundle missing spec.json: %v", err)
	}
	respec, err := experiment.ParseSpec(specJSON)
	if err != nil {
		t.Fatalf("quarantined spec.json does not parse: %v", err)
	}
	if respec.Protocol != string(campaignPanicName) || respec.Seed != 3 {
		t.Fatalf("quarantined spec = (%s, %d), want the panicking spec", respec.Protocol, respec.Seed)
	}
	stack, err := os.ReadFile(filepath.Join(qdir, "panic.txt"))
	if err != nil {
		t.Fatalf("quarantine bundle missing panic.txt: %v", err)
	}
	if !strings.Contains(string(stack), "injected campaign bug") || !strings.Contains(string(stack), "campaignPanicProto") {
		t.Fatalf("panic.txt does not carry the panic value and stack:\n%s", stack)
	}
	if _, err := os.Stat(filepath.Join(qdir, "meta.json")); err != nil {
		t.Fatalf("quarantine bundle missing meta.json: %v", err)
	}

	// The merged result set records the failure and points at the bundle.
	data, err := os.ReadFile(sum.ResultsPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(data), []byte{'\n'})
	if len(lines) != 2 {
		t.Fatalf("results.jsonl has %d lines, want 2", len(lines))
	}
	var failed ResultRecord
	if err := json.Unmarshal(lines[0], &failed); err != nil {
		t.Fatal(err)
	}
	if failed.Status != "failed" || failed.FailKind != FailPanic || failed.Quarantine == "" {
		t.Fatalf("failed result line = %+v, want a quarantined panic failure", failed)
	}
}

// TestCampaignWorkerErrorNoDeadlock: when every worker bails on an
// infrastructure error (here: the quarantine directory is unwritable)
// while the context is still live, the feed loop must stop instead of
// blocking forever on the work channel — with one worker that block is
// a guaranteed hang, turning a reportable error into a wedged process.
func TestCampaignWorkerErrorNoDeadlock(t *testing.T) {
	dir := t.TempDir()
	specs := []*experiment.Spec{
		{Protocol: string(campaignPanicName), Seed: 3, Nodes: 30, Area: 300,
			Duration: experiment.Dur(2 * time.Second),
			Workload: &experiment.WorkloadSpec{BaseRate: 1, PerClass: 1}},
		{Protocol: string(protocol.NTSSS), Seed: 4, Nodes: 30, Area: 300,
			Duration: experiment.Dur(2 * time.Second),
			Workload: &experiment.WorkloadSpec{BaseRate: 1, PerClass: 1}},
	}
	items := []corpus.Item{
		{Index: 0, ID: "0000-campaign-panic", Spec: specs[0]},
		{Index: 1, ID: "0001-nts-ss", Spec: specs[1]},
	}
	if err := corpus.Write(dir, corpus.Config{Seed: 3, Count: 2}, items); err != nil {
		t.Fatal(err)
	}
	// A regular file where the quarantine directory belongs makes the
	// panic spec's repro-bundle write fail, which errors the worker out.
	if err := os.WriteFile(filepath.Join(dir, quarantineDir), nil, 0o644); err != nil {
		t.Fatal(err)
	}

	type result struct {
		sum *Summary
		err error
	}
	done := make(chan result, 1)
	go func() {
		sum, err := Run(context.Background(), dir, RunConfig{Workers: 1, SyncEvery: 1})
		done <- result{sum, err}
	}()
	select {
	case res := <-done:
		if res.err == nil {
			t.Fatalf("Run = %+v, want the quarantine write error", res.sum)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Run deadlocked after the worker errored out")
	}
}

// TestRetryDelayOverflowSafe: user-settable retry counts must never
// shift the backoff into overflow — a non-positive duration panics the
// jitter draw, crashing the worker on the very path retries absorb.
func TestRetryDelayOverflowSafe(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, attempt := range []int{1, 2, 10, 62, 63, 64, 100, 1 << 20} {
		d := retryDelay(DefaultRetryBackoff, attempt, rng)
		if d <= 0 || d > 2*MaxRetryBackoff {
			t.Fatalf("retryDelay(attempt=%d) = %v, want in (0, %v]", attempt, d, 2*MaxRetryBackoff)
		}
	}
}

// TestCampaignMergeWorkerInvariant runs the same records-bearing corpus
// on one worker and on four and requires byte-identical merged results:
// merge order is manifest order, not completion order.
func TestCampaignMergeWorkerInvariant(t *testing.T) {
	read := func(workers int) []byte {
		t.Helper()
		// genCorpus seeds every dir identically, so the specs match and
		// half of them carry results blocks (corpus attaches sinks to
		// every 4th spec in two flavors).
		dir := genCorpus(t, 8)
		if _, err := Merge(dir); !errors.Is(err, ErrIncomplete) {
			t.Fatalf("Merge of unstarted campaign returned %v, want ErrIncomplete", err)
		}
		sum, err := Run(context.Background(), dir, RunConfig{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if sum.ResultsPath == "" {
			t.Fatalf("campaign on %d workers did not merge", workers)
		}
		data, err := os.ReadFile(sum.ResultsPath)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	serial, pooled := read(1), read(4)
	if !bytes.Equal(serial, pooled) {
		t.Fatalf("4-worker merge differs from 1-worker merge:\n%s\n---\n%s", serial, pooled)
	}
	if !bytes.Contains(serial, []byte(`"records"`)) {
		t.Fatal("merged results carry no sink records; corpus should attach sinks")
	}
}

// TestCampaignRetiredShardLayout pins how directories written when a
// campaign could be split into shards still run: the manifest's
// "shards" key is ignored, and only journal-000.jsonl is read, so specs
// recorded in another journal run again and the merge is unchanged.
func TestCampaignRetiredShardLayout(t *testing.T) {
	const count = 4
	refDir := genCorpus(t, count)
	refSum, err := Run(context.Background(), refDir, RunConfig{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	refResults, err := os.ReadFile(refSum.ResultsPath)
	if err != nil {
		t.Fatal(err)
	}
	refJournal, err := os.ReadFile(filepath.Join(refDir, journalName))
	if err != nil {
		t.Fatal(err)
	}

	// retiredDir writes the corpus with the manifest key a sharded
	// campaign carried.
	retiredDir := func(t *testing.T) string {
		t.Helper()
		dir := genCorpus(t, count)
		mpath := filepath.Join(dir, corpus.ManifestName)
		data, err := os.ReadFile(mpath)
		if err != nil {
			t.Fatal(err)
		}
		old := bytes.Replace(data, []byte(`"count": 4,`), []byte(`"count": 4,
  "shards": 2,`), 1)
		if bytes.Equal(old, data) {
			t.Fatal("manifest layout changed; cannot insert the retired shards key")
		}
		if err := os.WriteFile(mpath, old, 0o644); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	merged := func(t *testing.T, sum *Summary) []byte {
		t.Helper()
		if sum.ResultsPath == "" {
			t.Fatalf("run = %+v, want a merged result set", sum)
		}
		data, err := os.ReadFile(sum.ResultsPath)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}

	t.Run("shards key ignored", func(t *testing.T) {
		dir := retiredDir(t)
		sum, err := Run(context.Background(), dir, RunConfig{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		if got := merged(t, sum); !bytes.Equal(got, refResults) {
			t.Fatalf("merged results differ from a corpus without the shards key:\n%s---\n%s", got, refResults)
		}
		st, err := ReadStatus(dir)
		if err != nil {
			t.Fatal(err)
		}
		if st.Specs != count || st.Done+st.Failed != count || st.Pending != 0 || !st.Merged {
			t.Fatalf("status = %+v, want %d specs journaled and merged", st, count)
		}
	})

	t.Run("other journal rerun", func(t *testing.T) {
		dir := retiredDir(t)
		other := filepath.Join(dir, "journal-001.jsonl")
		if err := os.WriteFile(other, refJournal, 0o644); err != nil {
			t.Fatal(err)
		}
		sum, err := Run(context.Background(), dir, RunConfig{Workers: 2, Resume: true})
		if err != nil {
			t.Fatal(err)
		}
		if sum.Skipped != 0 || sum.Completed != count {
			t.Fatalf("resume = %+v, want all %d specs rerun into %s", sum, count, journalName)
		}
		if got := merged(t, sum); !bytes.Equal(got, refResults) {
			t.Fatalf("merged results differ from the reference:\n%s---\n%s", got, refResults)
		}
		if data, err := os.ReadFile(other); err != nil || !bytes.Equal(data, refJournal) {
			t.Fatalf("journal-001.jsonl changed (err %v); it must be left unread", err)
		}
	})
}

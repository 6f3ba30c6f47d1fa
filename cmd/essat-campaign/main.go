// Command essat-campaign orchestrates crash-safe batch campaigns over
// generated workload corpora:
//
//	essat-campaign gen -dir corpus/ -seed 42 -count 252
//	essat-campaign run -dir corpus/ [-workers 8] [-max-events 5000000]
//	essat-campaign resume -dir corpus/
//	essat-campaign status -dir corpus/
//	essat-campaign merge -dir corpus/
//
// gen writes a seeded, reproducible corpus (spec files + manifest);
// run executes it on a bounded worker pool, journaling every outcome
// to an append-only JSONL write-ahead log, fsync'd in batches.
// SIGINT/SIGTERM checkpoints the journal and exits resumable; resume
// replays the journal (tolerating a torn final line), skips completed
// specs, and finishes the rest. Whichever invocation completes the
// final spec merges the journal into results.jsonl — one deterministic
// line per spec, byte-identical whether the campaign ran uninterrupted
// or was killed and resumed any number of times.
//
// Specs that exhaust their budget retry with jittered backoff up to a
// cap; specs that panic leave a repro bundle (spec + seed + stack)
// under quarantine/ and the campaign carries on.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/essat/essat/internal/campaign"
	"github.com/essat/essat/internal/corpus"
	"github.com/essat/essat/internal/experiment"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "gen":
		err = cmdGen(os.Args[2:])
	case "run":
		err = cmdRun(os.Args[2:], false)
	case "resume":
		err = cmdRun(os.Args[2:], true)
	case "status":
		err = cmdStatus(os.Args[2:])
	case "merge":
		err = cmdMerge(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "essat-campaign: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		if errors.Is(err, campaign.ErrInterrupted) {
			fmt.Fprintln(os.Stderr, "essat-campaign: interrupted; journal checkpointed — rerun with `resume` to continue")
			os.Exit(130)
		}
		fmt.Fprintf(os.Stderr, "essat-campaign: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `usage: essat-campaign <command> [flags]

commands:
  gen     generate a seeded corpus (specs + manifest) into -dir
  run     run the campaign, journaling outcomes
  resume  continue an interrupted run from its journal
  status  report progress
  merge   write the merged result set (requires a complete campaign)

run 'essat-campaign <command> -h' for command flags
`)
}

func cmdGen(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	dir := fs.String("dir", "", "corpus directory to create (required)")
	seed := fs.Int64("seed", 1, "corpus seed; same seed+count regenerates identical specs")
	count := fs.Int("count", 252, "number of specs (252 = one full protocol×topology×propagation×radio cross-product)")
	maxNodes := fs.Int("max-nodes", 48, "largest deployment size to draw")
	maxDur := fs.Duration("max-duration", 6*time.Second, "longest simulated duration to draw")
	fs.Parse(args)
	if *dir == "" {
		return errors.New("gen: -dir is required")
	}
	cfg := corpus.Config{Seed: *seed, Count: *count, MaxNodes: *maxNodes, MaxDuration: *maxDur}
	items, err := corpus.Generate(cfg)
	if err != nil {
		return err
	}
	if err := corpus.Write(*dir, cfg, items); err != nil {
		return err
	}
	fmt.Printf("wrote %d specs to %s\n", len(items), *dir)
	return nil
}

func cmdRun(args []string, resume bool) error {
	name := "run"
	if resume {
		name = "resume"
	}
	fs := flag.NewFlagSet(name, flag.ExitOnError)
	dir := fs.String("dir", "", "corpus directory (required)")
	workers := fs.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
	maxEvents := fs.Uint64("max-events", 20_000_000, "per-run event budget (0 = unlimited)")
	wallClock := fs.Duration("wall-clock", 0, "per-run wall-clock budget (0 = unlimited)")
	retries := fs.Int("retries", campaign.DefaultMaxRetries, "wall-clock budget retries per spec (an events budget overrun is never retried)")
	syncEvery := fs.Int("sync-every", campaign.DefaultSyncEvery, "journal fsync batch size (1 = every record)")
	quiet := fs.Bool("q", false, "suppress per-spec progress lines")
	fs.Parse(args)
	if *dir == "" {
		return fmt.Errorf("%s: -dir is required", name)
	}

	// SIGINT/SIGTERM cancel the context; the runner checkpoints the
	// journal and returns ErrInterrupted, which main maps to exit 130.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	cfg := campaign.RunConfig{
		Workers:    *workers,
		Budget:     experiment.Budget{MaxEvents: *maxEvents, WallClock: *wallClock},
		MaxRetries: *retries,
		SyncEvery:  *syncEvery,
		Resume:     resume,
	}
	if !*quiet {
		cfg.Log = os.Stderr
	}
	sum, err := campaign.Run(ctx, *dir, cfg)
	if err != nil {
		return err
	}
	fmt.Printf("%d specs: %d completed, %d failed (%d quarantined), %d skipped, %d retries\n",
		sum.Total, sum.Completed, sum.Failed, sum.Quarantined, sum.Skipped, sum.Retries)
	fmt.Printf("campaign complete: merged results at %s\n", sum.ResultsPath)
	return nil
}

func cmdStatus(args []string) error {
	fs := flag.NewFlagSet("status", flag.ExitOnError)
	dir := fs.String("dir", "", "corpus directory (required)")
	fs.Parse(args)
	if *dir == "" {
		return errors.New("status: -dir is required")
	}
	st, err := campaign.ReadStatus(*dir)
	if err != nil {
		return err
	}
	fmt.Printf("%d specs: %d done, %d failed, %d pending\n",
		st.Specs, st.Done, st.Failed, st.Pending)
	if st.Merged {
		fmt.Println("merged: results.jsonl present")
	}
	return nil
}

func cmdMerge(args []string) error {
	fs := flag.NewFlagSet("merge", flag.ExitOnError)
	dir := fs.String("dir", "", "corpus directory (required)")
	fs.Parse(args)
	if *dir == "" {
		return errors.New("merge: -dir is required")
	}
	path, err := campaign.Merge(*dir)
	if err != nil {
		return err
	}
	fmt.Printf("merged results at %s\n", path)
	return nil
}

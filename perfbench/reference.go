package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"github.com/essat/essat/internal/experiment"
)

// writeReference regenerates the reference outputs of every input the
// workloads can draw, through the plain public entry points (a fresh
// engine per run), so the benchmark's arena and observer paths are
// checked against an independent run. Before writing, it reruns the
// configurations testdata/golden.json pins under the auditor and
// refuses to write a reference that disagrees with the golden digests.
func writeReference(path string, golden map[string]map[string]string, log io.Writer) error {
	ref := map[string]string{}
	put := func(key string, res *experiment.Result, err error) error {
		if err != nil {
			return fmt.Errorf("%s: %w", key, err)
		}
		fp, err := fingerprint(res)
		if err != nil {
			return fmt.Errorf("%s: %w", key, err)
		}
		ref[key] = refEntry(res.Events, fp)
		return nil
	}
	for seed := int64(1); seed <= gridSeeds; seed++ {
		for _, p := range gridProtocols {
			for _, rate := range gridRates {
				res, err := experiment.Run(gridScenario(p, rate, seed))
				if err := put(gridKey(p, rate, seed), res, err); err != nil {
					return err
				}
			}
		}
		fmt.Fprintf(log, "reference: paper-grid seed %d\n", seed)
	}
	for seed := int64(1); seed <= hugeSeeds; seed++ {
		spec, err := hugeSpec(seed, hugeDuration)
		if err != nil {
			return err
		}
		res, err := experiment.RunSpec(spec)
		if err := put(hugeKey(seed), res, err); err != nil {
			return err
		}
		fmt.Fprintf(log, "reference: tier-10k seed %d\n", seed)
	}
	b := &bench{ref: ref, golden: golden}
	b.gridCrossCheck()
	b.hugeCrossCheck()
	if b.failed > 0 {
		return fmt.Errorf("reference disagrees with %s: %v", goldenPath, b.problems)
	}
	data, err := json.MarshalIndent(ref, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

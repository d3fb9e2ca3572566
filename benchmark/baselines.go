package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"

	"mcio/internal/bench"
	"mcio/internal/collio"
	"mcio/internal/obs"
)

// baselineSeed is the seed of the committed baseline ledgers.
const baselineSeed = 42

// baselineFiles maps a workload to the committed ledger its cells must
// equal, relative to the repository root.
var baselineFiles = map[string]string{
	"collperf-120":  "baselines/BENCH_fig6.json",
	"exa-ior-1m":    "baselines/BENCH_fig_exa.json",
	"exa-faults-1m": "baselines/BENCH_fig_exa_faults.json",
}

// baselineName maps a cell to its entry in the committed ledger. The
// clean references of exa-faults-1m are the fig-exa-faults grid's exact
// clean control, crash=0,strag=0,sev=0.9.
func baselineName(name string) string {
	return strings.Replace(name, "fig-exa-faults/ref/", "fig-exa-faults/crash=0,strag=0,sev=0.9/", 1)
}

// digestSeeds are the seeds expected.json records digests for: the
// baseline seed and the seeds of the committed measurement sets. A traced
// run at one of them checks its cells against the digest instead of
// pricing the pass a second time.
var digestSeeds = []uint64{baselineSeed, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10}

const expectedPath = "benchmark/expected.json"

// checkBaselines prices every workload once at each digest seed, compares
// the cells at the baseline seed of those with a committed ledger to it by
// float64 bits, and, when all match, records every digest in
// benchmark/expected.json.
func checkBaselines(out io.Writer) error {
	exp := expected{Digest: map[string]map[uint64]string{}}
	mismatches := 0
	for _, w := range workloads {
		exp.Digest[w.name] = map[uint64]string{}
		for _, seed := range digestSeeds {
			collio.ResetPlanCache()
			entries, _, err := w.runPass(w.configs(bench.DefaultScale, seed), nil)
			if err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			exp.Digest[w.name][seed] = ledgerDigest(entries)
			if seed == baselineSeed {
				bad, err := compareBaseline(out, w, entries)
				if err != nil {
					return err
				}
				mismatches += bad
			}
		}
	}
	if mismatches > 0 {
		return fmt.Errorf("%d cells differ from the committed ledgers; %s left unchanged", mismatches, expectedPath)
	}
	b, err := json.MarshalIndent(exp, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(expectedPath, append(b, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(out, "every cell matches; wrote %s\n", expectedPath)
	return nil
}

// compareBaseline compares a workload's cells with its committed ledger,
// if it has one, and returns how many differ.
func compareBaseline(out io.Writer, w *workload, entries []obs.RunEntry) (int, error) {
	path, ok := baselineFiles[w.name]
	if !ok {
		fmt.Fprintf(out, "%-14s %2d cells priced, no committed ledger\n", w.name, len(entries))
		return 0, nil
	}
	base, err := obs.LoadRunRecord(path)
	if err != nil {
		return 0, err
	}
	byName := map[string]obs.RunEntry{}
	for _, e := range base.Entries {
		byName[e.Name] = e
	}
	bad := 0
	for _, e := range entries {
		e.Name = baselineName(e.Name)
		b, ok := byName[e.Name]
		if !ok || !sameEntry(e, b) {
			fmt.Fprintf(out, "  %s differs from %s\n", e.Name, path)
			bad++
		}
	}
	fmt.Fprintf(out, "%-14s %2d cells, %d differ from %s\n", w.name, len(entries), bad, path)
	return bad, nil
}

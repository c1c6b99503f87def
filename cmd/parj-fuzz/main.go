// Command parj-fuzz soaks the differential harness: random datasets ×
// random BGP queries × every engine configuration, plus write schedules on
// every writable configuration, diffed against the naive oracle,
// indefinitely or for a fixed number of trials.
//
// Usage:
//
//	parj-fuzz                       # one batch with a time-derived seed
//	parj-fuzz -trials 0             # run forever (Ctrl-C to stop)
//	parj-fuzz -seed 7 -v            # reproduce a batch, with progress
//	parj-fuzz -triples 1000 -queries 20
//
// On a divergence it prints the failure, a shrunk ready-to-paste Go
// regression test (see internal/difftest/regress_test.go), and exits 1.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"parj/internal/difftest"
)

func main() {
	var (
		seed     = flag.Int64("seed", 0, "base seed (0 = derive from current time)")
		trials   = flag.Int("trials", 1, "number of batches to run (0 = forever)")
		datasets = flag.Int("datasets", 25, "datasets per batch")
		queries  = flag.Int("queries", 8, "completed query pairs per dataset")
		triples  = flag.Int("triples", 300, "max triples per dataset")
		budget   = flag.Int64("oracle-budget", 2_000_000, "oracle backtracking budget per query")
		verbose  = flag.Bool("v", false, "per-dataset progress on stderr")
	)
	flag.Parse()
	if *seed == 0 {
		*seed = time.Now().UnixNano()
	}

	start := time.Now()
	var pairs, checkpoints, runs, skipped int
	for batch := 0; *trials == 0 || batch < *trials; batch++ {
		cfg := difftest.Config{
			// Batches must not overlap: Run derives every dataset seed
			// from cfg.Seed, so stride past the seeds batch 0 used.
			Seed:              *seed + int64(batch)*1_000_000_007,
			Datasets:          *datasets,
			QueriesPerDataset: *queries,
			MaxTriples:        *triples,
			OracleBudget:      *budget,
		}
		if *verbose {
			cfg.Log = func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, format+"\n", args...)
			}
		}
		rep := difftest.Run(cfg)
		pairs += rep.Pairs
		checkpoints += rep.Checkpoints
		runs += rep.EngineRuns
		skipped += rep.Skipped

		if len(rep.Failures) > 0 {
			for i := range rep.Failures {
				f := &rep.Failures[i]
				fmt.Printf("FAIL (batch seed %d): %s\n", cfg.Seed, f.String())
				if f.Repro != "" {
					fmt.Printf("\n%s\n", f.Repro)
				}
			}
			fmt.Printf("after %d pairs, %d write checkpoints, %d engine runs in %s\n",
				pairs, checkpoints, runs, time.Since(start).Round(time.Millisecond))
			os.Exit(1)
		}
		fmt.Printf("batch %d ok (seed %d): %d pairs, %d write checkpoints, %d engine runs, %d skipped — %d pairs total in %s\n",
			batch+1, cfg.Seed, rep.Pairs, rep.Checkpoints, rep.EngineRuns, rep.Skipped,
			pairs, time.Since(start).Round(time.Millisecond))
	}
}

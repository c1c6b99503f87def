// Command parj-bench regenerates the tables and figures of the paper's
// evaluation section.
//
// Usage:
//
//	parj-bench -exp table2                 # LUBM engine comparison
//	parj-bench -exp table3 -watdiv-scale 20
//	parj-bench -exp table5 -blocks 10
//	parj-bench -exp all -lubm-scale 32    # everything, smaller LUBM
//	parj-bench -exp table5 -json -out docs/results   # machine-readable medians
//
// Experiments: table2, table3, table4, table5, table6, fig2, fig3, results,
// skew, cyclic. Scales default to laptop-friendly sizes; the paper's own
// scales (LUBM 10240, WatDiv 1000) need a large-memory server, exactly as
// in the paper.
//
// Every timed experiment is measured once, over interleaved blocks, and
// printed as a text table or, with -json, written as BENCH_<name>.json into
// -out; CI diffs these files across commits (see internal/bench/json.go).
// A report with a failed cell or a count disagreement is not written, and
// the command exits non-zero. "-exp all -json" writes table5, skew, cyclic
// and slo (open-loop admission under overload, a report only); table6
// (simulated cache counts) is a table only.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"parj/internal/bench"
)

func main() {
	var (
		exp         = flag.String("exp", "", "experiment id or 'all'")
		lubmScale   = flag.Int("lubm-scale", 64, "LUBM universities")
		watdivScale = flag.Int("watdiv-scale", 10, "WatDiv scale units")
		threads     = flag.Int("threads", 0, "multi-thread worker count (0 = 16, simulated if the host has fewer cores)")
		blocks      = flag.Int("blocks", 5, "interleaved measurement blocks per query")
		timeout     = flag.Duration("timeout", 2*time.Minute, "per-query timeout")
		quiet       = flag.Bool("quiet", false, "suppress per-measurement progress on stderr")
		format      = flag.String("format", "table", "output format: table or csv")
		jsonMode    = flag.Bool("json", false, "write machine-readable BENCH_<name>.json reports instead of tables")
		outDir      = flag.String("out", ".", "directory for -json reports")
	)
	flag.Parse()
	if *exp == "" {
		fmt.Fprintf(os.Stderr, "parj-bench: -exp is required (one of %s, or 'all')\n",
			strings.Join(bench.Experiments(), ", "))
		os.Exit(2)
	}
	cfg := bench.ExpConfig{
		LUBMScale:   *lubmScale,
		WatDivScale: *watdivScale,
		Threads:     *threads,
		Blocks:      *blocks,
		Timeout:     *timeout,
	}
	if !*quiet {
		cfg.Progress = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}
	names := []string{*exp}
	if *exp == "all" {
		names = bench.Experiments()
		if *jsonMode {
			names = bench.JSONExperiments()
		}
	}
	for _, name := range names {
		start := time.Now()
		done, err := run(name, cfg, *jsonMode, *format, *outDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "parj-bench:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "[%s %s in %v]\n", name, done, time.Since(start).Round(time.Second))
	}
}

// run measures one experiment, then prints its table or, in JSON mode,
// writes its report into outDir as BENCH_<name>.json unless the report
// holds a failed cell or a count disagreement.
func run(name string, cfg bench.ExpConfig, jsonMode bool, format, outDir string) (string, error) {
	rep, err := bench.Run(name, cfg)
	if err != nil {
		return "", err
	}
	if jsonMode {
		if err := rep.Err(); err != nil {
			return "", err
		}
		path := filepath.Join(outDir, "BENCH_"+rep.Name+".json")
		return "written to " + path, rep.WriteFile(path)
	}
	tab := rep.Table()
	if tab == nil {
		return "", fmt.Errorf("%s has no text table; write its report with -json", name)
	}
	if format == "csv" {
		fmt.Println(tab.CSV())
	} else {
		fmt.Println(tab.String())
	}
	return "completed", nil
}

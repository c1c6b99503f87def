// Command benchmark is the repository's one performance yardstick: six
// workloads that each isolate a different set of layers, end-to-end metrics
// measured through the public API with every answer checked, and a traced
// mode that attributes the same operations to layers. See README.md and the
// BENCHMARK.json at the repository root.
//
//	bash benchmark/run.sh -workload lubm-join -seed 1 -seconds 12 -trace 0
//	bash benchmark/run.sh -seed 1            # all six, untraced
//	bash benchmark/run.sh -seed 1 -trace 1   # all six, per-layer
//	bash benchmark/run.sh -seed 1 -repeat 5  # spread table
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

// workloads in the order BENCHMARK.json lists them.
var workloads = []struct {
	name string
	run  func(e *env) (*report, error)
}{
	{"lubm-join", lubmJoin.run},
	{"lubm-point", lubmPoint.run},
	{"cyclic", cyclic.run},
	{"churn", runChurn},
	{"durable-write", runDurableWrite},
	{"endpoint", runEndpoint},
}

// metricValue and result are the last line of a single-workload run.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runOne runs one workload and shapes its report.
func runOne(name string, e env) (*result, error) {
	for _, w := range workloads {
		if w.name != name {
			continue
		}
		e.workload = name
		e.logf("workload %s seed=%d window=%v trace=%v", name, e.seed, e.seconds, e.trace)
		rep, err := w.run(&e)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		defs := endToEndMetrics
		if e.trace {
			defs = perLayerMetrics
		}
		res := &result{
			Correct:   rep.failed == 0 && rep.attempted > 0,
			Attempted: rep.attempted,
			Failed:    rep.failed,
			Metrics:   make(map[string]metricValue, len(defs)),
		}
		for _, d := range defs {
			v, ok := rep.metrics[d.name]
			if !ok {
				return nil, fmt.Errorf("%s: metric %s not reported", name, d.name)
			}
			res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
			e.logf("  %-28s %14.6g %s", d.name, v, d.unit)
		}
		e.logf("  failed_share %d/%d", rep.failed, rep.attempted)
		return res, nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// summary is the last line of an all-workloads or -repeat run. This program
// measures; it never claims a gain, so Claim is always null.
type summary struct {
	Seed      int64                        `json:"seed"`
	Sets      int                          `json:"sets"`
	Correct   bool                         `json:"correct"`
	Workloads map[string]map[string]spread `json:"workloads"`
	Claim     *string                      `json:"claim"`
}

// runSets runs the named workloads sets times and tabulates each metric's
// spread.
func runSets(e env, names []string, sets int) (*summary, error) {
	vals := make(map[string]map[string][]float64)
	units := make(map[string]string)
	out := &summary{Seed: e.seed, Sets: sets, Correct: true, Workloads: make(map[string]map[string]spread)}
	for set := 0; set < sets; set++ {
		for _, w := range names {
			res, err := runOne(w, e)
			if err != nil {
				return nil, err
			}
			out.Correct = out.Correct && res.Correct
			if vals[w] == nil {
				vals[w] = make(map[string][]float64)
			}
			for name, mv := range res.Metrics {
				vals[w][name] = append(vals[w][name], mv.Value)
				units[name] = mv.Unit
			}
		}
	}
	e.logf("\n%-14s %-28s %-9s %14s %14s %14s %8s", "workload", "metric", "unit", "min", "median", "max", "spread")
	for _, w := range names {
		out.Workloads[w] = make(map[string]spread)
		metrics := make([]string, 0, len(vals[w]))
		for name := range vals[w] {
			metrics = append(metrics, name)
		}
		sort.Strings(metrics)
		for _, name := range metrics {
			s := spreadOf(units[name], vals[w][name])
			out.Workloads[w][name] = s
			e.logf("%-14s %-28s %-9s %14.6g %14.6g %14.6g %7.1f%%", w, name, s.Unit, s.Min, s.Median, s.Max, 100*s.Spread)
		}
	}
	return out, nil
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout))
}

func realMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	workload := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Int64("seed", 1, "seed every input is generated from")
	seconds := fs.Float64("seconds", 12, "measured window per workload (BENCHMARK.json's run_seconds)")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	repeat := fs.Int("repeat", 1, "run this many full sets and print each metric's spread")
	smoke := fs.Bool("smoke", false, "tiny inputs (tests)")
	scratch := fs.String("scratch", ".bench_build/tmp", "directory for WAL files")
	outDir := fs.String("out", "benchmark/out", "directory for span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	e := env{
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		warmup:  time.Second,
		trace:   *trace != 0,
		smoke:   *smoke,
		scratch: *scratch,
		outDir:  *outDir,
		log:     stdout,
	}
	if e.smoke {
		e.warmup = 50 * time.Millisecond
	}

	var last any
	correct := false
	if *workload != "all" && *repeat == 1 {
		res, err := runOne(*workload, e)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		last, correct = res, res.Correct
	} else {
		names := []string{*workload}
		if *workload == "all" {
			names = names[:0]
			for _, w := range workloads {
				names = append(names, w.name)
			}
		}
		sum, err := runSets(e, names, *repeat)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		last, correct = sum, sum.Correct
	}
	line, err := json.Marshal(last)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !correct {
		return 1
	}
	return 0
}

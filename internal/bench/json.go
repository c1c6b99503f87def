package bench

// json.go — machine-readable benchmark reports for regression tracking.
//
// The table harness in bench.go renders human-readable grids; CI needs
// numbers it can diff across commits. A Report records the median time of
// every (query, engine) cell, measured over interleaved A/B blocks: within
// each block every engine runs once, back to back, so slow drift of the
// machine (thermal state, cache pollution from neighbors) hits all engines
// alike instead of biasing whichever ran last. Medians over blocks then
// discard the odd outlier block entirely.

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"parj/internal/core"
	"parj/internal/sparql"
)

// Report is the serialized result of one JSON-mode experiment.
type Report struct {
	// Name is the experiment id ("table5", "skew").
	Name string `json:"name"`
	// Params records the knobs the run used, so a regression check can
	// replay the same configuration.
	Params map[string]string `json:"params"`
	// Blocks is the number of interleaved measurement blocks.
	Blocks int `json:"blocks"`
	// Medians maps "query/engine" to the median elapsed milliseconds.
	Medians map[string]float64 `json:"medians"`
	// Counts maps "query" to the (engine-agreed) result count.
	Counts map[string]int64 `json:"counts"`
	// Notes carries derived quantities, e.g. "speedup/TRI" for the skew
	// experiment.
	Notes map[string]string `json:"notes,omitempty"`
}

// WriteFile serializes the report with stable formatting.
func (r *Report) WriteFile(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// LoadReport reads a report written by WriteFile.
func LoadReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("bench: parse %s: %w", path, err)
	}
	return &r, nil
}

// compareFloorMS is the absolute floor below which CompareReports ignores
// baseline medians: a 0.3ms cell regressing to 0.4ms is scheduler jitter,
// not a perf bug, and gating CI on it would make the check cry wolf.
const compareFloorMS = 1.0

// CompareReports returns one message per "query/engine" median in cur that
// exceeds its baseline counterpart by more than tol (0.10 = +10%). Keys
// present in only one report are skipped — engines and queries may be
// added or removed between commits without breaking the check.
func CompareReports(baseline, cur *Report, tol float64) []string {
	var regressions []string
	keys := make([]string, 0, len(baseline.Medians))
	for k := range baseline.Medians {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		base := baseline.Medians[k]
		now, ok := cur.Medians[k]
		if !ok || base < compareFloorMS {
			continue
		}
		if now > base*(1+tol) {
			regressions = append(regressions,
				fmt.Sprintf("%s: %.2fms -> %.2fms (+%.1f%%, tolerance %.0f%%)",
					k, base, now, (now/base-1)*100, tol*100))
		}
	}
	return regressions
}

// JSONExperiments lists the experiment ids RunJSONExperiment accepts.
func JSONExperiments() []string {
	return []string{"table5", "skew", "cyclic", "slo"}
}

// RunJSONExperiment measures one experiment in report form. Unlike the
// table experiments, the engines here run at 1 thread (table5) or with the
// simulation contract (skew), so cells are honest medians rather than
// formatted summaries.
func RunJSONExperiment(name string, cfg ExpConfig, blocks int) (*Report, error) {
	cfg.fill()
	if blocks <= 0 {
		blocks = 5
	}
	switch name {
	case "table5":
		return jsonTable5(cfg, blocks)
	case "skew":
		return jsonSkew(cfg, blocks)
	case "cyclic":
		return jsonCyclic(cfg, blocks)
	case "slo":
		return jsonSLO(cfg, blocks)
	default:
		return nil, fmt.Errorf("bench: experiment %q has no JSON mode (valid: %s)", name, strings.Join(JSONExperiments(), ", "))
	}
}

// jsonTable5 measures the four probe strategies of Table 5 on LUBM,
// single-threaded. The "-morsel" suffix keeps the engine names equal to the
// keys of the committed BENCH_table5.json, so the regression gate keeps
// covering the same cells.
func jsonTable5(cfg ExpConfig, blocks int) (*Report, error) {
	d := cfg.lubmDataset()
	strategies := []struct {
		name string
		s    core.Strategy
	}{
		{"Binary", core.BinaryOnly},
		{"AdBinary", core.AdaptiveBinary},
		{"Index", core.IndexOnly},
		{"AdIndex", core.AdaptiveIndex},
	}
	var engines []Engine
	for _, st := range strategies {
		engines = append(engines, d.PARJ(st.name+"-morsel", core.Options{Threads: 1, Strategy: st.s}))
	}
	rep := &Report{
		Name:   "table5",
		Blocks: blocks,
		Params: map[string]string{
			"lubm_scale": fmt.Sprint(cfg.LUBMScale),
			"threads":    "1",
		},
	}
	if err := sampleInterleaved(rep, lubmQueries(), engines, blocks, cfg); err != nil {
		return nil, err
	}
	return rep, nil
}

// jsonSkew measures the skewed-scheduling A/B pair and derives the
// speedup notes the acceptance check reads.
func jsonSkew(cfg ExpConfig, blocks int) (*Report, error) {
	sc := SkewConfig{}
	sc.fill()
	d := NewDataset(SkewTriples(sc), cfg.Threads)
	rep := &Report{
		Name:   "skew",
		Blocks: blocks,
		Params: map[string]string{
			"users":       fmt.Sprint(sc.Users),
			"pages":       fmt.Sprint(sc.Pages),
			"zipf_s":      fmt.Sprint(sc.S),
			"workers":     fmt.Sprint(SkewWorkers),
			"morsel_size": fmt.Sprint(skewMorselSize),
		},
		Notes: map[string]string{},
	}
	queries := SkewQueries()
	if err := sampleInterleaved(rep, queries, SkewEngines(d), blocks, cfg); err != nil {
		return nil, err
	}
	for _, q := range queries {
		static := rep.Medians[q.Name+"/Static-8"]
		morsel := rep.Medians[q.Name+"/Morsel-8"]
		if morsel > 0 {
			rep.Notes["speedup/"+q.Name] = fmt.Sprintf("%.2f", static/morsel)
		}
	}
	return rep, nil
}

// jsonCyclic measures the join-operator A/B pair on the dense cyclic
// workload and derives the WCOJ-over-pipeline speedup notes the acceptance
// check reads.
func jsonCyclic(cfg ExpConfig, blocks int) (*Report, error) {
	cc := CyclicConfig{}
	cc.fill()
	d := NewDataset(CyclicTriples(cc), cfg.Threads)
	rep := &Report{
		Name:   "cyclic",
		Blocks: blocks,
		Params: map[string]string{
			"nodes":       fmt.Sprint(cc.Nodes),
			"edges":       fmt.Sprint(cc.Edges),
			"zipf_s":      fmt.Sprint(cc.S),
			"workers":     fmt.Sprint(CyclicWorkers),
			"morsel_size": fmt.Sprint(cyclicMorselSize),
		},
		Notes: map[string]string{},
	}
	queries := CyclicQueries()
	if err := sampleInterleaved(rep, queries, CyclicEngines(d), blocks, cfg); err != nil {
		return nil, err
	}
	for _, q := range queries {
		pipe := rep.Medians[q.Name+"/Pipe-8"]
		wcoj := rep.Medians[q.Name+"/WCOJ-8"]
		if wcoj > 0 {
			rep.Notes["speedup/"+q.Name] = fmt.Sprintf("%.2f", pipe/wcoj)
		}
	}
	return rep, nil
}

// sampleInterleaved fills rep.Medians and rep.Counts: per query, one
// warmup run per engine, then `blocks` rounds in which every engine runs
// exactly once. Engines must agree on result counts; a mismatch is a
// correctness bug and fails the measurement rather than producing a
// report that silently times wrong answers.
func sampleInterleaved(rep *Report, queries []NamedQuery, engines []Engine, blocks int, cfg ExpConfig) error {
	rep.Medians = map[string]float64{}
	rep.Counts = map[string]int64{}
	timeout := cfg.Timeout
	if timeout <= 0 {
		timeout = 2 * time.Minute
	}
	for _, nq := range queries {
		q, err := sparql.Parse(nq.SPARQL)
		if err != nil {
			return fmt.Errorf("bench: query %s does not parse: %v", nq.Name, err)
		}
		samples := make([][]float64, len(engines))
		for _, e := range engines {
			n, _, err := timedOnce(e, q, timeout) // warmup
			if err != nil {
				return fmt.Errorf("bench: %s on %s: %w", nq.Name, e.Name(), err)
			}
			if prev, ok := rep.Counts[nq.Name]; ok && prev != n {
				return fmt.Errorf("bench: %s: %s returned %d rows, earlier engine returned %d",
					nq.Name, e.Name(), n, prev)
			}
			rep.Counts[nq.Name] = n
		}
		for b := 0; b < blocks; b++ {
			for ei, e := range engines {
				_, ms, err := timedOnce(e, q, timeout)
				if err != nil {
					return fmt.Errorf("bench: %s on %s: %w", nq.Name, e.Name(), err)
				}
				samples[ei] = append(samples[ei], ms)
			}
		}
		for ei, e := range engines {
			m := median(samples[ei])
			rep.Medians[nq.Name+"/"+e.Name()] = m
			if cfg.Progress != nil {
				cfg.Progress("%-9s %-16s median %8.2f ms over %d blocks", nq.Name, e.Name(), m, blocks)
			}
		}
	}
	// Aggregate row: per-engine geomean over the query medians. Individual
	// sub-10ms cells jitter several percent run to run even with interleaved
	// blocks; the aggregate averages that out, so it is the number regression
	// checks and before/after comparisons should lean on.
	for _, e := range engines {
		var ms []float64
		for _, nq := range queries {
			ms = append(ms, rep.Medians[nq.Name+"/"+e.Name()])
		}
		rep.Medians["ALL/"+e.Name()] = geomean(ms)
	}
	return nil
}

// timedOnce runs q once on e under a timeout, returning count and elapsed
// milliseconds. As in measure(), a timed-out run finishes in the
// background; the harness reports the failure and moves on.
func timedOnce(e Engine, q *sparql.Query, timeout time.Duration) (int64, float64, error) {
	type outcome struct {
		count int64
		ms    float64
		err   error
	}
	ch := make(chan outcome, 1)
	go func() {
		if te, ok := e.(TimedEngine); ok {
			n, elapsed, err := te.CountTimed(q)
			ch <- outcome{n, float64(elapsed.Microseconds()) / 1000, err}
			return
		}
		start := time.Now()
		n, err := e.Count(q)
		ch <- outcome{n, float64(time.Since(start).Microseconds()) / 1000, err}
	}()
	select {
	case o := <-ch:
		return o.count, o.ms, o.err
	case <-time.After(timeout):
		return 0, 0, fmt.Errorf("timeout after %v", timeout)
	}
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

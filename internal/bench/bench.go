// Package bench is the experiment harness that regenerates every table and
// figure of the paper's evaluation (§5): it builds the workload datasets,
// runs each query on each engine, and formats rows the way the paper's
// tables report them (per-query times plus Avg and Geomean summary lines).
//
// Every timed experiment is one run of one measurement loop (timeGrid),
// which returns a Report. The report is written as JSON for regression
// checks (json.go) or rendered as the paper's text table (Report.Table).
//
// Absolute milliseconds will differ from the paper's 16-core Xeon; the
// harness is about the comparative shape — which engine wins, by what
// rough factor, and where the crossovers are.
package bench

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"parj/internal/sparql"
)

// Engine is anything the harness can time: it evaluates a parsed query in
// silent mode and returns the result count and its elapsed time. Most
// engines report the wall clock; the ones that simulate an N-core run on a
// host with fewer cores (timing independent work units sequentially) report
// what a fully parallel machine would observe.
type Engine interface {
	Name() string
	Count(q *sparql.Query) (int64, time.Duration, error)
}

// engine is an Engine built from its counting function.
type engine struct {
	name  string
	count func(q *sparql.Query) (int64, time.Duration, error)
}

func (e engine) Name() string { return e.name }

func (e engine) Count(q *sparql.Query) (int64, time.Duration, error) { return e.count(q) }

// wallClock is an engine timed by the wall clock around fn.
func wallClock(name string, fn func(q *sparql.Query) (int64, error)) Engine {
	return engine{name, func(q *sparql.Query) (int64, time.Duration, error) {
		start := time.Now()
		n, err := fn(q)
		return n, time.Since(start), err
	}}
}

// NamedQuery pairs a query with its display name and summary group.
type NamedQuery struct {
	Name   string
	Group  string // queries with the same group share Avg/Geomean lines
	SPARQL string
}

// Report is the result of one experiment: the serialized fields are the
// JSON report, and the grid they were measured on renders as the text table.
type Report struct {
	// Name is the experiment id ("table5", "skew").
	Name string `json:"name"`
	// Params records the knobs the run used, so a regression check can
	// replay the same configuration.
	Params map[string]string `json:"params"`
	// Blocks is the number of interleaved measurement blocks.
	Blocks int `json:"blocks"`
	// Medians maps "query/engine" to the median elapsed milliseconds, and
	// "ALL/engine" to the geomean of that engine's medians.
	Medians map[string]float64 `json:"medians"`
	// Counts maps "query" to the (engine-agreed) result count, or
	// "query/engine" where the columns query different datasets.
	Counts map[string]int64 `json:"counts"`
	// Notes carries derived quantities, e.g. "speedup/TRI" for the skew
	// experiment.
	Notes map[string]string `json:"notes,omitempty"`

	title    string
	queries  []NamedQuery
	engines  []string          // the keys of the medians, in column order
	columns  []string          // the table's column labels
	failed   map[string]string // "query/engine" → "timeout", "skipped" or "error: …"
	disagree map[string]bool   // queries whose engines returned different counts
	// summary is a further grid that adds only its group Avg/Geomean rows
	// to the table (Table 5's WatDiv lines); its medians are not reported.
	summary *Report
	table   *Table // an experiment that is not a timed grid (Table 6)
}

// timeGrid is the harness's one measurement loop. Per query, every engine
// gets one warm-up run, then cfg.Blocks rounds in which each engine runs
// once, back to back, so slow drift of the machine (thermal state, cache
// pollution from neighbours) hits all engines alike instead of biasing
// whichever ran last. A cell's figure is the median over its blocks, which
// discards the odd outlier block entirely.
//
// A timeout or an error ends a cell. After a timeout the engine sits out the
// rest of the query group: a timed-out run cannot be cancelled (it finishes
// in the background), so piling more onto it would distort the machine and
// risk exhausting memory, and groups order queries by difficulty, so the
// skipped ones would time out too. Engines must agree on each query's count
// unless separate is set, for columns that query different datasets.
func timeGrid(name, title string, queries []NamedQuery, engines []Engine, separate bool, cfg ExpConfig) *Report {
	cfg.fill()
	rep := &Report{Name: name, Blocks: cfg.Blocks, Medians: map[string]float64{}, Counts: map[string]int64{},
		title: title, queries: queries, failed: map[string]string{}, disagree: map[string]bool{}}
	for _, e := range engines {
		rep.engines = append(rep.engines, e.Name())
	}
	rep.columns = rep.engines
	timedOut := map[string]bool{} // group + "/" + engine
	for _, nq := range queries {
		q, err := sparql.Parse(nq.SPARQL)
		if err != nil {
			panic(fmt.Sprintf("bench: query %s does not parse: %v", nq.Name, err))
		}
		notes := make([]string, len(engines)) // "" while a cell is measured
		counts := make([]int64, len(engines))
		samples := make([][]float64, len(engines))
		for b := -1; b < cfg.Blocks; b++ { // block -1 is the warm-up
			for ei, e := range engines {
				if b == -1 && timedOut[nq.Group+"/"+e.Name()] {
					notes[ei] = "skipped"
				}
				if notes[ei] != "" {
					continue
				}
				n, ms, note := runOnce(e, q, cfg.Timeout)
				switch {
				case note != "":
					notes[ei] = note
					if note == "timeout" {
						timedOut[nq.Group+"/"+e.Name()] = true
					}
				case b == -1:
					counts[ei] = n
				default:
					samples[ei] = append(samples[ei], ms)
				}
			}
		}
		for ei, e := range engines {
			key := nq.Name + "/" + e.Name()
			if notes[ei] != "" {
				rep.failed[key] = notes[ei]
				cfg.progress("%-9s %-16s %s", nq.Name, e.Name(), notes[ei])
				continue
			}
			rep.Medians[key] = median(samples[ei])
			cfg.progress("%-9s %-16s median %8.2f ms over %d blocks", nq.Name, e.Name(), rep.Medians[key], cfg.Blocks)
			if separate {
				rep.Counts[key] = counts[ei]
			} else if ref, ok := rep.Counts[nq.Name]; !ok {
				rep.Counts[nq.Name] = counts[ei]
			} else if ref != counts[ei] {
				rep.disagree[nq.Name] = true
			}
		}
	}
	// Per-engine geomean over the query medians. Individual sub-10ms cells
	// jitter several percent run to run even with interleaved blocks; the
	// aggregate averages that out, so it is the number regression checks
	// and before/after comparisons should lean on.
	for _, e := range rep.engines {
		if ms := rep.medians(queries, e); len(ms) > 0 {
			rep.Medians["ALL/"+e] = geomean(ms)
		}
	}
	return rep
}

// noteSpeedups notes, per query, how many times faster engine fast ran
// than engine base, as "speedup/<query>".
func (r *Report) noteSpeedups(base, fast string) {
	r.Notes = map[string]string{}
	for _, nq := range r.queries {
		if f := r.Medians[nq.Name+"/"+fast]; f > 0 {
			r.Notes["speedup/"+nq.Name] = fmt.Sprintf("%.2f", r.Medians[nq.Name+"/"+base]/f)
		}
	}
}

// runOnce runs q once on e under a timeout and returns its count and
// elapsed milliseconds, or why it has none. A timed-out run finishes in the
// background; the harness records the cell and moves on, as the paper does
// with its 30-minute timeout entries.
func runOnce(e Engine, q *sparql.Query, timeout time.Duration) (int64, float64, string) {
	type outcome struct {
		n   int64
		d   time.Duration
		err error
	}
	ch := make(chan outcome, 1)
	go func() {
		n, d, err := e.Count(q)
		ch <- outcome{n, d, err}
	}()
	select {
	case o := <-ch:
		if o.err != nil {
			return 0, 0, "error: " + o.err.Error()
		}
		return o.n, float64(o.d.Microseconds()) / 1000, ""
	case <-time.After(timeout):
		return 0, 0, "timeout"
	}
}

// medians returns engine's medians over queries, skipping failed cells.
func (r *Report) medians(queries []NamedQuery, engine string) []float64 {
	var ms []float64
	for _, nq := range queries {
		if m, ok := r.Medians[nq.Name+"/"+engine]; ok {
			ms = append(ms, m)
		}
	}
	return ms
}

// Err refuses a report that must not be written: one that is not a timed
// grid, holds a cell without a median, or a query whose engines disagree
// on its count — a report that silently times wrong answers.
func (r *Report) Err() error {
	if r.Medians == nil {
		return fmt.Errorf("bench: %s is not a timed experiment and has no report", r.Name)
	}
	for g := r; g != nil; g = g.summary {
		for _, nq := range g.queries {
			for _, e := range g.engines {
				if note, ok := g.failed[nq.Name+"/"+e]; ok {
					return fmt.Errorf("bench: %s: %s/%s: %s", r.Name, nq.Name, e, note)
				}
			}
			if g.disagree[nq.Name] {
				return fmt.Errorf("bench: %s: %s: engines disagree on the result count", r.Name, nq.Name)
			}
		}
	}
	return nil
}

// Table renders the report as the paper's text table: one row per query,
// each cell its median in ms ("!" when the query's engines disagreed on the
// count) or why it has none, and per group of several queries an Avg and a
// Geomean row over the medians ("*" when one is missing). It is nil for a
// report that is not a grid (slo).
func (r *Report) Table() *Table {
	if r.table != nil {
		return r.table
	}
	if r.queries == nil {
		return nil
	}
	t := &Table{Title: r.title, Header: append([]string{"Query"}, r.columns...)}
	r.appendRows(t, true)
	if r.summary != nil {
		r.summary.appendRows(t, false)
	}
	return t
}

// appendRows adds the grid's rows to t, the per-query ones only if
// perQuery is set.
func (r *Report) appendRows(t *Table, perQuery bool) {
	for start, end := 0, 0; start < len(r.queries); start = end {
		group := r.queries[start].Group
		for end = start; end < len(r.queries) && r.queries[end].Group == group; end++ {
			if perQuery {
				row := []string{r.queries[end].Name}
				for _, e := range r.engines {
					row = append(row, r.renderCell(r.queries[end].Name, e))
				}
				t.Rows = append(t.Rows, row)
			}
		}
		if end-start < 2 {
			continue
		}
		if group != "" {
			group += " "
		}
		avg, geo := []string{group + "Avg"}, []string{group + "Geomean"}
		for _, e := range r.engines {
			ms := r.medians(r.queries[start:end], e)
			avg = append(avg, summarize(mean(ms), len(ms), end-start))
			geo = append(geo, summarize(geomean(ms), len(ms), end-start))
		}
		t.Rows = append(t.Rows, avg, geo)
	}
}

// renderCell renders one query/engine cell.
func (r *Report) renderCell(query, engine string) string {
	if note, ok := r.failed[query+"/"+engine]; ok {
		return note
	}
	ms, flag := r.Medians[query+"/"+engine], ""
	if r.disagree[query] {
		flag = "!"
	}
	switch {
	case ms >= 100:
		return fmt.Sprintf("%.0f%s", ms, flag)
	case ms >= 1:
		return fmt.Sprintf("%.1f%s", ms, flag)
	default:
		return fmt.Sprintf("%.2f%s", ms, flag)
	}
}

// summarize renders a summary of have of want medians.
func summarize(v float64, have, want int) string {
	if have == 0 {
		return "-"
	}
	s := fmt.Sprintf("%.1f", v)
	if have < want {
		s += "*" // some queries missing from the summary
	}
	return s
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		if x < 0.01 {
			x = 0.01 // clamp sub-10µs times so the log stays finite
		}
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
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

// Table is a formatted result grid.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// CSV renders the table as comma-separated values (header + rows), for
// plotting the figures the paper draws from this data.
func (t *Table) CSV() string {
	var sb strings.Builder
	if t.Title != "" {
		sb.WriteString("# " + t.Title + "\n")
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteByte(',')
			}
			if strings.ContainsAny(c, ",\"\n") {
				c = `"` + strings.ReplaceAll(c, `"`, `""`) + `"`
			}
			sb.WriteString(c)
		}
		sb.WriteByte('\n')
	}
	writeRow(t.Header)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return sb.String()
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var sb strings.Builder
	if t.Title != "" {
		sb.WriteString(t.Title)
		sb.WriteByte('\n')
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			pad := widths[i] - len(c)
			if i == 0 {
				sb.WriteString(c)
				sb.WriteString(strings.Repeat(" ", pad))
			} else {
				sb.WriteString(strings.Repeat(" ", pad))
				sb.WriteString(c)
			}
		}
		sb.WriteByte('\n')
	}
	line(t.Header)
	total := 2 * (len(t.Header) - 1)
	for _, w := range widths {
		total += w
	}
	sb.WriteString(strings.Repeat("-", total))
	sb.WriteByte('\n')
	for _, row := range t.Rows {
		line(row)
	}
	return sb.String()
}

package bench

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"parj/internal/sparql"
)

// tinyConfig keeps experiment smoke tests fast.
func tinyConfig() ExpConfig {
	return ExpConfig{
		LUBMScale:   1,
		WatDivScale: 1,
		Threads:     2,
		Blocks:      1,
		Timeout:     30 * time.Second,
	}
}

func TestAllExperimentsRunAtTinyScale(t *testing.T) {
	for _, name := range Experiments() {
		name := name
		t.Run(name, func(t *testing.T) {
			rep, err := Run(name, tinyConfig())
			if err != nil {
				t.Fatal(err)
			}
			out := rep.Table().String()
			if len(out) < 100 {
				t.Fatalf("suspiciously short output:\n%s", out)
			}
			if strings.Contains(out, "error:") {
				t.Errorf("experiment reported errors:\n%s", out)
			}
			if strings.Contains(out, "!") {
				t.Errorf("engines disagreed on result counts:\n%s", out)
			}
			t.Logf("\n%s", out)
		})
	}
}

func TestUnknownExperiment(t *testing.T) {
	if _, err := Run("table99", tinyConfig()); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestTableFormatting(t *testing.T) {
	tab := &Table{
		Title:  "demo",
		Header: []string{"Query", "A", "B"},
		Rows:   [][]string{{"Q1", "1.0", "2.0"}, {"Q2", "300", "4.5"}},
	}
	out := tab.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[1], "Query") {
		t.Errorf("header line = %q", lines[1])
	}
}

func TestGeomeanClampsZeros(t *testing.T) {
	g := geomean([]float64{0, 100})
	if g <= 0 {
		t.Errorf("geomean = %f", g)
	}
}

// oneQuery is a single-query grid for the loop tests.
var oneQuery = []NamedQuery{{Name: "Q", Group: "g", SPARQL: `SELECT ?x WHERE { ?x <p> ?y }`}}

func TestMeasureTimeout(t *testing.T) {
	slow := wallClock("slow", func(q *sparql.Query) (int64, error) {
		time.Sleep(500 * time.Millisecond)
		return 0, nil
	})
	rep := timeGrid("t", "t", oneQuery, []Engine{slow}, false, ExpConfig{Blocks: 1, Timeout: 50 * time.Millisecond})
	if note := rep.failed["Q/slow"]; note != "timeout" {
		t.Errorf("note = %q, want timeout", note)
	}
}

func TestRunMatrixFlagsCountMismatch(t *testing.T) {
	a := wallClock("A", func(q *sparql.Query) (int64, error) { return 1, nil })
	b := wallClock("B", func(q *sparql.Query) (int64, error) { return 2, nil })
	tab := timeGrid("t", "t", oneQuery, []Engine{a, b}, false, ExpConfig{Blocks: 1, Timeout: time.Second}).Table()
	if !strings.Contains(tab.String(), "!") {
		t.Errorf("mismatch not flagged:\n%s", tab)
	}
}

func TestGroupSummaryRows(t *testing.T) {
	e := wallClock("E", func(q *sparql.Query) (int64, error) { return 0, nil })
	qs := []NamedQuery{
		{Name: "A1", Group: "A", SPARQL: `SELECT ?x WHERE { ?x <p> ?y }`},
		{Name: "A2", Group: "A", SPARQL: `SELECT ?x WHERE { ?x <p> ?y }`},
		{Name: "B1", Group: "B", SPARQL: `SELECT ?x WHERE { ?x <p> ?y }`},
		{Name: "B2", Group: "B", SPARQL: `SELECT ?x WHERE { ?x <p> ?y }`},
	}
	out := timeGrid("t", "t", qs, []Engine{e}, false, ExpConfig{Blocks: 1, Timeout: time.Second}).Table().String()
	for _, want := range []string{"A Avg", "A Geomean", "B Avg", "B Geomean"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

// TestTableRendersReport measures canned engines through the one loop and
// checks that the text table is a rendering of the report: every cell is
// the report's median or the reason it has none, the group rows are the
// mean and geomean of those medians, and the failures that keep the report
// from being written show in the table too.
func TestTableRendersReport(t *testing.T) {
	var qs []NamedQuery
	for _, name := range []string{"A1", "A2", "B1", "B2"} {
		qs = append(qs, NamedQuery{Name: name, Group: name[:1], SPARQL: "SELECT ?x WHERE { ?x <" + name + "> ?y }"})
	}
	query := func(q *sparql.Query) string { return strings.Trim(q.Patterns[0].P.String(), "<>") }
	canned := func(name string, fn func(query string) (int64, float64, error)) Engine {
		return engine{name, func(q *sparql.Query) (int64, time.Duration, error) {
			n, ms, err := fn(query(q))
			return n, time.Duration(ms * float64(time.Millisecond)), err
		}}
	}
	calls := map[string]int{}
	engines := []Engine{
		// fast's second timed run of every query is a 1000 ms outlier the
		// median discards.
		canned("fast", func(q string) (int64, float64, error) {
			calls[q]++
			ms := map[string]float64{"A1": 1, "A2": 2, "B1": 3, "B2": 4}[q]
			if calls[q] == 3 {
				ms = 1000
			}
			return 10, ms, nil
		}),
		// other disagrees with the rest on B2's count.
		canned("other", func(q string) (int64, float64, error) {
			n := map[string]int64{"B2": 11}[q]
			return max(n, 10), map[string]float64{"A1": 150, "A2": 0.5, "B1": 20, "B2": 30}[q], nil
		}),
		// slow times out on A1, so it sits out A2; group B still runs.
		canned("slow", func(q string) (int64, float64, error) {
			if q == "A1" {
				time.Sleep(300 * time.Millisecond)
			}
			return 10, 5, nil
		}),
		canned("bad", func(q string) (int64, float64, error) {
			if q == "B1" {
				return 0, 0, errors.New("boom")
			}
			return 10, 7, nil
		}),
	}
	rep := timeGrid("canned", "canned", qs, engines, false, ExpConfig{Blocks: 3, Timeout: 100 * time.Millisecond})

	want := map[string]string{
		"A1/fast": "1.0", "A2/fast": "2.0", "B1/fast": "3.0", "B2/fast": "4.0!",
		"A1/other": "150", "A2/other": "0.50", "B1/other": "20.0", "B2/other": "30.0!",
		"A1/slow": "timeout", "A2/slow": "skipped", "B1/slow": "5.0", "B2/slow": "5.0!",
		"A1/bad": "7.0", "A2/bad": "7.0", "B1/bad": "error: boom", "B2/bad": "7.0!",
	}
	wantMS := map[string]float64{
		"A1/fast": 1, "A2/fast": 2, "B1/fast": 3, "B2/fast": 4,
		"A1/other": 150, "A2/other": 0.5, "B1/other": 20, "B2/other": 30,
		"B1/slow": 5, "B2/slow": 5,
		"A1/bad": 7, "A2/bad": 7, "B2/bad": 7,
	}
	tab := rep.Table()
	if got := strings.Join(tab.Header, " "); got != "Query fast other slow bad" {
		t.Fatalf("header = %q", got)
	}
	rows := map[string][]string{}
	var order []string
	for _, row := range tab.Rows {
		rows[row[0]] = row[1:]
		order = append(order, row[0])
	}
	if got := strings.Join(order, ","); got != "A1,A2,A Avg,A Geomean,B1,B2,B Avg,B Geomean" {
		t.Fatalf("rows = %s\n%s", got, tab)
	}
	for _, nq := range qs {
		for ei, e := range rep.engines {
			key := nq.Name + "/" + e
			if got := rows[nq.Name][ei]; got != want[key] {
				t.Errorf("cell %s = %q, want %q\n%s", key, got, want[key], tab)
			}
			if m, ok := rep.Medians[key]; ok != (wantMS[key] > 0) || m != wantMS[key] {
				t.Errorf("median %s = %v (present %v), want %v", key, m, ok, wantMS[key])
			}
		}
	}
	for _, group := range []string{"A", "B"} {
		for ei, e := range rep.engines {
			var ms []float64
			for _, q := range []string{group + "1", group + "2"} {
				if m, ok := rep.Medians[q+"/"+e]; ok {
					ms = append(ms, m)
				}
			}
			wantAvg, wantGeo := "-", "-"
			if len(ms) > 0 {
				sum, logs := 0.0, 0.0
				for _, m := range ms {
					sum += m
					logs += math.Log(max(m, 0.01))
				}
				wantAvg = fmt.Sprintf("%.1f", sum/float64(len(ms)))
				wantGeo = fmt.Sprintf("%.1f", math.Exp(logs/float64(len(ms))))
				if len(ms) < 2 {
					wantAvg, wantGeo = wantAvg+"*", wantGeo+"*"
				}
			}
			if got := rows[group+" Avg"][ei]; got != wantAvg {
				t.Errorf("%s Avg/%s = %q, want %q", group, e, got, wantAvg)
			}
			if got := rows[group+" Geomean"][ei]; got != wantGeo {
				t.Errorf("%s Geomean/%s = %q, want %q", group, e, got, wantGeo)
			}
		}
	}
	if got := rows["B Avg"][3]; got != "7.0*" {
		t.Errorf("bad's B Avg = %q, want 7.0* (B1 missing)", got)
	}
	err := rep.Err()
	if err == nil || !strings.Contains(err.Error(), "A1/slow: timeout") {
		t.Errorf("Err() = %v, want it to refuse the report naming A1/slow", err)
	}
	clean := timeGrid("t", "t", oneQuery, engines[:1], false, ExpConfig{Blocks: 1, Timeout: time.Second})
	if err := clean.Err(); err != nil {
		t.Errorf("Err() of a clean report = %v", err)
	}
}

func TestCSVOutput(t *testing.T) {
	tab := &Table{
		Title:  "demo",
		Header: []string{"Query", "A"},
		Rows:   [][]string{{"Q1", "1.0"}, {"Q,2", `va"l`}},
	}
	got := tab.CSV()
	want := "# demo\nQuery,A\nQ1,1.0\n\"Q,2\",\"va\"\"l\"\n"
	if got != want {
		t.Errorf("CSV:\n%q\nwant:\n%q", got, want)
	}
}

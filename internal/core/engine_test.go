package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"parj/internal/optimizer"
	"parj/internal/rdf"
	"parj/internal/reference"
	"parj/internal/sparql"
	"parj/internal/stats"
	"parj/internal/store"
)

// fixture bundles a dataset with its loaded store and stats.
type fixture struct {
	triples []rdf.Triple
	st      *store.Store
	stats   *stats.Stats
}

func newFixture(t testing.TB, triples []rdf.Triple) *fixture {
	t.Helper()
	// RDF graphs are sets; dedup so the oracle sees the same graph the
	// store loads.
	seen := make(map[rdf.Triple]bool, len(triples))
	var dedup []rdf.Triple
	for _, tr := range triples {
		if !seen[tr] {
			seen[tr] = true
			dedup = append(dedup, tr)
		}
	}
	st := store.LoadTriples(dedup, store.BuildOptions{BuildPosIndex: true})
	return &fixture{triples: dedup, st: st, stats: stats.New(st)}
}

// rowsEqual compares canonicalized row sets, treating nil and empty alike.
func rowsEqual(a, b [][]string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !reflect.DeepEqual(a[i], b[i]) {
			return false
		}
	}
	return true
}

// run evaluates src on the fixture with the given options and returns the
// decoded, canonicalized rows.
func (f *fixture) run(t testing.TB, src string, opts Options) [][]string {
	t.Helper()
	q, err := sparql.Parse(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	plan, err := optimizer.Optimize(q, f.st, f.stats)
	if err != nil {
		t.Fatalf("optimize %q: %v", src, err)
	}
	res, err := Execute(f.st, plan, opts)
	if err != nil {
		t.Fatalf("execute %q: %v", src, err)
	}
	return reference.Canon(res.StringRows(f.st))
}

// oracle computes the expected rows with the reference evaluator.
func (f *fixture) oracle(t testing.TB, src string) [][]string {
	t.Helper()
	q, err := sparql.Parse(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	return reference.Canon(reference.Evaluate(q, f.triples))
}

func universityFixture(t testing.TB) *fixture {
	// A small LUBM-flavored graph with enough structure for multi-joins.
	var triples []rdf.Triple
	add := func(s, p, o string) {
		triples = append(triples, rdf.Triple{S: "<" + s + ">", P: "<" + p + ">", O: "<" + o + ">"})
	}
	for u := 0; u < 3; u++ {
		uni := fmt.Sprintf("uni%d", u)
		for d := 0; d < 4; d++ {
			dept := fmt.Sprintf("dept%d_%d", u, d)
			add(dept, "subOrgOf", uni)
			for pr := 0; pr < 5; pr++ {
				prof := fmt.Sprintf("prof%d_%d_%d", u, d, pr)
				add(prof, "worksFor", dept)
				add(prof, "type", "Professor")
				for c := 0; c < 3; c++ {
					course := fmt.Sprintf("course%d_%d_%d_%d", u, d, pr, c)
					add(prof, "teaches", course)
					add(course, "type", "Course")
				}
			}
			for s := 0; s < 8; s++ {
				stu := fmt.Sprintf("stu%d_%d_%d", u, d, s)
				add(stu, "memberOf", dept)
				add(stu, "type", "Student")
				add(stu, "advisor", fmt.Sprintf("prof%d_%d_%d", u, d, s%5))
				for c := 0; c < 2; c++ {
					add(stu, "takesCourse", fmt.Sprintf("course%d_%d_%d_%d", u, d, (s+c)%5, c))
				}
			}
		}
	}
	return newFixture(t, triples)
}

var testQueries = []struct {
	name string
	src  string
}{
	{"single pattern", `SELECT ?x WHERE { ?x <type> <Professor> }`},
	{"subject-subject join", `SELECT ?x ?c ?d WHERE { ?x <teaches> ?c . ?x <worksFor> ?d }`},
	{"path join", `SELECT ?s ?p ?d WHERE { ?s <advisor> ?p . ?p <worksFor> ?d }`},
	{"three hop path", `SELECT ?s ?p ?d ?u WHERE { ?s <advisor> ?p . ?p <worksFor> ?d . ?d <subOrgOf> ?u }`},
	{"star", `SELECT ?x ?d ?c WHERE { ?x <type> <Student> . ?x <memberOf> ?d . ?x <takesCourse> ?c }`},
	{"object filter", `SELECT ?x ?c WHERE { ?x <teaches> ?c . ?x <worksFor> <dept0_0> }`},
	{"selective start", `SELECT ?x WHERE { ?x <worksFor> <dept1_2> . ?x <type> <Professor> }`},
	{"object-object join", `SELECT ?a ?b WHERE { ?a <takesCourse> ?c . ?b <teaches> ?c }`},
	{"cycle", `SELECT ?s ?p WHERE { ?s <advisor> ?p . ?p <teaches> ?c . ?s <takesCourse> ?c }`},
	{"distinct", `SELECT DISTINCT ?d WHERE { ?x <advisor> ?p . ?p <worksFor> ?d }`},
	{"constant head", `SELECT ?c WHERE { <prof0_0_0> <teaches> ?c }`},
	{"all constants true", `SELECT ?x WHERE { <prof0_0_0> <type> <Professor> . ?x <subOrgOf> <uni0> }`},
	{"no match constant", `SELECT ?x WHERE { ?x <worksFor> <nosuchdept> }`},
	{"unknown predicate", `SELECT ?x WHERE { ?x <nosuchpred> ?y }`},
	{"five pattern chain", `SELECT ?s ?u WHERE { ?s <takesCourse> ?c . ?p <teaches> ?c . ?p <worksFor> ?d . ?d <subOrgOf> ?u . ?s <memberOf> ?d }`},
	{"variable predicate", `SELECT ?p WHERE { <prof0_0_0> ?p <course0_0_0_0> }`},
	{"variable predicate join", `SELECT ?p ?c WHERE { <stu0_0_0> ?p ?c . ?c <type> <Course> }`},
	{"repeated variable", `SELECT ?x WHERE { ?x <advisor> ?x }`},
}

func TestEngineMatchesOracleAllStrategiesAndThreads(t *testing.T) {
	f := universityFixture(t)
	for _, tq := range testQueries {
		want := f.oracle(t, tq.src)
		for _, strat := range []Strategy{AdaptiveBinary, BinaryOnly, IndexOnly, AdaptiveIndex} {
			for _, threads := range []int{1, 4} {
				name := fmt.Sprintf("%s/%v/t%d", tq.name, strat, threads)
				t.Run(name, func(t *testing.T) {
					got := f.run(t, tq.src, Options{Threads: threads, Strategy: strat})
					if !rowsEqual(got, want) {
						t.Errorf("got %d rows, want %d\ngot:  %v\nwant: %v",
							len(got), len(want), trunc(got), trunc(want))
					}
				})
			}
		}
	}
}

func trunc(rows [][]string) [][]string {
	if len(rows) > 8 {
		return rows[:8]
	}
	return rows
}

func TestSilentModeCountsMatch(t *testing.T) {
	f := universityFixture(t)
	for _, tq := range testQueries {
		q, err := sparql.Parse(tq.src)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := optimizer.Optimize(q, f.st, f.stats)
		if err != nil {
			t.Fatal(err)
		}
		full, err := Execute(f.st, plan, Options{Threads: 4})
		if err != nil {
			t.Fatal(err)
		}
		silent, err := Execute(f.st, plan, Options{Threads: 4, Silent: true})
		if err != nil {
			t.Fatal(err)
		}
		if full.Count != silent.Count || int(full.Count) != len(full.Rows) {
			t.Errorf("%s: full=%d rows=%d silent=%d", tq.name, full.Count, len(full.Rows), silent.Count)
		}
		if silent.Rows != nil {
			t.Errorf("%s: silent mode materialized rows", tq.name)
		}
	}
}

func TestLimit(t *testing.T) {
	f := universityFixture(t)
	all := f.run(t, `SELECT ?x ?c WHERE { ?x <teaches> ?c }`, Options{Threads: 2})
	limited := f.run(t, `SELECT ?x ?c WHERE { ?x <teaches> ?c } LIMIT 7`, Options{Threads: 2})
	if len(limited) != 7 {
		t.Fatalf("LIMIT 7 returned %d rows", len(limited))
	}
	if len(all) <= 7 {
		t.Fatalf("fixture too small for limit test: %d rows", len(all))
	}
	// Every limited row must be a real answer.
	set := map[string]bool{}
	for _, r := range all {
		set[fmt.Sprint(r)] = true
	}
	for _, r := range limited {
		if !set[fmt.Sprint(r)] {
			t.Errorf("limited row %v not in full result", r)
		}
	}
	// Silent count honors the limit too.
	q, _ := sparql.Parse(`SELECT ?x ?c WHERE { ?x <teaches> ?c } LIMIT 7`)
	plan, _ := optimizer.Optimize(q, f.st, f.stats)
	res, err := Execute(f.st, plan, Options{Silent: true, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 7 {
		t.Errorf("silent limited count = %d, want 7", res.Count)
	}
}

func TestDistinctAcrossWorkers(t *testing.T) {
	f := universityFixture(t)
	// Many students share a department: DISTINCT must dedup rows produced
	// by different workers.
	got := f.run(t, `SELECT DISTINCT ?d WHERE { ?s <memberOf> ?d }`, Options{Threads: 8})
	want := f.oracle(t, `SELECT DISTINCT ?d WHERE { ?s <memberOf> ?d }`)
	if !rowsEqual(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
}

// TestDistinctWithLimitCountsDistinctRows pins the LIMIT cutoff semantics
// under DISTINCT: a worker must stop at LIMIT *distinct* rows, not LIMIT
// produced rows — duplicates skipped by DISTINCT don't spend the budget.
// Regression: stopping at produced rows returned fewer than
// min(LIMIT, |distinct|) whenever duplicates landed inside the cutoff.
func TestDistinctWithLimitCountsDistinctRows(t *testing.T) {
	// 40 distinct departments, each with 25 members: 1000 produced rows
	// dedup to 40. A LIMIT between 40 and 1000 must still yield all 40.
	var triples []rdf.Triple
	for d := 0; d < 40; d++ {
		for s := 0; s < 25; s++ {
			triples = append(triples, rdf.Triple{
				S: fmt.Sprintf("<s%d_%d>", d, s),
				P: "<memberOf>",
				O: fmt.Sprintf("<d%d>", d),
			})
		}
	}
	f := newFixture(t, triples)
	for _, threads := range []int{1, 2, 8} {
		for _, tc := range []struct{ limit, want int }{
			{500, 40}, // limit above |distinct|, below produced — the bug's window
			{40, 40},  // limit exactly |distinct|
			{7, 7},    // limit below |distinct|
		} {
			src := fmt.Sprintf(`SELECT DISTINCT ?d WHERE { ?s <memberOf> ?d } LIMIT %d`, tc.limit)
			rows := f.run(t, src, Options{Threads: threads})
			if len(rows) != tc.want {
				t.Errorf("threads=%d LIMIT %d: %d distinct rows, want %d",
					threads, tc.limit, len(rows), tc.want)
			}
			// Silent counting goes through the same materializing path.
			q, _ := sparql.Parse(src)
			plan, _ := optimizer.Optimize(q, f.st, f.stats)
			res, err := Execute(f.st, plan, Options{Silent: true, Threads: threads})
			if err != nil {
				t.Fatal(err)
			}
			if res.Count != int64(tc.want) {
				t.Errorf("threads=%d LIMIT %d: silent count %d, want %d",
					threads, tc.limit, res.Count, tc.want)
			}
		}
	}
}

func TestIndexStrategyWithoutIndexFails(t *testing.T) {
	st := store.LoadTriples([]rdf.Triple{{S: "<a>", P: "<p>", O: "<b>"}}, store.BuildOptions{})
	s := stats.New(st)
	q, _ := sparql.Parse(`SELECT ?x WHERE { ?x <p> ?y }`)
	plan, err := optimizer.Optimize(q, st, s)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Execute(st, plan, Options{Strategy: IndexOnly}); err == nil {
		t.Error("IndexOnly on index-less store succeeded, want error")
	}
}

func TestAllConstantQuery(t *testing.T) {
	f := universityFixture(t)
	q, _ := sparql.Parse(`SELECT * WHERE { <prof0_0_0> <type> <Professor> }`)
	plan, err := optimizer.Optimize(q, f.st, f.stats)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Execute(f.st, plan, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 1 {
		t.Errorf("all-constant true query: count = %d, want 1", res.Count)
	}
	q, _ = sparql.Parse(`SELECT * WHERE { <prof0_0_0> <type> <Student> }`)
	plan, _ = optimizer.Optimize(q, f.st, f.stats)
	res, _ = Execute(f.st, plan, Options{})
	if res.Count != 0 {
		t.Errorf("all-constant false query: count = %d, want 0", res.Count)
	}
}

func TestStatsCollected(t *testing.T) {
	f := universityFixture(t)
	q, _ := sparql.Parse(`SELECT ?s ?p ?d WHERE { ?s <advisor> ?p . ?p <worksFor> ?d }`)
	plan, _ := optimizer.Optimize(q, f.st, f.stats)
	res, err := Execute(f.st, plan, Options{Threads: 1, Strategy: AdaptiveBinary, Silent: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Total() == 0 {
		t.Error("no probe stats collected")
	}
	resB, _ := Execute(f.st, plan, Options{Threads: 1, Strategy: BinaryOnly, Silent: true})
	if resB.Stats.Sequential != 0 || resB.Stats.Index != 0 {
		t.Errorf("BinaryOnly recorded non-binary probes: %+v", resB.Stats)
	}
	resI, _ := Execute(f.st, plan, Options{Threads: 1, Strategy: IndexOnly, Silent: true})
	if resI.Stats.Binary != 0 || resI.Stats.Sequential != 0 {
		t.Errorf("IndexOnly recorded non-index probes: %+v", resI.Stats)
	}
}

func TestThreadCountInvariance(t *testing.T) {
	f := universityFixture(t)
	src := `SELECT ?s ?p ?d ?u WHERE { ?s <advisor> ?p . ?p <worksFor> ?d . ?d <subOrgOf> ?u }`
	want := f.run(t, src, Options{Threads: 1})
	for _, threads := range []int{2, 3, 5, 8, 16, 64} {
		got := f.run(t, src, Options{Threads: threads})
		if !rowsEqual(got, want) {
			t.Errorf("threads=%d: %d rows, want %d", threads, len(got), len(want))
		}
	}
}

func TestShardingCoversSelectiveFirstPattern(t *testing.T) {
	// Example 3.2 of the paper: first pattern has a constant object, so
	// workers shard the subject vector of the O-S entry.
	f := universityFixture(t)
	src := `SELECT ?x ?c WHERE { ?x <memberOf> <dept0_0> . ?x <takesCourse> ?c }`
	want := f.oracle(t, src)
	for _, threads := range []int{1, 2, 4, 16} {
		got := f.run(t, src, Options{Threads: threads})
		if !rowsEqual(got, want) {
			t.Errorf("threads=%d: got %v want %v", threads, got, want)
		}
	}
}

// randomDataset builds adversarial small graphs: dense, with loops and
// heavy value reuse.
func randomDataset(rng *rand.Rand, n int) []rdf.Triple {
	nRes := 2 + rng.Intn(20)
	nPred := 1 + rng.Intn(4)
	ts := make([]rdf.Triple, n)
	for i := range ts {
		ts[i] = rdf.Triple{
			S: fmt.Sprintf("<r%d>", rng.Intn(nRes)),
			P: fmt.Sprintf("<p%d>", rng.Intn(nPred)),
			O: fmt.Sprintf("<r%d>", rng.Intn(nRes)),
		}
	}
	return ts
}

// randomQuery builds a random connected BGP over the predicates/resources
// of the generator above.
func randomQuery(rng *rand.Rand) string {
	nPat := 1 + rng.Intn(4)
	vars := []string{"a", "b", "c", "d"}
	term := func() string {
		switch rng.Intn(4) {
		case 0:
			return fmt.Sprintf("<r%d>", rng.Intn(20))
		default:
			return "?" + vars[rng.Intn(len(vars))]
		}
	}
	q := "SELECT * WHERE {"
	for i := 0; i < nPat; i++ {
		q += fmt.Sprintf(" %s <p%d> %s .", term(), rng.Intn(4), term())
	}
	return q + " }"
}

// Property: on random graphs and random BGPs, every strategy × thread-count
// combination agrees with the reference evaluator.
func TestQuickEngineEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		data := randomDataset(rng, 30+rng.Intn(120))
		fix := newFixture(t, data)
		for trial := 0; trial < 4; trial++ {
			src := randomQuery(rng)
			q, err := sparql.Parse(src)
			if err != nil {
				return false
			}
			// Skip queries with no variables at all in projection; the
			// engine handles them but oracle comparison of zero-column
			// rows is ambiguous.
			if len(q.Projection()) == 0 {
				continue
			}
			want := reference.Canon(reference.Evaluate(q, fix.triples))
			strat := []Strategy{AdaptiveBinary, BinaryOnly, IndexOnly, AdaptiveIndex}[rng.Intn(4)]
			threads := 1 + rng.Intn(7)
			got := fix.run(t, src, Options{Threads: threads, Strategy: strat})
			if len(got) != len(want) {
				t.Logf("seed=%d query=%s strat=%v threads=%d: got %d rows want %d",
					seed, src, strat, threads, len(got), len(want))
				return false
			}
			if !rowsEqual(got, want) {
				t.Logf("seed=%d query=%s: row mismatch", seed, src)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: results are invariant under pattern order permutations in the
// query text (the optimizer may pick different plans; answers must agree).
func TestQuickPatternOrderInvariance(t *testing.T) {
	f := universityFixture(t)
	patterns := []string{
		"?s <advisor> ?p",
		"?p <worksFor> ?d",
		"?d <subOrgOf> ?u",
		"?s <memberOf> ?d",
	}
	var want [][]string
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 12; trial++ {
		perm := rng.Perm(len(patterns))
		src := "SELECT ?s ?p ?d ?u WHERE {"
		for _, i := range perm {
			src += " " + patterns[i] + " ."
		}
		src += " }"
		got := f.run(t, src, Options{Threads: 4})
		if want == nil {
			want = got
			continue
		}
		if !rowsEqual(got, want) {
			t.Errorf("permutation %v: %d rows, want %d", perm, len(got), len(want))
		}
	}
	if len(want) == 0 {
		t.Fatal("permutation test produced no rows; fixture broken")
	}
}

func TestPredicateNamespaceRejected(t *testing.T) {
	f := universityFixture(t)
	q, err := sparql.Parse(`SELECT ?x WHERE { ?s ?x ?o . ?x <type> ?t }`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := optimizer.Optimize(q, f.st, f.stats); err == nil {
		t.Error("predicate/resource namespace mix accepted, want error")
	}
}

func TestResultVarsHeader(t *testing.T) {
	f := universityFixture(t)
	q, _ := sparql.Parse(`SELECT ?c ?x WHERE { ?x <teaches> ?c }`)
	plan, _ := optimizer.Optimize(q, f.st, f.stats)
	res, err := Execute(f.st, plan, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Vars, []string{"c", "x"}) {
		t.Errorf("Vars = %v, want [c x]", res.Vars)
	}
}

func TestSortNotRequiredOnRows(t *testing.T) {
	// Rows arrive in shard order; verify stability for a single thread:
	// one worker, outer scan order = key order of first table.
	f := universityFixture(t)
	q, _ := sparql.Parse(`SELECT ?x ?c WHERE { ?x <teaches> ?c }`)
	plan, _ := optimizer.Optimize(q, f.st, f.stats)
	res, err := Execute(f.st, plan, Options{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]uint32, len(res.Rows))
	for i, r := range res.Rows {
		keys[i] = r[0]
	}
	if !sort.SliceIsSorted(keys, func(i, j int) bool { return keys[i] < keys[j] }) {
		t.Error("single-thread rows not in outer-scan order")
	}
}

func TestLimitZero(t *testing.T) {
	f := universityFixture(t)
	got := f.run(t, `SELECT ?x ?c WHERE { ?x <teaches> ?c } LIMIT 0`, Options{Threads: 2})
	if len(got) != 0 {
		t.Errorf("LIMIT 0 returned %d rows, want 0", len(got))
	}
	// The oracle agrees.
	want := f.oracle(t, `SELECT ?x ?c WHERE { ?x <teaches> ?c } LIMIT 0`)
	if len(want) != 0 {
		t.Errorf("oracle LIMIT 0 returned %d rows", len(want))
	}
}

// execRows runs src on the fixture single-threaded and returns the ID rows.
func (f *fixture) execRows(t testing.TB, src string) *Result {
	t.Helper()
	q, err := sparql.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := optimizer.Optimize(q, f.st, f.stats)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Execute(f.st, plan, Options{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func cloneRows(rows [][]uint32) [][]uint32 {
	out := make([][]uint32, len(rows))
	for i, r := range rows {
		out[i] = append([]uint32(nil), r...)
	}
	return out
}

// TestChunkedRowsAreNotAliased: rows are carved from shared chunks, but each
// row owns its elements. Overwriting or appending to one returned row leaves
// its neighbours and a second query's rows alone — also under DISTINCT with
// LIMIT, where a duplicate row is built in the chunk and then discarded.
func TestChunkedRowsAreNotAliased(t *testing.T) {
	var triples []rdf.Triple
	for d := 0; d < 40; d++ {
		for s := 0; s < 25; s++ {
			triples = append(triples, rdf.Triple{S: fmt.Sprintf("<s%d_%d>", d, s), P: "<memberOf>", O: fmt.Sprintf("<d%d>", d)})
		}
	}
	f := newFixture(t, triples)
	for _, src := range []string{
		`SELECT ?s ?d WHERE { ?s <memberOf> ?d }`,                // 1000 rows: several chunks
		`SELECT DISTINCT ?d WHERE { ?s <memberOf> ?d } LIMIT 30`, // duplicates discarded in between
		`SELECT ?s WHERE { ?s <memberOf> ?d } LIMIT 1`,
	} {
		first := f.execRows(t, src)
		want := cloneRows(first.Rows)
		if len(want) == 0 {
			t.Fatalf("%s: no rows", src)
		}
		seen := map[string]bool{}
		for _, row := range first.Rows {
			seen[fmt.Sprint(row)] = true
		}
		if strings.Contains(src, "DISTINCT") && len(seen) != len(want) {
			t.Fatalf("%s: %d rows, %d distinct", src, len(want), len(seen))
		}
		for i := range first.Rows {
			for c := range first.Rows[i] {
				first.Rows[i][c] = 0xdeadbeef
			}
			_ = append(first.Rows[i], 0xdeadbeef)
			for j := i + 1; j < len(first.Rows) && j <= i+2; j++ {
				if !reflect.DeepEqual(first.Rows[j], want[j]) {
					t.Fatalf("%s: writing row %d changed row %d: %v, want %v", src, i, j, first.Rows[j], want[j])
				}
			}
		}
		if second := f.execRows(t, src); !reflect.DeepEqual(second.Rows, want) {
			t.Fatalf("%s: a second execution returned different rows after the first's were overwritten", src)
		}
	}
}

// TestStringRowsPanicsOnUnknownID: the batch decode keeps Decode's contract
// for IDs no dictionary holds, resource and predicate column alike.
func TestStringRowsPanicsOnUnknownID(t *testing.T) {
	f := universityFixture(t)
	res := f.execRows(t, `SELECT ?p ?c WHERE { <stu0_0_0> ?p ?c . ?c <type> <Course> }`)
	if len(res.Rows) == 0 {
		t.Fatal("no rows")
	}
	good := res.Rows[0]
	for _, bad := range [][]uint32{
		{0, good[1]},
		{good[0], 0},
		{f.st.Predicates.MaxID() + 1, good[1]},
		{good[0], f.st.Resources.MaxID() + 1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("StringRows(%v) did not panic", bad)
				}
			}()
			(&Result{Plan: res.Plan, Rows: [][]uint32{good, bad}}).StringRows(f.st)
		}()
	}
}

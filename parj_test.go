package parj

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"parj/internal/core"
	"parj/internal/remote"
	"parj/internal/sparql"
)

func familyStore(t *testing.T, opts LoadOptions) *Store {
	t.Helper()
	b := NewBuilder(opts)
	b.Add("<alice>", "<knows>", "<bob>")
	b.Add("<bob>", "<knows>", "<carol>")
	b.Add("<carol>", "<knows>", "<dave>")
	b.Add("<alice>", "<age>", `"30"`)
	b.Add("<bob>", "<age>", `"25"`)
	return b.Build()
}

func TestBuilderAndQuery(t *testing.T) {
	db := familyStore(t, LoadOptions{})
	if db.NumTriples() != 5 || db.NumPredicates() != 2 {
		t.Fatalf("triples=%d predicates=%d", db.NumTriples(), db.NumPredicates())
	}
	res, err := db.Query(`SELECT ?x ?z WHERE { ?x <knows> ?y . ?y <knows> ?z }`, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Vars, []string{"x", "z"}) {
		t.Errorf("Vars = %v", res.Vars)
	}
	want := map[string]bool{"<alice> <carol>": true, "<bob> <dave>": true}
	if int(res.Count) != len(want) || len(res.Rows) != len(want) {
		t.Fatalf("count=%d rows=%v", res.Count, res.Rows)
	}
	for _, row := range res.Rows {
		if !want[strings.Join(row, " ")] {
			t.Errorf("unexpected row %v", row)
		}
	}
}

func TestLiteralObjects(t *testing.T) {
	db := familyStore(t, LoadOptions{})
	res, err := db.Query(`SELECT ?x WHERE { ?x <age> "30" }`, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 1 || res.Rows[0][0] != "<alice>" {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestSilentCountAndCountHelper(t *testing.T) {
	db := familyStore(t, LoadOptions{})
	res, err := db.Query(`SELECT ?x ?y WHERE { ?x <knows> ?y }`, QueryOptions{Silent: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 3 || res.Rows != nil {
		t.Errorf("silent: count=%d rows=%v", res.Count, res.Rows)
	}
	n, err := db.Count(`SELECT ?x ?y WHERE { ?x <knows> ?y }`, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Errorf("Count = %d, want 3", n)
	}
}

func TestIndexStrategies(t *testing.T) {
	db := familyStore(t, LoadOptions{PosIndex: true})
	for _, strat := range []Strategy{IndexOnly, AdaptiveIndex} {
		res, err := db.Query(`SELECT ?x ?z WHERE { ?x <knows> ?y . ?y <knows> ?z }`,
			QueryOptions{Strategy: strat})
		if err != nil {
			t.Fatalf("%v: %v", strat, err)
		}
		if res.Count != 2 {
			t.Errorf("%v: count = %d, want 2", strat, res.Count)
		}
	}
	// Without the index, the strategies must fail loudly.
	plain := familyStore(t, LoadOptions{})
	if _, err := plain.Query(`SELECT ?x WHERE { ?x <knows> ?y . ?y <knows> ?z }`,
		QueryOptions{Strategy: IndexOnly}); err == nil {
		t.Error("IndexOnly without PosIndex succeeded")
	}
}

func TestLoadFromReaderAndFile(t *testing.T) {
	doc := `<http://a> <http://p> <http://b> .
<http://b> <http://p> <http://c> .
`
	db, err := Load(strings.NewReader(doc), LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if db.NumTriples() != 2 {
		t.Fatalf("NumTriples = %d", db.NumTriples())
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "data.nt")
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	db2, err := LoadFile(path, LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	n, err := db2.Count(`SELECT ?x ?z WHERE { ?x <http://p> ?y . ?y <http://p> ?z }`, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("Count = %d, want 1", n)
	}
}

func TestLoadErrors(t *testing.T) {
	if _, err := Load(strings.NewReader("not ntriples\n"), LoadOptions{}); err == nil {
		t.Error("malformed N-Triples accepted")
	}
	if _, err := LoadFile("/nonexistent/file.nt", LoadOptions{}); err == nil {
		t.Error("missing file accepted")
	}
}

func TestQueryErrors(t *testing.T) {
	db := familyStore(t, LoadOptions{})
	if _, err := db.Query(`not sparql`, QueryOptions{}); err == nil {
		t.Error("malformed SPARQL accepted")
	}
	if _, err := db.Query(`SELECT ?p WHERE { ?s ?p ?o . ?p <knows> ?x }`, QueryOptions{}); err == nil {
		t.Error("namespace-mixing query accepted")
	}
}

func TestExplain(t *testing.T) {
	db := familyStore(t, LoadOptions{})
	exp, err := db.Explain(`SELECT ?x WHERE { ?x <knows> <bob> }`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(exp, "O-S") {
		t.Errorf("Explain = %q, want O-S replica choice", exp)
	}
}

func TestMemoryBytesPositive(t *testing.T) {
	db := familyStore(t, LoadOptions{PosIndex: true})
	if db.MemoryBytes() <= 0 {
		t.Error("MemoryBytes not positive")
	}
	if db.NumResources() == 0 {
		t.Error("NumResources zero")
	}
}

func TestUnknownConstantGivesEmptyResult(t *testing.T) {
	db := familyStore(t, LoadOptions{})
	res, err := db.Query(`SELECT ?x WHERE { ?x <knows> <nobody> }`, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 0 || len(res.Rows) != 0 {
		t.Errorf("expected empty result, got %v", res.Rows)
	}
	if !reflect.DeepEqual(res.Vars, []string{"x"}) {
		t.Errorf("empty result lost header: %v", res.Vars)
	}
}

func TestQueryStream(t *testing.T) {
	db := familyStore(t, LoadOptions{})
	var rows [][]string
	n, err := db.QueryStream(`SELECT ?x ?y WHERE { ?x <knows> ?y }`, QueryOptions{},
		func(row []string) bool {
			rows = append(rows, row)
			return true
		})
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 || len(rows) != 3 {
		t.Fatalf("streamed %d rows (callback %d), want 3", n, len(rows))
	}
	for _, r := range rows {
		if len(r) != 2 || r[0] == "" {
			t.Errorf("bad row %v", r)
		}
	}
	// Early cancel.
	count := 0
	if _, err := db.QueryStream(`SELECT ?x ?y WHERE { ?x <knows> ?y }`, QueryOptions{},
		func([]string) bool { count++; return false }); err != nil {
		t.Fatal(err)
	}
	if count != 1 {
		t.Errorf("cancelled stream ran callback %d times, want 1", count)
	}
	// Everything that needs the whole result before the first row is
	// rejected, and delivers nothing.
	for _, src := range []string{
		`SELECT DISTINCT ?x WHERE { ?x <knows> ?y }`,
		`SELECT ?x WHERE { ?x <knows> ?y } LIMIT 1`,
		`SELECT ?x WHERE { ?x <knows> ?y } ORDER BY ?x`,
		`SELECT ?x WHERE { ?x <knows> ?y } OFFSET 1`,
	} {
		n, err := db.QueryStream(src, QueryOptions{}, func([]string) bool { return true })
		if !errors.Is(err, errStreamBuffered) || n != 0 {
			t.Errorf("QueryStream(%s) = %d rows, %v; want rejection", src, n, err)
		}
	}
}

func TestPreparedQuery(t *testing.T) {
	db := familyStore(t, LoadOptions{})
	p, err := db.Prepare(`SELECT ?x ?z WHERE { ?x <knows> ?y . ?y <knows> ?z }`, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		res, err := p.Query(QueryOptions{Threads: 2})
		if err != nil {
			t.Fatal(err)
		}
		if res.Count != 2 {
			t.Fatalf("run %d: count = %d, want 2", i, res.Count)
		}
	}
	n, err := p.Count(QueryOptions{})
	if err != nil || n != 2 {
		t.Errorf("Count = %d, %v", n, err)
	}
	if p.Explain() == "" {
		t.Error("empty Explain")
	}
	if _, err := db.Prepare(`broken`, false); err == nil {
		t.Error("broken query prepared")
	}
}

func TestPredicateInfos(t *testing.T) {
	db := familyStore(t, LoadOptions{})
	infos := db.PredicateInfos()
	if len(infos) != 2 {
		t.Fatalf("infos = %d, want 2", len(infos))
	}
	byIRI := map[string]PredicateInfo{}
	for _, pi := range infos {
		byIRI[pi.IRI] = pi
	}
	k := byIRI["<knows>"]
	if k.Triples != 3 || k.DistinctSubjects != 3 || k.DistinctObjects != 3 {
		t.Errorf("knows info = %+v", k)
	}
}

// TestOrderByAndOffset runs every case through every front door that answers
// a whole query — Store.Query, Prepared.Query (re-planned after a write, and
// four executions at once) and the node's /query over the same live handle —
// and, where a shard range can serve the query, through two /exec half
// ranges gathered as a coordinator does. All of them must return want.
func TestOrderByAndOffset(t *testing.T) {
	b := NewBuilder(LoadOptions{})
	for _, tr := range [][3]string{
		{"<alice>", "<knows>", "<bob>"}, {"<bob>", "<knows>", "<carol>"}, {"<carol>", "<knows>", "<dave>"},
		{"<alice>", "<age>", `"30"`}, {"<bob>", "<age>", `"25"`},
		// Under entailment, knows facts are related facts too.
		{"<knows>", "<http://www.w3.org/2000/01/rdf-schema#subPropertyOf>", "<related>"},
		{"<alice>", "<related>", "<erin>"},
	} {
		b.Add(tr[0], tr[1], tr[2])
	}
	db := b.Build()
	srv := httptest.NewServer(remote.NewNodeHandle(db.live, remote.NodeOptions{}).Handler())
	defer srv.Close()
	client := remote.NewClient(srv.URL, 5*time.Second)
	defer client.Close()

	const knows = `SELECT ?x ?y WHERE { ?x <knows> ?y } `
	const subjects = `SELECT DISTINCT ?x WHERE { ?x ?p ?o } `
	ab, bc, cd := []string{"<alice>", "<bob>"}, []string{"<bob>", "<carol>"}, []string{"<carol>", "<dave>"}
	allSubjects := [][]string{{"<alice>"}, {"<bob>"}, {"<carol>"}, {"<knows>"}}
	cases := []struct {
		src            string
		silent, entail bool
		want           [][]string // in order under ORDER BY, as a set otherwise
		limit          int        // > 0: any limit distinct rows of want
	}{
		{src: knows + "ORDER BY ?x", want: [][]string{ab, bc, cd}},
		{src: knows + "ORDER BY DESC(?x)", want: [][]string{cd, bc, ab}},
		// OFFSET skips after ordering; LIMIT caps after the offset.
		{src: knows + "ORDER BY ?x LIMIT 1 OFFSET 1", want: [][]string{bc}},
		{src: knows + "ORDER BY DESC(?y) LIMIT 2", want: [][]string{cd, bc}},
		{src: knows + "ORDER BY ?y OFFSET 2", want: [][]string{cd}},
		// Offset beyond the result set.
		{src: knows + "OFFSET 10"},
		{src: subjects, want: allSubjects},
		{src: knows + "LIMIT 2", want: [][]string{ab, bc, cd}, limit: 2},
		{src: subjects + "LIMIT 2", want: allSubjects, limit: 2},
		{src: knows, silent: true, want: [][]string{ab, bc, cd}},
		{src: `SELECT ?x ?y WHERE { ?x <related> ?y }`, entail: true,
			want: [][]string{ab, bc, cd, {"<alice>", "<erin>"}}},
	}
	for _, c := range cases {
		q, err := sparql.Parse(c.src)
		if err != nil {
			t.Fatal(err)
		}
		opts := QueryOptions{Threads: 3, Silent: c.silent, Entailment: c.entail}
		wantCount := int64(len(c.want))
		if c.limit > 0 {
			wantCount = int64(c.limit)
		}
		check := func(door string, rows [][]string, count int64, err error) {
			t.Helper()
			if err != nil {
				t.Errorf("%s %s: %v", door, c.src, err)
				return
			}
			if count != wantCount || (c.silent && rows != nil) || (!c.silent && int64(len(rows)) != wantCount) {
				t.Errorf("%s %s: count %d rows %v, want %d rows of %v", door, c.src, count, rows, wantCount, c.want)
				return
			}
			if c.silent || len(q.OrderBy) > 0 {
				if len(rows) > 0 && !reflect.DeepEqual(rows, c.want) {
					t.Errorf("%s %s: rows %v, want %v", door, c.src, rows, c.want)
				}
				return
			}
			seen := map[string]bool{}
			for _, r := range c.want {
				seen[strings.Join(r, " ")] = false
			}
			for _, r := range rows {
				key := strings.Join(r, " ")
				if done, ok := seen[key]; !ok || done {
					t.Errorf("%s %s: row %v repeated or not in %v", door, c.src, r, c.want)
				}
				seen[key] = true
			}
		}

		rows, count, err := results(db.Query(c.src, opts))
		check("Store.Query", rows, count, err)
		// Silent counting applies the same modifiers.
		if n, err := db.Count(c.src, opts); err != nil || n != wantCount {
			t.Errorf("Store.Count %s = %d, %v; want %d", c.src, n, err, wantCount)
		}

		p, err := db.Prepare(c.src, c.entail)
		if err != nil {
			t.Fatal(err)
		}
		rows, count, err = results(p.Query(opts))
		check("Prepared.Query", rows, count, err)
		// A write that changes no answer still moves the epoch: the next
		// executions re-plan on the new view. The plan is shared, so the
		// concurrent executions must each un-limit their own copy of it.
		planned := p.v
		db.Insert([]Triple{{"<alice>", "<knows>", "<bob>"}})
		var wg sync.WaitGroup
		for i := 0; i < 4; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				rows, count, err := results(p.Query(opts))
				check("concurrent Prepared.Query", rows, count, err)
			}()
		}
		wg.Wait()
		if p.v == planned {
			t.Errorf("Prepared %s did not re-plan after the epoch moved", c.src)
		}

		if !c.entail { // /query has no entailment switch
			u := srv.URL + remote.QueryPath + "?query=" + url.QueryEscape(c.src)
			if c.silent {
				u += "&silent=1"
			}
			rows, count, err = getQuery(u)
			check("/query", rows, count, err)
		}

		if !q.Buffered() {
			rows, count, err = execHalves(db, client, q, c.src, c.silent, c.entail)
			check("/exec halves", rows, count, err)
		}
	}
	// ORDER BY must reference a projected variable.
	if _, err := db.Query(`SELECT ?x WHERE { ?x <knows> ?y } ORDER BY ?y`, QueryOptions{}); err == nil {
		t.Error("ORDER BY on unprojected variable accepted")
	}
}

// results unpacks a Query outcome for comparison.
func results(res *Results, err error) ([][]string, int64, error) {
	if err != nil {
		return nil, 0, err
	}
	return res.Rows, res.Count, nil
}

// getQuery answers one query through a node's /query.
func getQuery(u string) ([][]string, int64, error) {
	resp, err := http.Get(u)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	var out remote.QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil || resp.StatusCode != http.StatusOK {
		return nil, 0, fmt.Errorf("status %d, decode %v", resp.StatusCode, err)
	}
	return out.Rows, out.Count, nil
}

// execHalves answers q through two /exec half ranges and gathers them as a
// coordinator does: DISTINCT and LIMIT apply again over the union, and the
// rows decode against the store's current view.
func execHalves(db *Store, c *remote.Client, q *sparql.Query, src string, silent, entail bool) ([][]string, int64, error) {
	wireSilent := silent && !q.Distinct
	var ids [][]uint32
	var count int64
	for s := 0; s < 2; s++ {
		resp, err := c.Exec(context.Background(), &remote.ExecRequest{
			Query: src, Entailment: entail, TotalShards: 2, ShardFrom: s, ShardTo: s + 1, Silent: wireSilent,
		})
		if err != nil {
			return nil, 0, err
		}
		ids, count = append(ids, resp.Rows...), count+resp.Count
	}
	if !wireSilent {
		if q.Distinct {
			ids = core.DedupRows(ids)
		}
		count = int64(len(ids))
	}
	if q.Limit > 0 && count > int64(q.Limit) {
		count = int64(q.Limit)
		if !wireSilent {
			ids = ids[:q.Limit]
		}
	}
	if silent {
		return nil, count, nil
	}
	v := db.live.View()
	plan, err := v.Plan(q, entail)
	if err != nil {
		return nil, 0, err
	}
	return (&core.Result{Plan: plan, Rows: ids}).StringRows(v.Store()), count, nil
}

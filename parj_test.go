package parj

import (
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

	"parj/internal/remote"
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

// TestOrderByAndOffset runs every case through the three ways a query is
// answered with decoded rows — Store.Query, Prepared.Query and the node's
// /query over the same live handle — and all three must return want.
func TestOrderByAndOffset(t *testing.T) {
	db := familyStore(t, LoadOptions{})
	srv := httptest.NewServer(remote.NewNodeHandle(db.live, remote.NodeOptions{}).Handler())
	defer srv.Close()

	const knows = `SELECT ?x ?y WHERE { ?x <knows> ?y } `
	ab, bc, cd := []string{"<alice>", "<bob>"}, []string{"<bob>", "<carol>"}, []string{"<carol>", "<dave>"}
	cases := []struct {
		modifiers string
		want      [][]string
	}{
		{"ORDER BY ?x", [][]string{ab, bc, cd}},
		{"ORDER BY DESC(?x)", [][]string{cd, bc, ab}},
		// OFFSET skips after ordering; LIMIT caps after the offset.
		{"ORDER BY ?x LIMIT 1 OFFSET 1", [][]string{bc}},
		{"ORDER BY DESC(?y) LIMIT 2", [][]string{cd, bc}},
		{"ORDER BY ?y OFFSET 2", [][]string{cd}},
		// Offset beyond the result set.
		{"OFFSET 10", nil},
	}
	for _, c := range cases {
		src := knows + c.modifiers
		opts := QueryOptions{Threads: 3}
		paths := map[string]func() ([][]string, int64, error){
			"Store.Query": func() ([][]string, int64, error) {
				res, err := db.Query(src, opts)
				if err != nil {
					return nil, 0, err
				}
				return res.Rows, res.Count, nil
			},
			"Prepared.Query": func() ([][]string, int64, error) {
				p, err := db.Prepare(src, false)
				if err != nil {
					return nil, 0, err
				}
				// The prepared plan is shared: concurrent executions must
				// each un-limit their own copy of it.
				var wg sync.WaitGroup
				for i := 0; i < 4; i++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						if res, err := p.Query(opts); err != nil || int(res.Count) != len(c.want) {
							t.Errorf("concurrent Prepared.Query %s: %v, %v", c.modifiers, res, err)
						}
					}()
				}
				defer wg.Wait()
				res, err := p.Query(opts)
				if err != nil {
					return nil, 0, err
				}
				return res.Rows, res.Count, nil
			},
			"/query": func() ([][]string, int64, error) {
				resp, err := http.Get(srv.URL + remote.QueryPath + "?query=" + url.QueryEscape(src))
				if err != nil {
					return nil, 0, err
				}
				defer resp.Body.Close()
				var out remote.QueryResponse
				if err := json.NewDecoder(resp.Body).Decode(&out); err != nil || resp.StatusCode != http.StatusOK {
					return nil, 0, fmt.Errorf("status %d, decode %v", resp.StatusCode, err)
				}
				return out.Rows, out.Count, nil
			},
		}
		for name, run := range paths {
			rows, count, err := run()
			if err != nil {
				t.Fatalf("%s %s: %v", name, c.modifiers, err)
			}
			if len(rows) != len(c.want) || count != int64(len(c.want)) || (len(rows) > 0 && !reflect.DeepEqual(rows, c.want)) {
				t.Errorf("%s %s: count %d rows %v, want %v", name, c.modifiers, count, rows, c.want)
			}
		}
		// Silent counting applies the same modifiers.
		if n, err := db.Count(src, opts); err != nil || n != int64(len(c.want)) {
			t.Errorf("Count %s = %d, %v; want %d", c.modifiers, n, err, len(c.want))
		}
	}
	// ORDER BY must reference a projected variable.
	if _, err := db.Query(`SELECT ?x WHERE { ?x <knows> ?y } ORDER BY ?y`, QueryOptions{}); err == nil {
		t.Error("ORDER BY on unprojected variable accepted")
	}
}

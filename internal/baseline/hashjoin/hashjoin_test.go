package hashjoin

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"parj/internal/rdf"
	"parj/internal/reference"
	"parj/internal/sparql"
)

func dedup(ts []rdf.Triple) []rdf.Triple {
	seen := map[rdf.Triple]bool{}
	var out []rdf.Triple
	for _, t := range ts {
		if !seen[t] {
			seen[t] = true
			out = append(out, t)
		}
	}
	return out
}

func fixture() []rdf.Triple {
	var ts []rdf.Triple
	add := func(s, p, o string) {
		ts = append(ts, rdf.Triple{S: "<" + s + ">", P: "<" + p + ">", O: "<" + o + ">"})
	}
	for i := 0; i < 20; i++ {
		add(fmt.Sprintf("p%d", i), "worksFor", fmt.Sprintf("d%d", i%4))
		for c := 0; c < 3; c++ {
			add(fmt.Sprintf("p%d", i), "teaches", fmt.Sprintf("c%d_%d", i, c))
		}
	}
	for i := 0; i < 40; i++ {
		add(fmt.Sprintf("s%d", i), "takesCourse", fmt.Sprintf("c%d_%d", i%20, i%3))
		add(fmt.Sprintf("s%d", i), "advisor", fmt.Sprintf("p%d", i%20))
	}
	return ts
}

func check(t *testing.T, data []rdf.Triple, src string) {
	t.Helper()
	q, err := sparql.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	e := Load(data)
	got, err := e.Evaluate(q)
	if err != nil {
		t.Fatalf("evaluate: %v", err)
	}
	want := reference.Evaluate(q, dedup(data))
	SortRowsForTest(got)
	want = reference.Canon(want)
	if len(got) != len(want) {
		t.Fatalf("%s: got %d rows, want %d", src, len(got), len(want))
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("%s: row %d = %v, want %v", src, i, got[i], want[i])
		}
	}
	n, err := e.Count(q)
	if err != nil {
		t.Fatal(err)
	}
	if int(n) != len(want) {
		t.Fatalf("%s: Count = %d, want %d", src, n, len(want))
	}
}

func TestMatchesOracle(t *testing.T) {
	data := fixture()
	for _, src := range []string{
		`SELECT ?x ?d WHERE { ?x <worksFor> ?d }`,
		`SELECT ?x ?c ?d WHERE { ?x <teaches> ?c . ?x <worksFor> ?d }`,
		`SELECT ?s ?p ?d WHERE { ?s <advisor> ?p . ?p <worksFor> ?d }`,
		`SELECT ?a ?b WHERE { ?a <takesCourse> ?c . ?b <teaches> ?c }`,
		`SELECT ?x WHERE { ?x <worksFor> <d2> }`,
		`SELECT ?c WHERE { <p3> <teaches> ?c }`,
		`SELECT DISTINCT ?d WHERE { ?s <advisor> ?p . ?p <worksFor> ?d }`,
		`SELECT ?x WHERE { ?x <nosuch> ?y }`,
		`SELECT ?p WHERE { <s0> ?p ?o }`,
		`SELECT ?a ?b WHERE { ?a <worksFor> <d0> . ?b <worksFor> <d1> }`,
	} {
		check(t, data, src)
	}
}

func TestLimitApplied(t *testing.T) {
	q, _ := sparql.Parse(`SELECT ?x ?c WHERE { ?x <teaches> ?c } LIMIT 5`)
	e := Load(fixture())
	n, err := e.Count(q)
	if err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Errorf("Count = %d, want 5", n)
	}
}

func TestDuplicateTriplesIgnored(t *testing.T) {
	data := fixture()
	e1 := Load(data)
	e2 := Load(append(append([]rdf.Triple{}, data...), data...))
	if e1.NumTriples() != e2.NumTriples() {
		t.Errorf("dedup failed: %d vs %d", e1.NumTriples(), e2.NumTriples())
	}
}

// Property: the engine agrees with the oracle on random graphs and BGPs.
func TestQuickOracleEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var data []rdf.Triple
		for i := 0; i < 60+rng.Intn(60); i++ {
			data = append(data, rdf.Triple{
				S: fmt.Sprintf("<r%d>", rng.Intn(15)),
				P: fmt.Sprintf("<p%d>", rng.Intn(3)),
				O: fmt.Sprintf("<r%d>", rng.Intn(15)),
			})
		}
		data = dedup(data)
		e := Load(data)
		vars := []string{"a", "b", "c"}
		for trial := 0; trial < 3; trial++ {
			src := "SELECT * WHERE {"
			for i := 0; i < 1+rng.Intn(3); i++ {
				s := "?" + vars[rng.Intn(3)]
				o := "?" + vars[rng.Intn(3)]
				if rng.Intn(4) == 0 {
					o = fmt.Sprintf("<r%d>", rng.Intn(15))
				}
				src += fmt.Sprintf(" %s <p%d> %s .", s, rng.Intn(3), o)
			}
			src += " }"
			q, err := sparql.Parse(src)
			if err != nil || len(q.Projection()) == 0 {
				continue
			}
			got, err := e.Evaluate(q)
			if err != nil {
				return false
			}
			SortRowsForTest(got)
			want := reference.Canon(reference.Evaluate(q, data))
			if len(got) != len(want) {
				t.Logf("seed=%d %s: got %d want %d", seed, src, len(got), len(want))
				return false
			}
			for i := range got {
				if !reflect.DeepEqual(got[i], want[i]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

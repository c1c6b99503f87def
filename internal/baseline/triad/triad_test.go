package triad

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
	for i := 0; i < 30; i++ {
		add(fmt.Sprintf("p%d", i), "worksFor", fmt.Sprintf("d%d", i%5))
		for c := 0; c < 4; c++ {
			add(fmt.Sprintf("p%d", i), "teaches", fmt.Sprintf("c%d_%d", i, c))
		}
	}
	for i := 0; i < 50; i++ {
		add(fmt.Sprintf("s%d", i), "takesCourse", fmt.Sprintf("c%d_%d", i%30, i%4))
		add(fmt.Sprintf("s%d", i), "advisor", fmt.Sprintf("p%d", i%30))
	}
	return ts
}

var testQueries = []string{
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
	`SELECT ?s ?u WHERE { ?s <takesCourse> ?c . ?x <teaches> ?c . ?x <worksFor> ?u }`,
}

func check(t *testing.T, e *Engine, data []rdf.Triple, src string) {
	t.Helper()
	q, err := sparql.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	got, err := e.Evaluate(q)
	if err != nil {
		t.Fatalf("evaluate: %v", err)
	}
	got = reference.Canon(got)
	want := reference.Canon(reference.Evaluate(q, data))
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
	data := dedup(fixture())
	for _, workers := range []int{1, 4, 8} {
		e := Load(data, Options{Workers: workers})
		for _, src := range testQueries {
			check(t, e, data, src)
		}
	}
}

func TestSummaryModeMatchesOracle(t *testing.T) {
	data := dedup(fixture())
	for _, buckets := range []int{2, 16, 64} {
		e := Load(data, Options{Workers: 4, SummaryBuckets: buckets})
		for _, src := range testQueries {
			check(t, e, data, src)
		}
	}
}

func TestExchangesCounted(t *testing.T) {
	data := dedup(fixture())
	e := Load(data, Options{Workers: 4})
	// A subject-object chain forces at least one rehash: the intermediate
	// result is partitioned by ?s but the second join probes on ?c.
	q, _ := sparql.Parse(`SELECT ?a ?b WHERE { ?a <takesCourse> ?c . ?b <teaches> ?c }`)
	if _, err := e.Count(q); err != nil {
		t.Fatal(err)
	}
	if e.Exchanges() == 0 {
		t.Error("subject-object join performed no exchanges")
	}
	// A pure subject-subject star needs none.
	q, _ = sparql.Parse(`SELECT ?x ?c ?d WHERE { ?x <teaches> ?c . ?x <worksFor> ?d }`)
	if _, err := e.Count(q); err != nil {
		t.Fatal(err)
	}
	if e.Exchanges() != 0 {
		t.Errorf("subject-subject star performed %d exchanges, want 0", e.Exchanges())
	}
}

func TestLimitApplied(t *testing.T) {
	e := Load(dedup(fixture()), Options{Workers: 4})
	q, _ := sparql.Parse(`SELECT ?x ?c WHERE { ?x <teaches> ?c } LIMIT 9`)
	n, err := e.Count(q)
	if err != nil {
		t.Fatal(err)
	}
	if n != 9 {
		t.Errorf("Count = %d, want 9", n)
	}
	rows, err := e.Evaluate(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 9 {
		t.Errorf("Evaluate returned %d rows, want 9", len(rows))
	}
}

// Property: triad agrees with the oracle across worker counts and SG modes.
func TestQuickOracleEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var data []rdf.Triple
		for i := 0; i < 50+rng.Intn(80); i++ {
			data = append(data, rdf.Triple{
				S: fmt.Sprintf("<r%d>", rng.Intn(15)),
				P: fmt.Sprintf("<p%d>", rng.Intn(3)),
				O: fmt.Sprintf("<r%d>", rng.Intn(15)),
			})
		}
		data = dedup(data)
		buckets := []int{0, 0, 8, 32}[rng.Intn(4)]
		e := Load(data, Options{Workers: 1 + rng.Intn(6), SummaryBuckets: buckets})
		vars := []string{"a", "b", "c"}
		for trial := 0; trial < 3; trial++ {
			src := "SELECT * WHERE {"
			for i := 0; i < 1+rng.Intn(3); i++ {
				s := "?" + vars[rng.Intn(3)]
				o := "?" + vars[rng.Intn(3)]
				if rng.Intn(4) == 0 {
					o = fmt.Sprintf("<r%d>", rng.Intn(15))
				}
				if rng.Intn(6) == 0 {
					s = fmt.Sprintf("<r%d>", rng.Intn(15))
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
			got = reference.Canon(got)
			want := reference.Canon(reference.Evaluate(q, data))
			if len(got) != len(want) {
				t.Logf("seed=%d %s workers+sg: got %d want %d", seed, src, len(got), len(want))
				return false
			}
			for i := range got {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Logf("seed=%d %s: row %d: got %v want %v", seed, src, i, got[i], want[i])
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

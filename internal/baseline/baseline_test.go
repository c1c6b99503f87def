package baseline

import (
	"reflect"
	"slices"
	"testing"

	"parj/internal/rdf"
	"parj/internal/sparql"
)

func parse(t *testing.T, src string) *sparql.Query {
	t.Helper()
	q, err := sparql.Parse(src)
	if err != nil {
		t.Fatalf("parse %s: %v", src, err)
	}
	return q
}

// data loads a fixture where <big> has 6 triples, <mid> 3 and <small> 1,
// plus one duplicate that Encode must drop.
func data(t *testing.T) *Data {
	t.Helper()
	var ts []rdf.Triple
	add := func(s, p, o string) { ts = append(ts, rdf.Triple{S: s, P: p, O: o}) }
	for i, o := range []string{"<a>", "<b>", "<c>", "<d>", "<e>", "<f>"} {
		add("<s"+string(rune('0'+i))+">", "<big>", o)
	}
	add("<a>", "<mid>", "<b>")
	add("<b>", "<mid>", "<c>")
	add("<c>", "<mid>", "<d>")
	add("<a>", "<small>", "<b>")
	add("<a>", "<small>", "<b>")
	d, spo := Encode(ts)
	if d.N != 10 || len(spo) != 10 {
		t.Fatalf("Encode kept %d (N=%d) triples, want 10 distinct", len(spo), d.N)
	}
	if !reflect.DeepEqual(d.PredCount, []int{6, 3, 1}) {
		t.Fatalf("PredCount = %v, want [6 3 1]", d.PredCount)
	}
	return d
}

func TestOrderIsGreedyPermutation(t *testing.T) {
	d := data(t)
	for _, c := range []struct {
		src  string
		want []int
	}{
		// Cheapest first, then the connected patterns by estimate.
		{`SELECT * WHERE { ?x <big> ?y . ?y <mid> ?z . ?z <small> ?w }`, []int{2, 1, 0}},
		// <small> is cheapest, but ?u ?v share nothing with it: the
		// connected <big> pattern goes before the cheaper disconnected <mid>.
		{`SELECT * WHERE { ?u <mid> ?v . ?x <big> ?y . ?y <small> ?z }`, []int{2, 1, 0}},
		// Equal estimates keep query order.
		{`SELECT * WHERE { ?x <mid> ?y . ?y <mid> ?z . ?z <mid> ?w }`, []int{0, 1, 2}},
		{`SELECT * WHERE { ?z <mid> ?w . ?x <mid> ?y . ?y <mid> ?z }`, []int{0, 2, 1}},
		// A constant subject divides by 100; an unknown predicate is empty.
		{`SELECT * WHERE { ?x <mid> ?y . <a> <big> ?x }`, []int{1, 0}},
		{`SELECT * WHERE { ?x <small> ?y . ?y <nope> ?z }`, []int{1, 0}},
	} {
		q := parse(t, c.src)
		got := d.Order(q.Patterns)
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: Order = %v, want %v", c.src, got, c.want)
		}
		sorted := slices.Clone(got)
		slices.Sort(sorted)
		for i, v := range sorted {
			if v != i {
				t.Fatalf("%s: Order = %v is not a permutation", c.src, got)
			}
		}
	}
}

func TestCollectorDistinctBeforeLimit(t *testing.T) {
	// Rows over (?x, ?y); the query projects ?x only, so the first three
	// rows collapse to one distinct row.
	rows := [][]uint32{{1, 10}, {1, 11}, {1, 12}, {2, 10}, {3, 10}, {2, 11}}
	for _, c := range []struct {
		src  string
		want [][]uint32
	}{
		{`SELECT DISTINCT ?x WHERE { ?x <p> ?y } LIMIT 2`, [][]uint32{{1}, {2}}},
		{`SELECT DISTINCT ?x WHERE { ?x <p> ?y }`, [][]uint32{{1}, {2}, {3}}},
		{`SELECT ?x WHERE { ?x <p> ?y } LIMIT 2`, [][]uint32{{1}, {1}}},
		{`SELECT ?y ?x WHERE { ?x <p> ?y } LIMIT 1`, [][]uint32{{10, 1}}},
		{`SELECT DISTINCT ?x WHERE { ?x <p> ?y } LIMIT 0`, nil},
	} {
		q := parse(t, c.src)
		keep := NewCollector(q, []string{"x", "y"}, true)
		count := NewCollector(q, []string{"x", "y"}, false)
		for _, row := range rows {
			more := keep.Add(row)
			if count.Add(row) != more {
				t.Fatalf("%s: count-only and keeping collectors disagree on wanting more", c.src)
			}
			if !more {
				break
			}
		}
		if !reflect.DeepEqual(keep.Rows, c.want) {
			t.Errorf("%s: Rows = %v, want %v", c.src, keep.Rows, c.want)
		}
		if keep.Count != int64(len(c.want)) || count.Count != keep.Count {
			t.Errorf("%s: Count = %d keeping, %d count-only; want %d", c.src, keep.Count, count.Count, len(c.want))
		}
		if count.Rows != nil {
			t.Errorf("%s: count-only collector kept %d rows", c.src, len(count.Rows))
		}
	}
}

func TestDecodePredicateVariable(t *testing.T) {
	d := data(t)
	q := parse(t, `SELECT ?p ?s WHERE { ?s ?p <b> }`)
	p, s := d.Predicates.Lookup("<small>"), d.Resources.Lookup("<a>")
	// Predicate and resource IDs overlap; the column decides the dictionary.
	if p == 0 || s == 0 || d.Resources.Decode(p) == "<small>" {
		t.Fatalf("fixture: p=%d s=%d", p, s)
	}
	got := d.Decode(q, [][]uint32{{p, s}})
	if want := [][]string{{"<small>", "<a>"}}; !reflect.DeepEqual(got, want) {
		t.Errorf("Decode = %v, want %v", got, want)
	}
}

func TestPatternBindRepeatedVariable(t *testing.T) {
	tp := parse(t, `SELECT * WHERE { ?x <p> ?x }`).Patterns[0]
	pat := NewPattern(tp)
	if !reflect.DeepEqual(pat.Vars, []string{"x"}) {
		t.Fatalf("Vars = %v, want [x]", pat.Vars)
	}
	if row, ok := pat.Bind(4, 1, 4); !ok || !reflect.DeepEqual(row, []uint32{4}) {
		t.Errorf("Bind(4,1,4) = %v, %v; want [4], true", row, ok)
	}
	if _, ok := pat.Bind(4, 1, 5); ok {
		t.Error("Bind(4,1,5) bound ?x to two values")
	}
}

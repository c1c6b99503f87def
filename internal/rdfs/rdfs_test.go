package rdfs

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"parj/internal/core"
	"parj/internal/optimizer"
	"parj/internal/rdf"
	"parj/internal/reference"
	"parj/internal/sparql"
	"parj/internal/stats"
	"parj/internal/store"
)

// fixture: a small ontology-backed graph.
//
//	Student ⊑ Person, GradStudent ⊑ Student
//	hasAdvisor ⊑ knows, hasFriend ⊑ knows
func fixtureTriples() []rdf.Triple {
	var ts []rdf.Triple
	add := func(s, p, o string) { ts = append(ts, rdf.Triple{S: s, P: p, O: o}) }
	add("<Student>", SubClassOf, "<Person>")
	add("<GradStudent>", SubClassOf, "<Student>")
	add("<hasAdvisor>", SubPropertyOf, "<knows>")
	add("<hasFriend>", SubPropertyOf, "<knows>")
	add("<alice>", RDFType, "<GradStudent>")
	add("<bob>", RDFType, "<Student>")
	add("<carol>", RDFType, "<Person>")
	add("<dave>", RDFType, "<Professor>")
	add("<alice>", "<hasAdvisor>", "<dave>")
	add("<bob>", "<hasFriend>", "<alice>")
	add("<carol>", "<knows>", "<bob>")
	add("<alice>", "<memberOf>", "<cs>")
	add("<bob>", "<memberOf>", "<cs>")
	return ts
}

type fixture struct {
	triples []rdf.Triple
	st      *store.Store
	stats   *stats.Stats
	h       *Hierarchy
}

func newFixture(t testing.TB, triples []rdf.Triple) *fixture {
	t.Helper()
	seen := map[rdf.Triple]bool{}
	var dedup []rdf.Triple
	for _, tr := range triples {
		if !seen[tr] {
			seen[tr] = true
			dedup = append(dedup, tr)
		}
	}
	st := store.LoadTriples(dedup, store.BuildOptions{BuildPosIndex: true})
	return &fixture{
		triples: dedup,
		st:      st,
		stats:   stats.New(st),
		h:       New(st, "", "", ""),
	}
}

// run evaluates src with hierarchy expansion on the fixture.
func (f *fixture) run(t testing.TB, src string, threads int) [][]string {
	t.Helper()
	q, err := sparql.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	plan, err := optimizer.OptimizeExpanded(q, f.st, f.stats, f.h)
	if err != nil {
		t.Fatalf("optimize: %v", err)
	}
	res, err := core.Execute(f.st, plan, core.Options{Threads: threads})
	if err != nil {
		t.Fatalf("execute: %v", err)
	}
	return reference.Canon(res.StringRows(f.st))
}

// oracle evaluates src on the forward-chained materialization.
func (f *fixture) oracle(t testing.TB, src string) [][]string {
	t.Helper()
	q, err := sparql.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return reference.Canon(reference.Evaluate(q, ForwardChain(f.triples, "", "", "")))
}

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

func TestClosures(t *testing.T) {
	f := newFixture(t, fixtureTriples())
	person := f.st.Resources.Lookup("<Person>")
	subs := f.h.SubClasses(person)
	if len(subs) != 3 {
		t.Errorf("SubClasses(Person) = %d entries, want 3 (Person, Student, GradStudent)", len(subs))
	}
	knows := f.st.Predicates.Lookup("<knows>")
	props := f.h.SubProperties(knows)
	if len(props) != 3 {
		t.Errorf("SubProperties(knows) = %d entries, want 3", len(props))
	}
	if !f.h.HasExpansions() {
		t.Error("HasExpansions = false")
	}
	// A leaf has no expansion.
	grad := f.st.Resources.Lookup("<GradStudent>")
	if f.h.SubClasses(grad) != nil {
		t.Error("leaf class has an expansion")
	}
}

var entailmentQueries = []string{
	// Class hierarchy: all persons includes students and grad students.
	`SELECT ?x WHERE { ?x ` + RDFType + ` <Person> }`,
	`SELECT ?x WHERE { ?x ` + RDFType + ` <Student> }`,
	// Property hierarchy: knows includes advisor and friend edges.
	`SELECT ?x ?y WHERE { ?x <knows> ?y }`,
	// Join mixing both expansions.
	`SELECT ?x ?y WHERE { ?x ` + RDFType + ` <Person> . ?x <knows> ?y }`,
	// Expanded pattern not first.
	`SELECT ?x WHERE { ?x <memberOf> <cs> . ?x ` + RDFType + ` <Person> }`,
	// Constant subject with expanded type object.
	`SELECT ?y WHERE { <alice> ` + RDFType + ` <Person> . <alice> <knows> ?y }`,
	// Bound value probe through an expanded property.
	`SELECT ?x WHERE { ?x <knows> <alice> }`,
	// No expansion anywhere: must equal plain evaluation.
	`SELECT ?x WHERE { ?x <memberOf> ?d }`,
}

func TestEntailmentMatchesForwardChaining(t *testing.T) {
	f := newFixture(t, fixtureTriples())
	for _, src := range entailmentQueries {
		want := f.oracle(t, src)
		for _, threads := range []int{1, 4} {
			got := f.run(t, src, threads)
			if !rowsEqual(got, want) {
				t.Errorf("%s (threads=%d):\ngot  %v\nwant %v", src, threads, got, want)
			}
		}
	}
}

func TestNoDuplicatesFromOverlappingHierarchies(t *testing.T) {
	// alice is typed GradStudent only; the expanded Person query must
	// return her exactly once even though GradStudent ⊑ Student ⊑ Person
	// gives multiple derivation paths once bob's type is also present.
	ts := append(fixtureTriples(),
		rdf.Triple{S: "<alice>", P: RDFType, O: "<Student>"},    // redundant assertion
		rdf.Triple{S: "<alice>", P: "<hasFriend>", O: "<dave>"}, // duplicate knows-edge via 2 props
	)
	f := newFixture(t, ts)
	got := f.run(t, `SELECT ?x WHERE { ?x `+RDFType+` <Person> }`, 2)
	counts := map[string]int{}
	for _, row := range got {
		counts[row[0]]++
	}
	if counts["<alice>"] != 1 {
		t.Errorf("alice returned %d times, want 1", counts["<alice>"])
	}
	got = f.run(t, `SELECT ?x ?y WHERE { ?x <knows> ?y }`, 2)
	pair := 0
	for _, row := range got {
		if row[0] == "<alice>" && row[1] == "<dave>" {
			pair++
		}
	}
	if pair != 1 {
		t.Errorf("(alice,dave) returned %d times, want 1 (advisor + friend edges)", pair)
	}
}

func TestWithoutExpanderNoEntailment(t *testing.T) {
	f := newFixture(t, fixtureTriples())
	q, _ := sparql.Parse(`SELECT ?x WHERE { ?x ` + RDFType + ` <Person> }`)
	plan, err := optimizer.Optimize(q, f.st, f.stats)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Execute(f.st, plan, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 1 { // only carol is directly typed Person
		t.Errorf("plain evaluation found %d persons, want 1", res.Count)
	}
}

func TestForwardChainFixpointFreeCases(t *testing.T) {
	out := ForwardChain(fixtureTriples(), "", "", "")
	want := map[rdf.Triple]bool{
		{S: "<alice>", P: RDFType, O: "<Student>"}: true,
		{S: "<alice>", P: RDFType, O: "<Person>"}:  true,
		{S: "<alice>", P: "<knows>", O: "<dave>"}:  true,
		{S: "<carol>", P: "<knows>", O: "<bob>"}:   true,
	}
	have := map[rdf.Triple]bool{}
	for _, tr := range out {
		have[tr] = true
	}
	for tr := range want {
		if !have[tr] {
			t.Errorf("missing inferred triple %v", tr)
		}
	}
}

func TestCyclicHierarchy(t *testing.T) {
	// A ⊑ B ⊑ A: both classes are equivalent; closure must terminate and
	// queries over either must see instances of both.
	var ts []rdf.Triple
	ts = append(ts,
		rdf.Triple{S: "<A>", P: SubClassOf, O: "<B>"},
		rdf.Triple{S: "<B>", P: SubClassOf, O: "<A>"},
		rdf.Triple{S: "<x>", P: RDFType, O: "<A>"},
		rdf.Triple{S: "<y>", P: RDFType, O: "<B>"},
	)
	f := newFixture(t, ts)
	got := f.run(t, `SELECT ?v WHERE { ?v `+RDFType+` <A> }`, 1)
	if len(got) != 2 {
		t.Errorf("cyclic hierarchy: %d instances of A, want 2", len(got))
	}
}

// Property: hierarchy-expanded evaluation equals plain evaluation on the
// forward-chained materialization, for random graphs, hierarchies and
// queries.
func TestQuickEntailmentEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var ts []rdf.Triple
		// Random class DAG over 6 classes and property DAG over 4 props.
		for i := 1; i < 6; i++ {
			if rng.Intn(2) == 0 {
				ts = append(ts, rdf.Triple{
					S: fmt.Sprintf("<C%d>", i), P: SubClassOf, O: fmt.Sprintf("<C%d>", rng.Intn(i)),
				})
			}
		}
		for i := 1; i < 4; i++ {
			if rng.Intn(2) == 0 {
				ts = append(ts, rdf.Triple{
					S: fmt.Sprintf("<p%d>", i), P: SubPropertyOf, O: fmt.Sprintf("<p%d>", rng.Intn(i)),
				})
			}
		}
		for i := 0; i < 60; i++ {
			switch rng.Intn(3) {
			case 0:
				ts = append(ts, rdf.Triple{
					S: fmt.Sprintf("<r%d>", rng.Intn(12)),
					P: RDFType,
					O: fmt.Sprintf("<C%d>", rng.Intn(6)),
				})
			default:
				ts = append(ts, rdf.Triple{
					S: fmt.Sprintf("<r%d>", rng.Intn(12)),
					P: fmt.Sprintf("<p%d>", rng.Intn(4)),
					O: fmt.Sprintf("<r%d>", rng.Intn(12)),
				})
			}
		}
		fix := newFixture(t, ts)
		queries := []string{
			fmt.Sprintf(`SELECT ?x WHERE { ?x %s <C%d> }`, RDFType, rng.Intn(6)),
			fmt.Sprintf(`SELECT ?x ?y WHERE { ?x <p%d> ?y }`, rng.Intn(4)),
			fmt.Sprintf(`SELECT ?x ?y WHERE { ?x %s <C%d> . ?x <p%d> ?y }`, RDFType, rng.Intn(6), rng.Intn(4)),
			fmt.Sprintf(`SELECT ?x WHERE { ?x <p%d> <r%d> }`, rng.Intn(4), rng.Intn(12)),
		}
		for _, src := range queries {
			want := fix.oracle(t, src)
			got := fix.run(t, src, 1+rng.Intn(4))
			if !rowsEqual(got, want) {
				t.Logf("seed=%d query=%s: got %d rows want %d", seed, src, len(got), len(want))
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestDerivedOnlyParentProperty(t *testing.T) {
	// <mentors> never occurs as a predicate — only its subproperties do.
	// Queries naming it must still answer through the union.
	var ts []rdf.Triple
	add := func(s, p, o string) { ts = append(ts, rdf.Triple{S: s, P: p, O: o}) }
	add("<advisorOf>", SubPropertyOf, "<mentors>")
	add("<tutorOf>", SubPropertyOf, "<mentors>")
	add("<cat>", "<advisorOf>", "<ben>")
	add("<ben>", "<tutorOf>", "<ann>")
	f := newFixture(t, ts)

	src := `SELECT ?m ?s WHERE { ?m <mentors> ?s }`
	want := f.oracle(t, src)
	got := f.run(t, src, 2)
	if !rowsEqual(got, want) {
		t.Errorf("derived-only parent: got %v want %v", got, want)
	}
	if len(got) != 2 {
		t.Errorf("got %d rows, want 2", len(got))
	}
	// Without entailment the same query is provably empty.
	q, _ := sparql.Parse(src)
	plan, err := optimizer.Optimize(q, f.st, f.stats)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Empty {
		t.Error("plain plan for unknown predicate should be Empty")
	}
}

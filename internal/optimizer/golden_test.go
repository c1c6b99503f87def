package optimizer_test

// The golden-plan test pins every field of every plan the optimizer makes
// over a fixed corpus: the LUBM queries, the point-query shapes, hand-picked
// edge cases and 2 000 seeded random BGPs, each planned with and
// without RDFS entailment. A change to the optimizer's bookkeeping must leave
// the file byte-identical; only an intended cost-model change regenerates it:
//
//	go test ./internal/optimizer -run TestGoldenPlans -update

import (
	"bytes"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"parj/internal/lubm"
	"parj/internal/optimizer"
	"parj/internal/rdf"
	"parj/internal/rdfs"
	"parj/internal/sparql"
	"parj/internal/stats"
	"parj/internal/store"
)

var update = flag.Bool("update", false, "rewrite testdata/plans.golden from the current optimizer")

const goldenPath = "testdata/plans.golden"

// randomBGPs is how many seeded BGPs of 1–16 patterns the corpus holds.
const randomBGPs = 2000

// planFixture is one store, its statistics and its RDFS hierarchy.
type planFixture struct {
	st *store.Store
	s  *stats.Stats
	x  optimizer.Expander
}

func newPlanFixture(triples []rdf.Triple, typeIRI string) planFixture {
	st := store.LoadTriples(triples, store.BuildOptions{})
	return planFixture{st: st, s: stats.New(st), x: rdfs.New(st, "", "", typeIRI)}
}

// lubmFixture is LUBM 1 plus a small class and property hierarchy, so that
// entailment widens type objects (ExpandObject), an asserted predicate
// (ExpandPredicate) and a never-asserted parent property
// (ExpandPredicateIRI).
func lubmFixture() planFixture {
	ts := lubm.Triples(1, lubm.Config{})
	l := func(local string) string { return "<http://lubm.repro/" + local + ">" }
	sub := func(child, parent string) { ts = append(ts, rdf.Triple{S: child, P: rdfs.SubClassOf, O: parent}) }
	sub(lubm.ClassGradStudent, l("Student"))
	sub(lubm.ClassUndergrad, l("Student"))
	sub(lubm.ClassFullProf, l("Professor"))
	sub(lubm.ClassAssocProf, l("Professor"))
	sub(lubm.ClassAsstProf, l("Professor"))
	sub(l("Professor"), l("Faculty"))
	sub(lubm.ClassLecturer, l("Faculty"))
	sub(lubm.ClassGradCourse, lubm.ClassCourse)
	subp := func(child, parent string) { ts = append(ts, rdf.Triple{S: child, P: rdfs.SubPropertyOf, O: parent}) }
	subp(lubm.PredDoctoralFrom, l("degreeFrom"))
	subp(lubm.PredMastersFrom, l("degreeFrom"))
	subp(lubm.PredUndergradFrom, l("degreeFrom"))
	subp(lubm.PredHeadOf, lubm.PredWorksFor)
	return newPlanFixture(ts, lubm.PredType)
}

// lubmCorpus is L1–L10, the L4–L6 point shapes with constants from the
// data, and edge cases: hierarchy widening, variable predicates, constants
// absent from the dictionary or from a table, self-joins, cycles, LIMIT 0,
// and a namespace mix the optimizer refuses.
func lubmCorpus() (names, queries []string) {
	add := func(name, q string) { names, queries = append(names, name), append(queries, q) }
	for _, q := range lubm.Queries() {
		add(q.Name, q.SPARQL)
	}
	l := func(local string) string { return "<http://lubm.repro/" + local + ">" }
	for i, c := range [][3]string{{"0/dept0/prof0", "0/dept0", "0/dept0/prof1"}, {"0/dept3/prof7", "0/dept2", "0/dept5/prof2"}} {
		teacher, dept, advisor := l("univ"+c[0]), l("univ"+c[1]), l("univ"+c[2])
		add(fmt.Sprintf("P4-%d", i), `SELECT ?y WHERE { `+teacher+` `+lubm.PredWorksFor+` ?x . `+
			teacher+` `+lubm.PredTeacherOf+` ?y . ?x `+lubm.PredSubOrgOf+` ?z }`)
		add(fmt.Sprintf("P5-%d", i), `SELECT ?x WHERE { ?x `+lubm.PredMemberOf+` `+dept+` . ?x `+
			lubm.PredType+` `+lubm.ClassGradStudent+` }`)
		add(fmt.Sprintf("P6-%d", i), `SELECT ?x ?y WHERE { ?x `+lubm.PredAdvisor+` `+advisor+` . ?x `+
			lubm.PredTakesCourse+` ?y }`)
	}
	prof := l("univ0/dept0/prof0")
	add("E-student", `SELECT ?x ?c WHERE { ?x `+lubm.PredType+` `+l("Student")+` . ?x `+lubm.PredTakesCourse+` ?c }`)
	add("E-faculty", `SELECT * WHERE { ?x `+lubm.PredType+` `+l("Faculty")+` . ?x `+lubm.PredWorksFor+` ?d . ?d `+lubm.PredSubOrgOf+` ?u }`)
	add("E-degree", `SELECT ?x ?u WHERE { ?x `+l("degreeFrom")+` ?u . ?u `+lubm.PredType+` `+lubm.ClassUniversity+` }`)
	add("E-worksfor", `SELECT DISTINCT ?d WHERE { ?x `+lubm.PredWorksFor+` ?d . ?x `+lubm.PredName+` ?n }`)
	add("E-course", `SELECT ?c WHERE { `+prof+` `+lubm.PredTeacherOf+` ?c . ?c `+lubm.PredType+` `+lubm.ClassCourse+` }`)
	add("V-subject", `SELECT ?p ?o WHERE { `+prof+` ?p ?o }`)
	add("V-object", `SELECT ?s ?p WHERE { ?s ?p `+l("univ0/dept0")+` }`)
	add("V-join", `SELECT * WHERE { ?x `+lubm.PredAdvisor+` ?y . ?y ?p ?z . ?x ?q ?z }`)
	add("V-all", `SELECT * WHERE { ?s ?p ?o } LIMIT 5`)
	add("A-predicate", `SELECT ?x WHERE { ?x `+l("nosuch")+` ?y }`)
	add("A-object", `SELECT ?x WHERE { ?x `+lubm.PredAdvisor+` `+l("nosuch")+` }`)
	add("A-subject", `SELECT ?y WHERE { `+l("nosuch")+` `+lubm.PredAdvisor+` ?y . ?y ?p ?z }`)
	add("A-table", `SELECT ?y WHERE { `+lubm.ClassCourse+` `+lubm.PredAdvisor+` ?y }`)
	add("A-triple", `SELECT ?y WHERE { `+prof+` `+lubm.PredWorksFor+` `+l("univ0")+` . ?y `+lubm.PredAdvisor+` `+prof+` }`)
	add("C-triple", `SELECT ?y WHERE { `+prof+` `+lubm.PredWorksFor+` `+l("univ0/dept0")+` . ?y `+lubm.PredAdvisor+` `+prof+` }`)
	add("S-self", `SELECT ?x WHERE { ?x `+lubm.PredSubOrgOf+` ?x . ?x `+lubm.PredName+` ?n }`)
	add("S-triangle", `SELECT * WHERE { ?a `+lubm.PredAdvisor+` ?b . ?b `+lubm.PredWorksFor+` ?d . ?a `+lubm.PredMemberOf+` ?d }`)
	add("S-4cycle", `SELECT * WHERE { ?a `+lubm.PredTakesCourse+` ?c . ?t `+lubm.PredTeacherOf+` ?c . ?t `+lubm.PredWorksFor+` ?d . ?a `+lubm.PredMemberOf+` ?d }`)
	add("S-parallel", `SELECT * WHERE { ?x `+lubm.PredWorksFor+` ?d . ?x `+lubm.PredHeadOf+` ?d }`)
	add("S-star", `SELECT * WHERE { ?x `+lubm.PredName+` ?n . ?x `+lubm.PredEmail+` ?e . ?x `+lubm.PredTelephone+` ?t . ?x `+lubm.PredWorksFor+` ?d }`)
	add("M-limit0", `SELECT ?x WHERE { ?x `+lubm.PredAdvisor+` ?y } LIMIT 0`)
	add("M-order", `SELECT ?x ?y WHERE { ?x `+lubm.PredAdvisor+` ?y } ORDER BY DESC(?y) LIMIT 3 OFFSET 1`)
	add("N-mix", `SELECT ?v WHERE { ?s ?v ?o . ?v `+lubm.PredName+` ?w }`)
	return names, queries
}

// randomFixture is a seeded graph with short IRIs: eight predicates of
// different sizes and skews, typed nodes, a class hierarchy, one asserted
// parent property and one parent that is never asserted.
func randomFixture() planFixture {
	rng := rand.New(rand.NewSource(27))
	var ts []rdf.Triple
	add := func(s, p, o string) { ts = append(ts, rdf.Triple{S: s, P: p, O: o}) }
	node := func(i int) string { return fmt.Sprintf("<n%d>", i) }
	sizes := []int{1500, 400, 60, 800, 200, 20, 300, 1000}
	for p, size := range sizes {
		for k := 0; k < size; k++ {
			s := rng.Intn(200)
			if p%2 == 1 { // skewed subjects
				s = rng.Intn(1 + rng.Intn(200))
			}
			o := rng.Intn(200)
			if p == 4 {
				s = k // functional: one object per subject
			}
			add(node(s), fmt.Sprintf("<p%d>", p), node(o))
		}
	}
	for i := 0; i < 200; i++ {
		add(node(i), "<type>", fmt.Sprintf("<C%d>", rng.Intn(6)))
		if rng.Intn(3) == 0 {
			add(node(i), "<type>", fmt.Sprintf("<C%d>", rng.Intn(6)))
		}
	}
	for _, e := range [][2]string{{"<C1>", "<C0>"}, {"<C2>", "<C0>"}, {"<C3>", "<C1>"}, {"<C5>", "<C4>"}} {
		add(e[0], rdfs.SubClassOf, e[1])
	}
	for _, e := range [][2]string{{"<p1>", "<p0>"}, {"<p2>", "<p0>"}, {"<p5>", "<pAbs>"}, {"<p6>", "<pAbs>"}} {
		add(e[0], rdfs.SubPropertyOf, e[1])
	}
	return newPlanFixture(ts, "<type>")
}

// randomBGP returns a seeded query of 1–16 patterns over randomFixture's
// vocabulary. Small variable pools make joins and cycles likely, and ?x p ?x
// possible; predicate variables come from their own pool, so no query mixes
// namespaces. Constants that end planning before the join order is chosen
// are per query, not per pattern, so most large BGPs reach the DP or the
// greedy search: one in eight has a constant missing from the dictionary,
// one in six may use <pAbs>, which only entailment resolves.
func randomBGP(rng *rand.Rand) string {
	n := 1 + rng.Intn(16)
	nv := 1 + rng.Intn(n+1)
	if nv > 8 {
		nv = 8
	}
	used := []int{rng.Intn(nv)}
	v := func() string {
		if rng.Intn(10) < 7 {
			return fmt.Sprintf("?v%d", used[rng.Intn(len(used))])
		}
		i := rng.Intn(nv)
		used = append(used, i)
		return fmt.Sprintf("?v%d", i)
	}
	resource := func() string {
		if rng.Intn(20) == 0 {
			return fmt.Sprintf("<C%d>", rng.Intn(6)) // in the dictionary, rarely in a table
		}
		return fmt.Sprintf("<n%d>", rng.Intn(200))
	}
	parent := rng.Intn(6) == 0
	head := []string{"SELECT * ", "SELECT DISTINCT * ", "SELECT ?v0 ", "SELECT * "}[rng.Intn(4)]
	bgp := make([][3]string, n)
	for i := range bgp {
		s, p, o := &bgp[i][0], &bgp[i][1], &bgp[i][2]
		switch r := rng.Intn(20); {
		case r < 2 && parent:
			*p = "<pAbs>"
		case r < 3:
			*p = fmt.Sprintf("?q%d", rng.Intn(2))
		case r < 6:
			*p = "<type>"
		default:
			*p = fmt.Sprintf("<p%d>", rng.Intn(8))
		}
		if rng.Intn(20) < 3 {
			*s = resource()
		} else {
			*s = v()
		}
		switch r := rng.Intn(20); {
		case r < 5 && *p == "<type>":
			*o = fmt.Sprintf("<C%d>", rng.Intn(6))
		case r < 5:
			*o = resource()
		default:
			*o = v()
			if *o == *s && rng.Intn(4) != 0 {
				*o = v()
			}
		}
	}
	if rng.Intn(8) == 0 {
		bgp[rng.Intn(n)][rng.Intn(3)] = "<absent>"
	}
	var b strings.Builder
	for _, tp := range bgp {
		fmt.Fprintf(&b, " %s %s %s .", tp[0], tp[1], tp[2])
	}
	body := b.String()
	if !strings.Contains(body, "?v0 ") {
		head = "SELECT * " // a projected variable must occur in the BGP
	}
	tail := ""
	if rng.Intn(10) == 0 {
		tail = fmt.Sprintf(" LIMIT %d", rng.Intn(3))
	}
	return head + "WHERE {" + body + " }" + tail
}

// dumpPlan renders every field of the plan. Each PatternPlan is printed
// with its Source cleared, since the Explain lines above it already name
// the patterns in plan order.
func dumpPlan(b *bytes.Buffer, src string, f planFixture, x optimizer.Expander) {
	q, err := sparql.Parse(src)
	if err != nil {
		fmt.Fprintf(b, "parse error: %v\n", err)
		return
	}
	p, err := optimizer.OptimizeExpanded(q, f.st, f.s, x)
	if err != nil {
		fmt.Fprintf(b, "error: %v\n", err)
		return
	}
	fmt.Fprintf(b, "empty=%v shape=%v wcoj=%v cost=%v card=%v slots=%d distinct=%v limit=%d\n",
		p.Empty, p.Shape, p.PreferWCOJ, p.EstCost, p.EstCard, p.NumSlots, p.Distinct, p.Limit)
	fmt.Fprintf(b, "vars=%v pred=%v project=%v\n", p.SlotVars, p.SlotIsPred, p.Project)
	b.WriteString(p.Explain())
	for i, pp := range p.Patterns {
		pp.Source = sparql.TriplePattern{}
		fmt.Fprintf(b, "  %d %+v\n", i, pp)
	}
}

// goldenPlans renders the whole corpus. A plan with entailment is printed
// only where it differs from the plan without.
func goldenPlans() []byte {
	var b bytes.Buffer
	entry := func(name, src string, f planFixture) {
		fmt.Fprintf(&b, "== %s\n%s\n", name, strings.Join(strings.Fields(src), " "))
		var plain, entailed bytes.Buffer
		dumpPlan(&plain, src, f, nil)
		dumpPlan(&entailed, src, f, f.x)
		b.Write(plain.Bytes())
		if bytes.Equal(plain.Bytes(), entailed.Bytes()) {
			b.WriteString("entailed: same\n")
		} else {
			b.WriteString("entailed:\n")
			b.Write(entailed.Bytes())
		}
	}
	lf := lubmFixture()
	names, queries := lubmCorpus()
	for i := range names {
		entry(names[i], queries[i], lf)
	}
	rf := randomFixture()
	rng := rand.New(rand.NewSource(2019))
	for i := 0; i < randomBGPs; i++ {
		entry(fmt.Sprintf("R%d", i), randomBGP(rng), rf)
	}
	return b.Bytes()
}

func TestGoldenPlans(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// Costs are printed to the last bit, and other architectures may
		// fuse a multiply and an add into one rounding.
		t.Skip("golden costs are amd64 floating-point results")
	}
	got := goldenPlans()
	if *update {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (regenerate with -update only for an intended cost-model change)", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	entry := ""
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if strings.HasPrefix(wl[i], "== ") {
			entry = wl[i]
		}
		if gl[i] != wl[i] {
			t.Fatalf("plans differ from %s at line %d, in entry %q:\n got: %s\nwant: %s", goldenPath, i+1, entry, gl[i], wl[i])
		}
	}
	t.Fatalf("plans differ from %s in length: got %d lines, want %d", goldenPath, len(gl), len(wl))
}

package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"

	"parj/internal/lubm"
	"parj/internal/rdf"
)

// Every input is a function of the seed alone. internal/lubm is the one
// generator reused from the repository; it takes no seed (each university is
// seeded by its index), so the seed decides the order the universities
// arrive in, the order queries run in and the constants point queries probe.

// benchNS is the namespace of terms the benchmark invents for writes.
const benchNS = "http://bench.repro/"

// lubmTriples generates LUBM at the given scale with the universities'
// blocks in seed order. Whole blocks move, not single triples: dictionary
// IDs are handed out in arrival order, and a full shuffle would destroy the
// per-university ID locality that real dumps have and that the sequential
// probe relies on.
func lubmTriples(scale int, seed int64) []rdf.Triple {
	var all []rdf.Triple
	var starts []int
	lubm.Generate(scale, lubm.Config{}, func(t rdf.Triple) {
		if t.P == lubm.PredType && t.O == lubm.ClassUniversity {
			starts = append(starts, len(all))
		}
		all = append(all, t)
	})
	if len(starts) == 0 {
		return all
	}
	out := make([]rdf.Triple, 0, len(all))
	out = append(out, all[:starts[0]]...) // the global research areas
	rng := rand.New(rand.NewSource(seed))
	for _, u := range rng.Perm(len(starts)) {
		end := len(all)
		if u+1 < len(starts) {
			end = starts[u+1]
		}
		out = append(out, all[starts[u]:end]...)
	}
	return out
}

// ntriples serialises triples as the N-Triples document a user would load.
func ntriples(ts []rdf.Triple) ([]byte, error) {
	var buf bytes.Buffer
	w := rdf.NewWriter(&buf)
	for _, t := range ts {
		if err := w.Write(t); err != nil {
			return nil, err
		}
	}
	if err := w.Flush(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// readTriples parses an N-Triples document, handing each triple to fn.
func readTriples(data []byte, fn func(rdf.Triple)) error {
	rd := rdf.NewReader(bytes.NewReader(data))
	for {
		t, err := rd.Read()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		fn(t)
	}
}

// query is one SPARQL text with the answer size the oracle expects.
type query struct {
	sparql string
	want   int64
}

// opType is one operation type of a query workload: a name and the query
// texts that are cycled through under it.
type opType struct {
	name    string
	queries []query
}

// joinNames are the seven join-heavy LUBM queries.
var joinNames = map[string]bool{"L1": true, "L2": true, "L3": true, "L7": true, "L8": true, "L9": true, "L10": true}

// lubmJoinOps returns L1–L3 and L7–L10 in seed order.
func lubmJoinOps(seed int64) []*opType {
	var ops []*opType
	for _, q := range lubm.Queries() {
		if joinNames[q.Name] {
			ops = append(ops, &opType{name: q.Name, queries: []query{{sparql: q.SPARQL}}})
		}
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops
}

// pointVariants is how many constants each point-query shape cycles through,
// so the same text does not repeat back to back.
const pointVariants = 8

// lubmPointOps returns the selective shapes of L4–L6 with seed-chosen
// constants taken from the data, so every query has answers: a teacher's
// department and courses, a department's graduate students, and an advisor's
// students' courses.
func lubmPointOps(ts []rdf.Triple, seed int64) []*opType {
	// Distinct terms in arrival order, which the seed fixes.
	var teachers, depts, advisors []string
	seen := [3]map[string]bool{{}, {}, {}}
	add := func(kind int, list *[]string, term string) {
		if !seen[kind][term] {
			seen[kind][term] = true
			*list = append(*list, term)
		}
	}
	for _, t := range ts {
		switch {
		case t.P == lubm.PredTeacherOf:
			add(0, &teachers, t.S)
		case t.P == lubm.PredType && t.O == lubm.ClassDepartment:
			add(1, &depts, t.S)
		case t.P == lubm.PredAdvisor:
			add(2, &advisors, t.O)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	pick := func(list []string) string { return list[rng.Intn(len(list))] }
	p4, p5, p6 := &opType{name: "P4"}, &opType{name: "P5"}, &opType{name: "P6"}
	for i := 0; i < pointVariants; i++ {
		teacher, dept, advisor := pick(teachers), pick(depts), pick(advisors)
		p4.queries = append(p4.queries, query{sparql: `SELECT ?y WHERE {
			` + teacher + ` ` + lubm.PredWorksFor + ` ?x .
			` + teacher + ` ` + lubm.PredTeacherOf + ` ?y .
			?x ` + lubm.PredSubOrgOf + ` ?z }`})
		p5.queries = append(p5.queries, query{sparql: `SELECT ?x WHERE {
			?x ` + lubm.PredMemberOf + ` ` + dept + ` .
			?x ` + lubm.PredType + ` ` + lubm.ClassGradStudent + ` }`})
		p6.queries = append(p6.queries, query{sparql: `SELECT ?x ?y WHERE {
			?x ` + lubm.PredAdvisor + ` ` + advisor + ` .
			?x ` + lubm.PredTakesCourse + ` ?y }`})
	}
	return []*opType{p4, p5, p6}
}

// Cyclic graph.

const cyclicEdge = "<" + benchNS + "edge>"

func cyclicNode(i int) string { return fmt.Sprintf("<%sn%d>", benchNS, i) }

// cyclicGraph is a directed graph over one predicate whose in- and
// out-degrees both follow Zipf(s) over the node ranks, so hubs are hot on
// both sides: the layout where a binary-join pipeline enumerates every path
// through a hub before closing a cycle.
type cyclicGraph struct {
	// edges holds the distinct, loop-free edges in emission order.
	edges [][2]int
}

// newCyclicGraph hands every node a number of out- and in-stubs proportional
// to its Zipf weight and lets the seed pair them up. Duplicate pairs and
// self-loops are dropped, so the stored relation is smaller than stubs.
// Degrees are fixed up to rounding and only the pairing is random: hub-hub
// edges, which decide the cycle counts, exist under every seed, and query
// cost varies far less from seed to seed than with independently sampled
// endpoints.
func newCyclicGraph(nodes, stubs int, s float64, seed int64) *cyclicGraph {
	rng := rand.New(rand.NewSource(seed))
	total := 0.0
	for i := 0; i < nodes; i++ {
		total += math.Pow(float64(i+1), -s)
	}
	deal := func() []int {
		var out []int
		for i := 0; i < nodes; i++ {
			x := float64(stubs) * math.Pow(float64(i+1), -s) / total
			n := int(x)
			if rng.Float64() < x-float64(n) {
				n++
			}
			for ; n > 0; n-- {
				out = append(out, i)
			}
		}
		return out
	}
	from, to := deal(), deal()
	rng.Shuffle(len(from), func(i, j int) { from[i], from[j] = from[j], from[i] })
	rng.Shuffle(len(to), func(i, j int) { to[i], to[j] = to[j], to[i] })
	g := &cyclicGraph{}
	seen := make(map[[2]int]bool)
	for i := 0; i < min(len(from), len(to)); i++ {
		e := [2]int{from[i], to[i]}
		if e[0] == e[1] || seen[e] {
			continue
		}
		seen[e] = true
		g.edges = append(g.edges, e)
	}
	return g
}

func (g *cyclicGraph) triples() []rdf.Triple {
	out := make([]rdf.Triple, len(g.edges))
	for i, e := range g.edges {
		out[i] = rdf.Triple{S: cyclicNode(e[0]), P: cyclicEdge, O: cyclicNode(e[1])}
	}
	return out
}

// closedWalks counts the answers of the directed triangle and 4-cycle
// queries by arithmetic on the generator's own integers, sharing nothing
// with the engine: a BGP answer is a homomorphism, so the k-cycle query has
// trace(A^k) answers. paths2[a,c] counts the walks a→b→c; then
// trace(A³) = Σ paths2[a,c]·A[c,a] and trace(A⁴) = Σ paths2[a,c]·paths2[c,a].
func (g *cyclicGraph) closedWalks() (tri, cyc4 int64) {
	out := make(map[int][]int)
	edge := make(map[[2]int]bool, len(g.edges))
	for _, e := range g.edges {
		out[e[0]] = append(out[e[0]], e[1])
		edge[e] = true
	}
	paths2 := make(map[[2]int]int64)
	for a, bs := range out {
		for _, b := range bs {
			for _, c := range out[b] {
				paths2[[2]int{a, c}]++
			}
		}
	}
	for ac, n := range paths2 {
		back := [2]int{ac[1], ac[0]}
		if edge[back] {
			tri += n
		}
		cyc4 += n * paths2[back]
	}
	return tri, cyc4
}

func cyclicOps(tri, cyc4 int64) []*opType {
	e := cyclicEdge
	return []*opType{
		{name: "TRI", queries: []query{{
			sparql: "SELECT * WHERE { ?a " + e + " ?b . ?b " + e + " ?c . ?c " + e + " ?a }",
			want:   tri,
		}}},
		{name: "CYC4", queries: []query{{
			sparql: "SELECT * WHERE { ?a " + e + " ?b . ?b " + e + " ?c . ?c " + e + " ?d . ?d " + e + " ?a }",
			want:   cyc4,
		}}},
	}
}

// Write batches.

// churnCourses picks the courses the churn writer enrols invented students
// in. Every LUBM course has exactly one teacher, so each enrolment adds
// exactly one answer to the reader's takesCourse ⋈ teacherOf join.
func churnCourses(ts []rdf.Triple, n int, seed int64) []string {
	var courses []string
	for _, t := range ts {
		if t.P == lubm.PredTeacherOf {
			courses = append(courses, t.O)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(courses), func(i, j int) { courses[i], courses[j] = courses[j], courses[i] })
	return courses[:min(n, len(courses))]
}

// churnBatch is the k-th batch: one invented student per course.
func churnBatch(courses []string, seed int64, k int) []rdf.Triple {
	out := make([]rdf.Triple, len(courses))
	for i, c := range courses {
		out[i] = rdf.Triple{
			S: fmt.Sprintf("<%schurn/s%d/b%d/t%d>", benchNS, seed, k, i),
			P: lubm.PredTakesCourse,
			O: c,
		}
	}
	return out
}

const durablePred = "<" + benchNS + "wrote>"

// durableBatch is writer w's k-th batch of n invented triples.
func durableBatch(seed int64, w, k, n int) []rdf.Triple {
	out := make([]rdf.Triple, n)
	for i := range out {
		out[i] = rdf.Triple{
			S: fmt.Sprintf("<%sdurable/s%d/w%d/b%d>", benchNS, seed, w, k),
			P: durablePred,
			O: fmt.Sprintf("<%sslot%d>", benchNS, i),
		}
	}
	return out
}

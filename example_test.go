package parj_test

import (
	"fmt"

	"parj"
)

// Example demonstrates the basic build-and-query cycle.
func Example() {
	b := parj.NewBuilder(parj.LoadOptions{})
	b.Add("<alice>", "<knows>", "<bob>")
	b.Add("<bob>", "<knows>", "<carol>")
	db := b.Build()

	res, err := db.Query(`SELECT ?x ?z WHERE { ?x <knows> ?y . ?y <knows> ?z }`,
		parj.QueryOptions{})
	if err != nil {
		panic(err)
	}
	for _, row := range res.Rows {
		fmt.Println(row[0], "->", row[1])
	}
	// Output: <alice> -> <carol>
}

// ExampleStore_Count shows the silent counting mode used for measurement.
func ExampleStore_Count() {
	b := parj.NewBuilder(parj.LoadOptions{})
	b.Add("<a>", "<p>", "<b>")
	b.Add("<a>", "<p>", "<c>")
	b.Add("<b>", "<p>", "<c>")
	db := b.Build()

	n, err := db.Count(`SELECT ?s ?o WHERE { ?s <p> ?o }`, parj.QueryOptions{})
	if err != nil {
		panic(err)
	}
	fmt.Println(n)
	// Output: 3
}

// ExampleStore_Explain prints the optimizer's plan for a query.
func ExampleStore_Explain() {
	b := parj.NewBuilder(parj.LoadOptions{})
	b.Add("<a>", "<p>", "<b>")
	db := b.Build()

	plan, err := db.Explain(`SELECT ?x WHERE { ?x <p> <b> }`)
	if err != nil {
		panic(err)
	}
	fmt.Print(plan)
	// Output:
	// plan cost=1.0 card=1.0
	//   0: ?x <p> <b>  [O-S]
}

// ExampleStore_QueryStream delivers rows incrementally with bounded memory.
func ExampleStore_QueryStream() {
	b := parj.NewBuilder(parj.LoadOptions{})
	b.Add("<a>", "<p>", "<x>")
	b.Add("<b>", "<p>", "<y>")
	db := b.Build()

	n, err := db.QueryStream(`SELECT ?s WHERE { ?s <p> ?o }`, parj.QueryOptions{Threads: 1},
		func(row []string) bool {
			fmt.Println(row[0])
			return true
		})
	if err != nil {
		panic(err)
	}
	fmt.Println("total:", n)
	// Output:
	// <a>
	// <b>
	// total: 2
}

// ExampleStore_Prepare reuses a plan across executions.
func ExampleStore_Prepare() {
	b := parj.NewBuilder(parj.LoadOptions{})
	b.Add("<a>", "<p>", "<b>")
	db := b.Build()

	prep, err := db.Prepare(`SELECT ?x WHERE { ?x <p> ?y }`, false)
	if err != nil {
		panic(err)
	}
	for i := 0; i < 2; i++ {
		n, err := prep.Count(parj.QueryOptions{})
		if err != nil {
			panic(err)
		}
		fmt.Println(n)
	}
	// Output:
	// 1
	// 1
}

// ExampleStore_Query builds a small social graph and runs a four-pattern
// join: friends of friends who share an employer with the starting person.
// The same query counted in silent mode (the paper's measurement mode: no
// row materialization or dictionary decoding) gives the same number.
func ExampleStore_Query() {
	b := parj.NewBuilder(parj.LoadOptions{})
	b.Add("<alice>", "<knows>", "<bob>")
	b.Add("<bob>", "<knows>", "<carol>")
	b.Add("<carol>", "<knows>", "<dave>")
	b.Add("<alice>", "<worksAt>", "<acme>")
	b.Add("<carol>", "<worksAt>", "<acme>")
	b.Add("<alice>", "<name>", `"Alice"`)
	b.Add("<carol>", "<name>", `"Carol"`)
	db := b.Build()
	fmt.Printf("store: %d triples, %d predicates, %d resources\n",
		db.NumTriples(), db.NumPredicates(), db.NumResources())

	const q = `SELECT ?x ?z WHERE {
		?x <knows> ?y . ?y <knows> ?z .
		?x <worksAt> ?w . ?z <worksAt> ?w }`
	res, err := db.Query(q, parj.QueryOptions{Threads: 1})
	if err != nil {
		panic(err)
	}
	for _, row := range res.Rows {
		fmt.Println(row[0], "->", row[1])
	}
	n, err := db.Count(q, parj.QueryOptions{})
	if err != nil {
		panic(err)
	}
	fmt.Println("silent count:", n)
	// Output:
	// store: 7 triples, 3 predicates, 7 resources
	// <alice> -> <carol>
	// silent count: 1
}

// ExampleQueryOptions_entailment answers queries with respect to RDFS class
// and property hierarchies (the paper's §6 extension): the engine unions the
// subclass and subproperty tables inside the join pipeline, so no implied
// triple is ever materialized. The data uses only the most specific terms;
// without Entailment the queries over the general ones find nothing.
func ExampleQueryOptions_entailment() {
	const (
		subClassOf    = "<http://www.w3.org/2000/01/rdf-schema#subClassOf>"
		subPropertyOf = "<http://www.w3.org/2000/01/rdf-schema#subPropertyOf>"
		rdfType       = "<http://www.w3.org/1999/02/22-rdf-syntax-ns#type>"
	)
	b := parj.NewBuilder(parj.LoadOptions{PosIndex: true})
	b.Add("<UndergradStudent>", subClassOf, "<Student>")
	b.Add("<GradStudent>", subClassOf, "<Student>")
	b.Add("<Student>", subClassOf, "<Person>")
	b.Add("<Professor>", subClassOf, "<Person>")
	b.Add("<advisorOf>", subPropertyOf, "<mentors>")
	b.Add("<tutorOf>", subPropertyOf, "<mentors>")
	b.Add("<ann>", rdfType, "<UndergradStudent>")
	b.Add("<ben>", rdfType, "<GradStudent>")
	b.Add("<cat>", rdfType, "<Professor>")
	b.Add("<cat>", "<advisorOf>", "<ben>")
	b.Add("<ben>", "<tutorOf>", "<ann>")
	db := b.Build()

	// The SPARQL keyword "a" parses to the full rdf:type IRI.
	for _, q := range []string{
		`SELECT ?x WHERE { ?x a <Person> }`,
		`SELECT ?m ?s WHERE { ?m <mentors> ?s . ?s a <Student> }`,
	} {
		plain, err := db.Query(q, parj.QueryOptions{})
		if err != nil {
			panic(err)
		}
		entailed, err := db.Query(q, parj.QueryOptions{Entailment: true, Threads: 1})
		if err != nil {
			panic(err)
		}
		fmt.Println("plain:", plain.Count, "entailed:", entailed.Rows)
	}
	// Output:
	// plain: 0 entailed: [[<ann>] [<ben>] [<cat>]]
	// plain: 0 entailed: [[<ben> <ann>] [<cat> <ben>]]
}

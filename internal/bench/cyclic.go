package bench

// cyclic.go — a dense cyclic-query workload for the join-operator
// experiment.
//
// The paper's benchmarks (LUBM, WatDiv) are dominated by acyclic star and
// chain queries, where the left-deep pipeline is worst-case optimal by
// construction. Cyclic queries over dense graphs are the opposite regime:
// a binary-join pipeline enumerates every length-(k-1) path before closing
// a k-cycle, and on a graph with Zipfian hubs the path count is
// quadratically larger than the cycle count. This file generates such a
// graph — one <c:edge> relation, both endpoints Zipf-sampled so hub×hub
// edges are common — and runs the triangle and 4-cycle queries under the
// forced worst-case-optimal operator and the forced pipeline, A/B, at equal
// worker counts.

import (
	"fmt"
	"math/rand"

	"parj/internal/core"
	"parj/internal/rdf"
)

// CyclicConfig sizes the dense cyclic workload.
type CyclicConfig struct {
	// Nodes is the vertex universe (Zipf-ranked; rank 0 is the hottest hub).
	Nodes int
	// Edges is the number of sampled <c:edge> triples before dedup.
	// Duplicate samples collapse at load, so the stored relation is a bit
	// smaller; self-edges are skipped (the self-join path is covered by the
	// differential tests, and keeping them would inflate the cycle counts
	// with degenerate closures).
	Edges int
	// S is the Zipf exponent of both endpoint distributions. Higher values
	// concentrate edges on the hubs, widening the pipeline/WCOJ gap.
	S float64
	// Seed drives the deterministic generator.
	Seed int64
}

func (c *CyclicConfig) fill() {
	if c.Nodes <= 0 {
		c.Nodes = 15_000
	}
	if c.Edges <= 0 {
		c.Edges = 50_000
	}
	if c.S <= 0 {
		c.S = 1.5
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

const cyclicEdge = "<c:edge>"

func cyclicNode(i int) string { return fmt.Sprintf("<c:n%d>", i) }

// CyclicTriples generates the dense graph. Both endpoints are drawn from
// the same Zipf sampler, so the hubs are simultaneously high-out-degree and
// high-in-degree — the layout where the pipeline's intermediate (all paths
// through a hub) explodes while the AGM output bound stays tame.
func CyclicTriples(cfg CyclicConfig) []rdf.Triple {
	cfg.fill()
	rng := rand.New(rand.NewSource(cfg.Seed))
	z := newZipfSampler(cfg.Nodes, cfg.S)
	out := make([]rdf.Triple, 0, cfg.Edges)
	for len(out) < cfg.Edges {
		s, o := z.Rank(rng), z.Rank(rng)
		if s == o {
			continue
		}
		out = append(out, rdf.Triple{S: cyclicNode(s), P: cyclicEdge, O: cyclicNode(o)})
	}
	return out
}

// CyclicQueries is the cyclic workload: the directed triangle and the
// directed 4-cycle, both over the single dense relation.
func CyclicQueries() []NamedQuery {
	return []NamedQuery{
		{
			Name:  "TRI",
			Group: "Cyclic",
			SPARQL: "SELECT * WHERE { ?a " + cyclicEdge + " ?b . ?b " + cyclicEdge + " ?c . ?c " +
				cyclicEdge + " ?a }",
		},
		{
			Name:  "CYC4",
			Group: "Cyclic",
			SPARQL: "SELECT * WHERE { ?a " + cyclicEdge + " ?b . ?b " + cyclicEdge + " ?c . ?c " +
				cyclicEdge + " ?d . ?d " + cyclicEdge + " ?a }",
		},
	}
}

// cyclicMorselSize bounds morsel weight for the cyclic experiment: the
// WCOJ outer domain is only a few hundred keys, so a small bound is needed
// to cut enough morsels for 8 workers to steal across the hub skew.
const cyclicMorselSize = 1024

// CyclicWorkers is the worker count of the cyclic experiment (WCOJ vs
// pipeline at equal parallelism).
const CyclicWorkers = 8

// CyclicEngines returns the A/B pair: the forced worst-case-optimal
// operator versus the forced pipeline, same strategy and worker count.
func CyclicEngines(d *Dataset) []Engine {
	return []Engine{
		d.PARJ("WCOJ-8", core.Options{Threads: CyclicWorkers, Strategy: core.AdaptiveIndex, Join: core.JoinWCOJ, MorselSize: cyclicMorselSize}),
		d.PARJ("Pipe-8", core.Options{Threads: CyclicWorkers, Strategy: core.AdaptiveIndex, Join: core.JoinPipeline, MorselSize: cyclicMorselSize}),
	}
}

// Cyclic runs the join-operator experiment: triangle and 4-cycle on the
// dense Zipf graph, WCOJ vs pipeline at 8 workers.
func Cyclic(cfg ExpConfig) *Table {
	cfg.fill()
	cc := CyclicConfig{}
	cc.fill()
	d := NewDataset(CyclicTriples(cc), cfg.Threads)
	title := fmt.Sprintf("Cyclic joins: Zipf(s=%.1f) dense graph, %d nodes × %d edges, %d workers, times in ms",
		cc.S, cc.Nodes, cc.Edges, CyclicWorkers)
	return RunMatrix(title, CyclicQueries(), CyclicEngines(d), cfg.run())
}

package optimizer

// BGP shape classification for the join-operator choice (core/wcoj.go).
//
// The left-deep pipeline is the right operator for acyclic BGPs — chains,
// stars, trees — where every intermediate result is bounded by the final
// one. On cyclic shapes (triangles, longer cycles, parallel edges between
// the same variable pair, self-loops) a binary-join pipeline can
// materialize intermediates quadratically larger than the output; those are
// the worst-case-optimal operator's home turf. The classifier looks only at
// the variable-sharing multigraph, so it is a pure function of the query —
// every cluster node replanning the same SPARQL text reaches the same
// verdict, which the deterministic shard-range contract relies on.

import (
	"math"

	"parj/internal/stats"
)

// Shape classifies a BGP's join graph.
type Shape int

const (
	// ShapeAcyclic covers chains, stars and trees — every pattern either
	// touches at most one shared variable region without closing a loop.
	ShapeAcyclic Shape = iota
	// ShapeCyclic marks a cycle in the variable-sharing multigraph:
	// triangles, longer cycles, or two patterns joining the same variable
	// pair (parallel edges).
	ShapeCyclic
	// ShapeSelfJoin marks a pattern repeating a variable (?x p ?x) — a
	// one-edge cycle, classified separately because the operator verifies
	// it with a per-candidate membership check rather than an intersection.
	ShapeSelfJoin
)

func (s Shape) String() string {
	switch s {
	case ShapeAcyclic:
		return "acyclic"
	case ShapeCyclic:
		return "cyclic"
	case ShapeSelfJoin:
		return "self-join"
	default:
		return "shape(?)"
	}
}

// classifyShape computes the shape of the variable-sharing multigraph: one
// node per subject/object variable, one edge per pattern with two variable
// columns. Union-find cycle detection handles parallel edges for free — an
// edge between two already-connected variables closes a cycle. Predicate
// variables join in a different dictionary namespace and never share a node
// with subject/object variables (checkNamespaces), so they are ignored.
func classifyShape(infos []patternInfo, nvars int) Shape {
	for i := range infos {
		if in := &infos[i]; in.sv >= 0 && in.sv == in.ov {
			return ShapeSelfJoin
		}
	}
	parent := make([]int, nvars)
	for v := range parent {
		parent[v] = v
	}
	find := func(v int) int {
		for parent[v] != v {
			parent[v] = parent[parent[v]]
			v = parent[v]
		}
		return v
	}
	for i := range infos {
		in := &infos[i]
		if in.sv < 0 || in.ov < 0 {
			continue // at most one variable: a node, not an edge
		}
		rs, ro := find(in.sv), find(in.ov)
		if rs == ro {
			return ShapeCyclic
		}
		parent[rs] = ro
	}
	return ShapeAcyclic
}

// wcojEligible mirrors core's buildWCOJPlan eligibility: every pattern must
// have a constant, hierarchy-unexpanded predicate and no expanded object
// set, so each compiles to one concrete replica pair.
func wcojEligible(infos []patternInfo) bool {
	for i := range infos {
		in := &infos[i]
		if !in.predConst || in.predSet != nil || in.oSet != nil {
			return false
		}
	}
	return true
}

// wcojCostEstimate is a coarse worst-case-optimal cost model used only as a
// tiebreak against the pipeline's EstCost: the AGM-flavored output bound of
// a cyclic core — the square root of the product of the pattern
// cardinalities (the fractional-cover exponent of a cycle is k/2, giving
// N^1.5 for a triangle of N-tuple relations) — plus a linear term for
// touching each relation once. No log factor for the intersections: the
// pipeline's EstCost is itself a selectivity-based underestimate, so
// burdening only this side would systematically lose the tiebreak on the
// dense cyclic queries the operator exists for. A highly selective constant
// keeps some baseCard near 1, shrinks EstCost far below the AGM bound, and
// correctly leaves such queries on the pipeline.
func wcojCostEstimate(infos []patternInfo, s *stats.Stats) float64 {
	product, sum := 1.0, 0.0
	for i := range infos {
		n := math.Max(infos[i].baseCard, 1)
		product *= n
		sum += n
	}
	return math.Sqrt(product) + sum
}

// classifyPlanShape fills plan.Shape and plan.PreferWCOJ after the join
// order is chosen: cyclic or self-join shapes prefer the worst-case-optimal
// operator when it is eligible and its cost estimate beats the pipeline's.
func classifyPlanShape(plan *Plan, infos []patternInfo, nvars int, s *stats.Stats) {
	plan.Shape = classifyShape(infos, nvars)
	if plan.Shape != ShapeAcyclic && !plan.Empty && wcojEligible(infos) {
		plan.PreferWCOJ = wcojCostEstimate(infos, s) < plan.EstCost
	}
}

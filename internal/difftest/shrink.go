package difftest

import (
	"fmt"
	"strings"

	"parj/internal/bench"
	"parj/internal/rdf"
	"parj/internal/rdfs"
	"parj/internal/reference"
	"parj/internal/sparql"
)

// maxShrinkChecks caps the total number of (re-load, re-evaluate) probes a
// single shrink may spend; each probe rebuilds the engine over the candidate
// triple set, so an unbounded ddmin on a slow failure could dominate a run.
const maxShrinkChecks = 400

// Shrink greedily minimizes a failing (triples, query) pair for one engine
// configuration: ddmin-style chunk removal over the triples interleaved with
// structural query simplification (dropping patterns, DISTINCT and LIMIT).
// A candidate only counts as "still failing" if the oracle completes within
// budget on it, so shrinking never trades a real repro for an unverifiable
// one. The result is the smallest failing pair found, never worse than the
// input.
func Shrink(triples []rdf.Triple, q *Query, ec EngineConfig, oracleBudget int64, maxOracleRows int) ([]rdf.Triple, *Query) {
	checks := 0
	fails := func(ts []rdf.Triple, cand *Query) bool {
		if checks >= maxShrinkChecks {
			return false
		}
		checks++
		parsed, err := sparql.Parse(cand.Src())
		if err != nil {
			return false
		}
		oracleTriples := ts
		if ec.Entail {
			oracleTriples = rdfs.ForwardChain(ts, "", "", "")
		}
		want, ok := reference.EvaluateBudget(parsed, oracleTriples, oracleBudget)
		if !ok || len(want) > maxOracleRows {
			return false
		}
		got, err := ec.Make(bench.NewDataset(ts, 2)).Evaluate(parsed)
		if err != nil {
			return true // an engine error is a failure in its own right
		}
		return Compare(parsed, want, got) != ""
	}

	cur := append([]rdf.Triple(nil), triples...)
	best := q.Clone()

	// Alternate: simplifying the query usually unlocks further triple
	// removal and vice versa, so run both to a joint fixpoint.
	for changed := true; changed && checks < maxShrinkChecks; {
		changed = false
		if next, ok := shrinkQuery(cur, best, fails); ok {
			best = next
			changed = true
		}
		// An empty triple set is never a repro worth keeping.
		if next, ok := ddmin(cur, func(ts []rdf.Triple) bool { return len(ts) > 0 && fails(ts, best) }); ok {
			cur = next
			changed = true
		}
	}
	return cur, best
}

// shrinkQuery tries structural simplifications in decreasing order of
// impact: drop a pattern (fixing the projection), then strip LIMIT,
// DISTINCT, and an explicit projection.
func shrinkQuery(triples []rdf.Triple, q *Query, fails func([]rdf.Triple, *Query) bool) (*Query, bool) {
	cur := q
	reduced := false
	for changed := true; changed; {
		changed = false
		for i := 0; i < len(cur.Patterns) && len(cur.Patterns) > 1; i++ {
			cand := cur.Clone()
			cand.Patterns = append(cand.Patterns[:i], cand.Patterns[i+1:]...)
			cand.FixProjection()
			if fails(triples, cand) {
				cur, reduced, changed = cand, true, true
				i--
			}
		}
		for _, simplify := range []func(*Query){
			func(c *Query) { c.HasLimit = false; c.Limit = 0 },
			func(c *Query) { c.Distinct = false },
			func(c *Query) { c.Star = true; c.Select = nil },
		} {
			cand := cur.Clone()
			simplify(cand)
			if cand.Src() != cur.Src() && fails(triples, cand) {
				cur, reduced, changed = cand, true, true
			}
		}
	}
	return cur, reduced
}

// FormatRepro renders a shrunk failure as a self-contained Go regression
// test ready to paste into internal/difftest/regress_test.go.
func FormatRepro(triples []rdf.Triple, q *Query, engine string) string {
	var sb strings.Builder
	sb.WriteString("// Shrunk by the difftest harness; paste into internal/difftest/regress_test.go\n")
	sb.WriteString("// and rename. CheckRepro fails the test while the divergence exists.\n")
	sb.WriteString("func TestRegress_RENAME_ME(t *testing.T) {\n")
	sb.WriteString("\ttriples := []rdf.Triple{\n")
	for _, t := range triples {
		fmt.Fprintf(&sb, "\t\t{S: %q, P: %q, O: %q},\n", t.S, t.P, t.O)
	}
	sb.WriteString("\t}\n")
	fmt.Fprintf(&sb, "\tCheckRepro(t, triples, %q, %q)\n", q.Src(), engine)
	sb.WriteString("}\n")
	return sb.String()
}

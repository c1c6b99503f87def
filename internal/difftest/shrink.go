package difftest

import (
	"fmt"
	"slices"
	"strings"

	"parj/internal/rdf"
	"parj/internal/sparql"
)

// maxShrinkChecks caps the number of replays a single shrink may spend;
// each one rebuilds the engine over the candidate case, so an unbounded
// ddmin on a slow failure could dominate a run.
const maxShrinkChecks = 400

// Shrink minimizes a failing case for one engine configuration: ddmin-style
// chunk removal over the ops and over the base triples, interleaved with
// structural simplification of every query op (dropping patterns, DISTINCT
// and LIMIT), to a joint fixpoint. A candidate counts as failing only if
// its replay still diverges from the oracle — anywhere: the failure may
// move as ops disappear — and a query the oracle cannot answer within
// budget is never compared, so shrinking never trades a real repro for an
// unverifiable one. The result is never larger than the input.
func Shrink(c *Case, ec EngineConfig, oracleBudget int64, maxOracleRows int) *Case {
	lim := limits{budget: oracleBudget, maxRows: maxOracleRows}
	checks := 0
	fails := func(base []rdf.Triple, ops []Op) bool {
		if checks >= maxShrinkChecks {
			return false
		}
		checks++
		_, diff := lim.check(ec, &Case{Base: base, Ops: ops})
		return diff != ""
	}

	cur := &Case{Seed: c.Seed, Base: c.Base, Ops: c.Ops}
	for changed := true; changed && checks < maxShrinkChecks; {
		changed = false
		if ops, ok := ddmin(cur.Ops, func(ops []Op) bool { return fails(cur.Base, ops) }); ok {
			cur.Ops, changed = ops, true
		}
		for i := range cur.Ops {
			if cur.Ops[i].Query == "" {
				continue
			}
			withQuery := func(src string) []Op {
				ops := slices.Clone(cur.Ops)
				ops[i].Query = src
				return ops
			}
			if src, ok := shrinkQuery(cur.Ops[i].Query, func(src string) bool { return fails(cur.Base, withQuery(src)) }); ok {
				cur.Ops, changed = withQuery(src), true
			}
		}
		if base, ok := ddmin(cur.Base, func(base []rdf.Triple) bool { return fails(base, cur.Ops) }); ok {
			cur.Base, changed = base, true
		}
	}
	return cur
}

// shrinkQuery tries structural simplifications of the query src in
// decreasing order of impact: drop a pattern (fixing the projection), then
// strip LIMIT, DISTINCT, and an explicit projection. It returns the
// simplest still-failing text.
func shrinkQuery(src string, fails func(string) bool) (string, bool) {
	p, err := sparql.Parse(src)
	if err != nil {
		return src, false
	}
	cur := &Query{Patterns: p.Patterns, Distinct: p.Distinct, HasLimit: p.HasLimit, Limit: p.Limit, Star: p.Star, Select: p.Select}
	reduced := false
	for changed := true; changed; {
		changed = false
		for i := 0; i < len(cur.Patterns) && len(cur.Patterns) > 1; i++ {
			cand := cur.Clone()
			cand.Patterns = append(cand.Patterns[:i], cand.Patterns[i+1:]...)
			cand.FixProjection()
			if fails(cand.Src()) {
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
			if cand.Src() != cur.Src() && fails(cand.Src()) {
				cur, reduced, changed = cand, true, true
			}
		}
	}
	return cur.Src(), reduced
}

// ddmin is the generic chunk-removal loop the shrinker runs over ops and
// over base triples: repeatedly drop ever-smaller chunks of xs while fails
// still holds.
func ddmin[T any](xs []T, fails func([]T) bool) ([]T, bool) {
	cur := xs
	reduced := false
	n := 2
	for len(cur) >= 1 && n <= len(cur) {
		chunk := (len(cur) + n - 1) / n
		removedAny := false
		for start := 0; start < len(cur); start += chunk {
			end := min(start+chunk, len(cur))
			cand := make([]T, 0, len(cur)-(end-start))
			cand = append(cand, cur[:start]...)
			cand = append(cand, cur[end:]...)
			if fails(cand) {
				cur = cand
				reduced = true
				removedAny = true
				start -= chunk
			}
		}
		if removedAny {
			if n > 2 {
				n--
			}
		} else {
			n *= 2
		}
	}
	return cur, reduced
}

// FormatRepro renders a shrunk failing case as a self-contained Go
// regression test ready to paste into internal/difftest/regress_test.go.
func FormatRepro(c *Case, engine string) string {
	triples := func(ts []rdf.Triple) string {
		parts := make([]string, len(ts))
		for i, t := range ts {
			parts[i] = fmt.Sprintf("{S: %q, P: %q, O: %q}", t.S, t.P, t.O)
		}
		return strings.Join(parts, ", ")
	}
	var sb strings.Builder
	sb.WriteString("// Shrunk by the difftest harness; paste into internal/difftest/regress_test.go\n")
	sb.WriteString("// and rename. CheckRepro fails the test while the divergence exists.\n")
	sb.WriteString("func TestRegress_RENAME_ME(t *testing.T) {\n")
	sb.WriteString("\tbase := []rdf.Triple{\n")
	for _, t := range c.Base {
		fmt.Fprintf(&sb, "\t\t{S: %q, P: %q, O: %q},\n", t.S, t.P, t.O)
	}
	sb.WriteString("\t}\n\tops := []Op{\n")
	for i := range c.Ops {
		switch op := &c.Ops[i]; {
		case op.Query != "":
			fmt.Fprintf(&sb, "\t\t{Query: %q},\n", op.Query)
		case op.Reconcile:
			sb.WriteString("\t\t{Reconcile: true},\n")
		default:
			var fields []string
			if len(op.Inserts) > 0 {
				fields = append(fields, "Inserts: []rdf.Triple{"+triples(op.Inserts)+"}")
			}
			if len(op.Deletes) > 0 {
				fields = append(fields, "Deletes: []rdf.Triple{"+triples(op.Deletes)+"}")
			}
			fmt.Fprintf(&sb, "\t\t{%s},\n", strings.Join(fields, ", "))
		}
	}
	fmt.Fprintf(&sb, "\t}\n\tCheckRepro(t, base, ops, %q)\n}\n", engine)
	return sb.String()
}

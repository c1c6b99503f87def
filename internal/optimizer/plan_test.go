package optimizer

import (
	"fmt"
	"strings"
	"testing"

	"parj/internal/lubm"
	"parj/internal/sparql"
	"parj/internal/stats"
	"parj/internal/store"
)

// lubmStore is LUBM 1 and its statistics, for planning the L1–L10 queries.
func lubmStore() (*store.Store, *stats.Stats) {
	st := store.LoadTriples(lubm.Triples(1, lubm.Config{}), store.BuildOptions{})
	return st, stats.New(st)
}

// chainQuery is a k-pattern subject-object chain over fixtureStore's
// <common>. Connected-first pruning leaves its DP O(k²) states.
func chainQuery(k int) string {
	return bgp(k, func(i int) string { return fmt.Sprintf("?v%d <common> ?v%d", i, i+1) })
}

// starQuery is a k-pattern subject star over <common>: every subset of its
// patterns is connected, so the DP visits all 2^k states, each costed from
// the characteristic sets.
func starQuery(k int) string {
	return bgp(k, func(i int) string { return fmt.Sprintf("?v0 <common> ?v%d", i+1) })
}

func bgp(k int, pattern func(i int) string) string {
	var b strings.Builder
	b.WriteString("SELECT * WHERE {")
	for i := 0; i < k; i++ {
		b.WriteString(" " + pattern(i) + " .")
	}
	b.WriteString(" }")
	return b.String()
}

func mustParse(tb testing.TB, src string) *sparql.Query {
	tb.Helper()
	q, err := sparql.Parse(src)
	if err != nil {
		tb.Fatal(err)
	}
	return q
}

// planAllocs is the heap allocations of planning q once, warm.
func planAllocs(t *testing.T, q *sparql.Query, st *store.Store, s *stats.Stats) float64 {
	t.Helper()
	return testing.AllocsPerRun(50, func() {
		if _, err := OptimizeExpanded(q, st, s, nil); err != nil {
			t.Fatal(err)
		}
	})
}

// TestPlanAllocations: planning allocates per plan, not per DP state. The
// point shapes (L4–L6) plan in a few dozen allocations, and the largest
// BGPs the DP searches exhaustively in not many more, whether the search
// keeps O(k²) states (a chain) or all 2^k (a star).
func TestPlanAllocations(t *testing.T) {
	st, s := lubmStore()
	total := 0.0
	for _, q := range lubm.Queries()[3:6] {
		total += planAllocs(t, mustParse(t, q.SPARQL), st, s)
	}
	if avg := total / 3; avg > 34 {
		t.Errorf("L4–L6 plan in %.1f allocations on average, want ≤ 34", avg)
	}
	cst, cs := fixtureStore()
	for name, src := range map[string]string{"chain": chainQuery(maxDPPatterns), "star": starQuery(maxDPPatterns)} {
		if n := planAllocs(t, mustParse(t, src), cst, cs); n > 100 {
			t.Errorf("a %d-pattern %s plans in %.0f allocations, want ≤ 100", maxDPPatterns, name, n)
		}
	}
}

// TestExtendAllocatesNothing: costing a DP extension copies the state into
// storage carved before the search, star predicates included.
func TestExtendAllocatesNothing(t *testing.T) {
	st, s := fixtureStore()
	infos, names := numberVars(mustParse(t, starQuery(4)))
	if !lookupConstants(infos, st, nil) {
		t.Fatal("constants missing")
	}
	for i := range infos {
		infos[i].baseCard = baseCardinality(&infos[i], st, s)
	}
	states := newStates(len(infos), len(names), len(infos))
	startState(&states[0], infos, 0, st, s)
	n := testing.AllocsPerRun(100, func() {
		for j := 1; j < len(infos); j++ {
			extend(&states[j], &states[j-1], infos, j, s)
		}
	})
	if n != 0 {
		t.Errorf("extending a state allocates %.1f times, want 0", n)
	}
	if last := states[len(infos)-1]; last.starVar < 0 || len(last.starPreds) != len(infos) {
		t.Errorf("star not tracked through the extensions: starVar %d, preds %v", last.starVar, last.starPreds)
	}
}

// BenchmarkPlan prices OptimizeExpanded alone on the LUBM queries, on
// chains up to maxDPPatterns and on a star of that size.
func BenchmarkPlan(b *testing.B) {
	run := func(name string, q *sparql.Query, st *store.Store, s *stats.Stats) {
		b.Run(name, func(b *testing.B) {
			// The first plan fills the statistics' pair-cardinality memo.
			if _, err := OptimizeExpanded(q, st, s, nil); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := OptimizeExpanded(q, st, s, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	st, s := lubmStore()
	for _, q := range lubm.Queries() {
		run(q.Name, mustParse(b, q.SPARQL), st, s)
	}
	cst, cs := fixtureStore()
	for _, k := range []int{6, 9, 12, maxDPPatterns} {
		run(fmt.Sprintf("chain%d", k), mustParse(b, chainQuery(k)), cst, cs)
	}
	run(fmt.Sprintf("star%d", maxDPPatterns), mustParse(b, starQuery(maxDPPatterns)), cst, cs)
}

package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"
	"testing"

	"parj/internal/governance"
	"parj/internal/optimizer"
	"parj/internal/rdf"
	"parj/internal/testutil"
)

// denseCyclicFixture is a dense random digraph with node colors and a few
// self-loops — enough triangles, longer cycles and self-joins that every
// WCOJ code path (keys sources, dynamic runs, constant runs, self checks)
// is exercised with non-trivial candidate sets.
func denseCyclicFixture(t testing.TB) *fixture {
	t.Helper()
	const n = 60
	rng := rand.New(rand.NewSource(11))
	var triples []rdf.Triple
	add := func(s, p, o string) {
		triples = append(triples, rdf.Triple{S: s, P: p, O: o})
	}
	node := func(i int) string { return fmt.Sprintf("<n%d>", i) }
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j && rng.Float64() < 0.15 {
				add(node(i), "<e>", node(j))
			}
		}
		if i%9 == 0 {
			add(node(i), "<e>", node(i)) // self-loop
		}
		color := "<red>"
		if i%3 == 0 {
			color = "<blue>"
		}
		add(node(i), "<color>", color)
	}
	return newFixture(t, triples)
}

// wcojQueries covers the BGP shapes the operator must agree with the
// pipeline and oracle on: cycles of several lengths, self-joins, constant
// restrictions, and — because forcing WCOJ must be safe anywhere — acyclic
// chains and stars too.
var wcojQueries = []string{
	`SELECT * WHERE { ?a <e> ?b . ?b <e> ?c . ?c <e> ?a }`,
	`SELECT * WHERE { ?a <e> ?b . ?b <e> ?c . ?c <e> ?d . ?d <e> ?a }`,
	`SELECT ?x WHERE { ?x <e> ?x }`,
	`SELECT * WHERE { ?x <e> ?x . ?x <color> <blue> }`,
	`SELECT * WHERE { ?a <e> ?b . ?b <e> ?a }`,
	`SELECT * WHERE { ?a <e> ?b . ?b <e> ?c . ?c <e> ?a . ?a <color> <red> }`,
	`SELECT ?b ?c WHERE { <n1> <e> ?b . ?b <e> ?c . ?c <e> <n1> }`,
	`SELECT * WHERE { ?a <e> ?b . ?b <color> ?k }`,
	`SELECT * WHERE { ?a <e> ?b . ?a <e> ?c . ?a <color> ?k }`,
	`SELECT DISTINCT ?a WHERE { ?a <e> ?b . ?b <e> ?c . ?c <e> ?a }`,
	`SELECT * WHERE { ?a <e> ?b . ?b <e> ?c . ?c <e> ?a } LIMIT 5`,
	`SELECT DISTINCT ?a ?b WHERE { ?a <e> ?b . ?b <e> ?a } LIMIT 3`,
}

// TestWCOJMatchesOracleAndPipeline is the operator's core correctness net:
// on every query shape, forced-WCOJ must equal forced-pipeline must equal
// the reference oracle, across worker counts and morsel sizes down to one
// tuple and up to uncut shards (the paper's static sharding).
func TestWCOJMatchesOracleAndPipeline(t *testing.T) {
	f := denseCyclicFixture(t)
	for _, src := range wcojQueries {
		want := f.oracle(t, src)
		// The reference oracle ignores LIMIT; the expected count is the
		// truncated full result.
		limit := f.planFor(t, src).Limit
		wantLen := len(want)
		if limit > 0 && wantLen > limit {
			wantLen = limit
		}
		for _, threads := range []int{1, 3} {
			for _, cfg := range []struct {
				name string
				opts Options
			}{
				{"sched", Options{Threads: threads, Join: JoinWCOJ}},
				{"sched-m1", Options{Threads: threads, Join: JoinWCOJ, MorselSize: 1}},
				{"sched-m7", Options{Threads: threads, Join: JoinWCOJ, MorselSize: 7}},
				{"uncut", Options{Threads: threads, Join: JoinWCOJ, MorselSize: math.MaxInt32}},
			} {
				got := f.run(t, src, cfg.opts)
				if limit > 0 {
					// Any subset of the right size is valid under LIMIT.
					if len(got) != wantLen {
						t.Errorf("%s [%s w=%d]: wcoj returned %d rows, want %d",
							src, cfg.name, threads, len(got), wantLen)
					}
					continue
				}
				if !rowsEqual(got, want) {
					t.Errorf("%s [%s w=%d]: wcoj disagrees with oracle\n got %v\nwant %v",
						src, cfg.name, threads, got, want)
				}
				pipe := f.run(t, src, Options{Threads: threads, Strategy: cfg.opts.Strategy,
					Join: JoinPipeline, MorselSize: cfg.opts.MorselSize})
				if !rowsEqual(got, pipe) {
					t.Errorf("%s [%s w=%d]: wcoj disagrees with pipeline", src, cfg.name, threads)
				}
			}
		}
	}
}

// TestWCOJIneligibleFallsBack forces WCOJ on plans the operator cannot run
// (variable predicates); the silent pipeline fallback must still answer
// correctly — this is what makes forced-WCOJ difftest configs total.
func TestWCOJIneligibleFallsBack(t *testing.T) {
	f := denseCyclicFixture(t)
	for _, src := range []string{
		`SELECT * WHERE { ?a ?p <n1> }`,
		`SELECT * WHERE { ?a ?p ?b . ?b <color> <red> }`,
	} {
		want := f.oracle(t, src)
		got := f.run(t, src, Options{Threads: 2, Join: JoinWCOJ})
		if !rowsEqual(got, want) {
			t.Errorf("%s: forced WCOJ with ineligible plan: got %v, want %v", src, got, want)
		}
	}
}

// TestWCOJStream checks the streaming path takes the WCOJ branch and
// delivers the same multiset of rows.
func TestWCOJStream(t *testing.T) {
	defer testutil.LeakCheck(t)()
	f := denseCyclicFixture(t)
	src := `SELECT * WHERE { ?a <e> ?b . ?b <e> ?c . ?c <e> ?a }`
	plan := f.planFor(t, src)
	var streamed int64
	n, err := ExecuteStream(f.st, plan, Options{Threads: 3, Join: JoinWCOJ}, func(row []uint32) bool {
		streamed++
		return true
	})
	if err != nil {
		t.Fatalf("ExecuteStream: %v", err)
	}
	res, err := Execute(f.st, plan, Options{Threads: 3, Join: JoinPipeline, Silent: true})
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if n != res.Count || streamed != res.Count {
		t.Errorf("streamed %d rows (returned %d), pipeline count %d", streamed, n, res.Count)
	}
}

// wcojSpanSum is spanSum for the WCOJ decomposition: the exactly-once claim
// budget of the first variable's domain under this (threads, size) cut.
func (f *fixture) wcojSpanSum(t testing.TB, plan *optimizer.Plan, threads, size int) int64 {
	t.Helper()
	wp := buildWCOJPlan(f.st, plan)
	if wp == nil {
		t.Fatal("buildWCOJPlan returned nil for an eligible plan")
	}
	var sum int64
	for _, m := range makeMorsels(makeWCOJShards(wp, threads), size) {
		sum += int64(m.span.remaining())
	}
	return sum
}

const wcojTriangle = `SELECT * WHERE { ?a <e> ?b . ?b <e> ?c . ?c <e> ?a }`

// TestWCOJCancellation cancels mid-query from inside the per-candidate
// fault hook: the query must fail with a cancellation (not a panic), never
// claim more outer positions than the spans hold, and leak no goroutines.
func TestWCOJCancellation(t *testing.T) {
	defer testutil.LeakCheck(t)()
	f := denseCyclicFixture(t)
	plan := f.planFor(t, wcojTriangle)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var calls atomic.Int64 // the hook runs on every worker
	restore := SetProbeFaultHook(func() {
		if calls.Add(1) == 5 {
			cancel()
		}
	})
	defer restore()
	res, err := Execute(f.st, plan, Options{
		Threads: 4, Join: JoinWCOJ, MorselSize: 3, Context: ctx, CheckInterval: 1, Silent: true,
	})
	if err == nil {
		t.Fatalf("Execute returned nil error (count %d), want cancellation", res.Count)
	}
	var pe *governance.PanicError
	if errors.As(err, &pe) {
		t.Fatalf("cancellation surfaced as a contained panic: %v", err)
	}
	if got, max := res.Sched.TotalTuples(), f.wcojSpanSum(t, plan, 4, 3); got > max {
		t.Errorf("cancelled run claimed %d outer positions, spans only hold %d", got, max)
	}
}

// TestWCOJPanicContained injects a panic into a WCOJ worker: it must come
// back as a typed PanicError, with claim accounting intact and no leaked
// goroutines.
func TestWCOJPanicContained(t *testing.T) {
	defer testutil.LeakCheck(t)()
	f := denseCyclicFixture(t)
	plan := f.planFor(t, wcojTriangle)
	var calls atomic.Int64 // the hook runs on every worker
	restore := SetProbeFaultHook(func() {
		if calls.Add(1) == 7 {
			panic("wcoj fault injection")
		}
	})
	defer restore()
	res, err := Execute(f.st, plan, Options{Threads: 4, Join: JoinWCOJ, MorselSize: 3, Silent: true})
	var pe *governance.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("error %v (%T) is not a *governance.PanicError", err, err)
	}
	if got, max := res.Sched.TotalTuples(), f.wcojSpanSum(t, plan, 4, 3); got > max {
		t.Errorf("panicked run claimed %d outer positions, spans only hold %d", got, max)
	}
}

// TestWCOJLimitNoOverClaim runs LIMIT and DISTINCT+LIMIT queries under
// adversarially small morsels: workers stop within their budgets, total
// claims stay within the span budget, and nothing leaks.
func TestWCOJLimitNoOverClaim(t *testing.T) {
	defer testutil.LeakCheck(t)()
	f := denseCyclicFixture(t)
	for _, src := range []string{
		wcojTriangle + ` LIMIT 4`,
		`SELECT DISTINCT ?a WHERE { ?a <e> ?b . ?b <e> ?a } LIMIT 2`,
	} {
		plan := f.planFor(t, src)
		for _, size := range []int{1, 7, DefaultMorselSize} {
			res, err := Execute(f.st, plan, Options{Threads: 4, Join: JoinWCOJ, MorselSize: size})
			if err != nil {
				t.Fatalf("%s (m=%d): %v", src, size, err)
			}
			if res.Count > int64(plan.Limit) {
				t.Errorf("%s (m=%d): count %d exceeds LIMIT %d", src, size, res.Count, plan.Limit)
			}
			if got, max := res.Sched.TotalTuples(), f.wcojSpanSum(t, plan, 4, size); got > max {
				t.Errorf("%s (m=%d): claimed %d outer positions, spans only hold %d", src, size, got, max)
			}
		}
	}
}

// TestWCOJGovernanceBudget checks MaxResultRows trips identically under the
// WCOJ operator (typed policy error, partial progress reported).
func TestWCOJGovernanceBudget(t *testing.T) {
	defer testutil.LeakCheck(t)()
	f := denseCyclicFixture(t)
	plan := f.planFor(t, wcojTriangle)
	_, err := Execute(f.st, plan, Options{
		Threads: 3, Join: JoinWCOJ, Silent: true, MaxResultRows: 1, CheckInterval: 1,
	})
	if !errors.Is(err, governance.ErrBudgetExceeded) {
		t.Fatalf("error %v, want ErrBudgetExceeded", err)
	}
}

// TestWCOJShardRangeSums verifies the cluster contract on the WCOJ
// decomposition: per-node counts over disjoint shard ranges sum to the
// full-range count for the same thread total.
func TestWCOJShardRangeSums(t *testing.T) {
	f := denseCyclicFixture(t)
	for _, src := range []string{wcojTriangle, `SELECT ?x WHERE { ?x <e> ?x }`} {
		plan := f.planFor(t, src)
		full, err := Execute(f.st, plan, Options{Threads: 4, Join: JoinWCOJ, Silent: true})
		if err != nil {
			t.Fatal(err)
		}
		var sum int64
		for n := 0; n < 2; n++ {
			res, err := ExecuteShardRange(f.st, plan, Options{Threads: 4, Join: JoinWCOJ, Silent: true}, n*2, (n+1)*2)
			if err != nil {
				t.Fatal(err)
			}
			sum += res.Count
		}
		if sum != full.Count {
			t.Errorf("%s: shard-range counts sum to %d, full range %d", src, sum, full.Count)
		}
	}
}

// TestWCOJAutoChoosesOperator pins the JoinAuto dispatch: a dense triangle
// prefers WCOJ, a chain stays on the pipeline, and auto matches both.
func TestWCOJAutoChoosesOperator(t *testing.T) {
	f := denseCyclicFixture(t)
	tri := f.planFor(t, wcojTriangle)
	if tri.Shape == optimizer.ShapeAcyclic {
		t.Errorf("triangle classified %v, want cyclic", tri.Shape)
	}
	if !tri.PreferWCOJ {
		t.Errorf("dense triangle did not prefer WCOJ (cost=%g)", tri.EstCost)
	}
	chain := f.planFor(t, `SELECT * WHERE { ?a <e> ?b . ?b <color> ?k }`)
	if chain.Shape != optimizer.ShapeAcyclic || chain.PreferWCOJ {
		t.Errorf("chain classified %v preferWCOJ=%v, want acyclic/false", chain.Shape, chain.PreferWCOJ)
	}
	want := f.oracle(t, wcojTriangle)
	if got := f.run(t, wcojTriangle, Options{Threads: 2, Join: JoinAuto}); !rowsEqual(got, want) {
		t.Errorf("JoinAuto triangle disagrees with oracle")
	}
}

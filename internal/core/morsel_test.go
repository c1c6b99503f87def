package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"parj/internal/governance"
	"parj/internal/optimizer"
	"parj/internal/rdf"
	"parj/internal/sparql"
	"parj/internal/testutil"
)

// planFor optimizes src against the fixture without executing it, for tests
// that need the plan itself (morsel decomposition, shard ranges).
func (f *fixture) planFor(t testing.TB, src string) *optimizer.Plan {
	t.Helper()
	q, err := sparql.Parse(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	plan, err := optimizer.Optimize(q, f.st, f.stats)
	if err != nil {
		t.Fatalf("optimize %q: %v", src, err)
	}
	return plan
}

// spanSum is the number of outer positions the scheduler hands out for this
// (plan, threads, morselSize) combination: the total length of all morsel
// spans. Recomputed through the same makeShards/makeMorsels path Execute
// uses, it is the exactly-once budget the claim accounting must hit.
func (f *fixture) spanSum(t testing.TB, plan *optimizer.Plan, threads, size int) int64 {
	t.Helper()
	var sum int64
	for _, m := range makeMorsels(makeShards(f.st, plan, threads), size) {
		sum += int64(m.span.remaining())
	}
	return sum
}

// skewScanFixture is a graph with one hub subject whose run dwarfs any small
// morsel bound, so appendKeyMorsels must cut it into run-slice morsels.
func skewScanFixture(t testing.TB) *fixture {
	t.Helper()
	var triples []rdf.Triple
	add := func(s, p, o string) {
		triples = append(triples, rdf.Triple{S: s, P: p, O: o})
	}
	for i := 0; i < 3000; i++ {
		add("<hub>", "<interest>", fmt.Sprintf("<topic%d>", i))
	}
	for u := 0; u < 400; u++ {
		add(fmt.Sprintf("<user%d>", u), "<interest>", fmt.Sprintf("<topic%d>", (u*7)%3000))
		add(fmt.Sprintf("<user%d>", u), "<likes>", fmt.Sprintf("<page%d>", u%50))
		add(fmt.Sprintf("<user%d>", u), "<likes>", fmt.Sprintf("<page%d>", (u+13)%50))
	}
	add("<hub>", "<likes>", "<page0>")
	add("<hub>", "<likes>", "<page1>")
	return newFixture(t, triples)
}

const skewScanQuery = `SELECT ?u ?x WHERE { ?u <interest> ?x }`

// skewJoinQuery makes the skewed <interest> relation the outer (it is the
// smaller one) keyed on ?u, so the hub's run sits in the first pattern's key
// column — the shape the scheduler splits that static sharding cannot.
const skewJoinQuery = `SELECT * WHERE { ?u <interest> ?x . ?u <likes> ?p }`

// TestSpanSemantics pins the claim/steal boundary behavior on one span.
func TestSpanSemantics(t *testing.T) {
	var s span
	s.init(0, 10)
	if from, to, ok := s.stealHalf(); !ok || from != 5 || to != 10 {
		t.Fatalf("stealHalf on [0,10) = (%d,%d,%v), want (5,10,true)", from, to, ok)
	}
	if from, to, ok := s.claim(3); !ok || from != 0 || to != 3 {
		t.Fatalf("claim(3) = (%d,%d,%v), want (0,3,true)", from, to, ok)
	}
	// claim clamps to the (stolen-down) end.
	if from, to, ok := s.claim(100); !ok || from != 3 || to != 5 {
		t.Fatalf("claim(100) = (%d,%d,%v), want (3,5,true)", from, to, ok)
	}
	if _, _, ok := s.claim(1); ok {
		t.Fatal("claim on an exhausted span succeeded")
	}
	// A single remaining position is never stolen: the owner finishes it.
	s.init(4, 5)
	if _, _, ok := s.stealHalf(); ok {
		t.Fatal("stealHalf split a single-position span")
	}
	if from, to, ok := s.claim(8); !ok || from != 4 || to != 5 {
		t.Fatalf("claim(8) on [4,5) = (%d,%d,%v), want (4,5,true)", from, to, ok)
	}
}

// TestSpanClaimStealHammer drives the real dispatch-queue + steal protocol
// with raw workers that mark every claimed position, and asserts each
// position of every morsel is claimed exactly once — no loss, no double
// count — under concurrent stealing with adversarially small grains.
func TestSpanClaimStealHammer(t *testing.T) {
	const N = 1 << 15
	const workers = 8
	for round := 0; round < 4; round++ {
		// A few uneven morsels: one dominates, so the queue drains early and
		// workers must steal to finish.
		bounds := []int{0, N / 16, N / 16 * 2, N / 16 * 3, N}
		morsels := make([]*morsel, 0, len(bounds)-1)
		for i := 0; i+1 < len(bounds); i++ {
			morsels = append(morsels, newMorsel(morselKeys, nil, 0, -1, nil, bounds[i], bounds[i+1]))
		}
		ws := make([]*worker, workers)
		for i := range ws {
			ws[i] = new(worker)
		}
		s := newScheduler(morsels, ws, nil)
		counts := make([]int32, N)
		var steals atomic.Int64
		var wg sync.WaitGroup
		for id := 0; id < workers; id++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(round*workers + id)))
				for {
					var m *morsel
					if i := s.next.Add(1) - 1; i < int64(len(s.morsels)) {
						m = s.morsels[i]
					} else if m = s.steal(ws[id]); m != nil {
						steals.Add(1)
					} else {
						return
					}
					ws[id].inflight.Store(m)
					for {
						from, to, ok := m.span.claim(1 + rng.Intn(7))
						if !ok {
							break
						}
						for p := from; p < to; p++ {
							atomic.AddInt32(&counts[p], 1)
						}
						if rng.Intn(4) == 0 {
							runtime.Gosched()
						}
					}
				}
			}(id)
		}
		wg.Wait()
		for p, c := range counts {
			if c != 1 {
				t.Fatalf("round %d: position %d claimed %d times, want exactly 1", round, p, c)
			}
		}
		t.Logf("round %d: %d steals", round, steals.Load())
	}
}

// TestMorselTuplesClaimedExactlyOnce is the engine-level accounting
// property: for every query, worker count and morsel size, the workers'
// claimed-tuple total equals the summed span length of the morsel
// decomposition — every outer position claimed exactly once — and the
// result count matches the oracle.
func TestMorselTuplesClaimedExactlyOnce(t *testing.T) {
	fixtures := []struct {
		name string
		f    *fixture
		qs   []struct{ name, src string }
	}{
		{"university", universityFixture(t), testQueries},
		{"skew", skewScanFixture(t), []struct{ name, src string }{
			{"scan", skewScanQuery},
			{"join", skewJoinQuery},
		}},
	}
	for _, fx := range fixtures {
		for _, q := range fx.qs {
			plan := fx.f.planFor(t, q.src)
			if plan.Empty || len(plan.Patterns) == 0 {
				continue
			}
			oracle := int64(len(fx.f.oracle(t, q.src)))
			for _, threads := range []int{1, 2, 3, 5, 8} {
				for _, size := range []int{1, 7, 1 << 20} {
					res, err := Execute(fx.f.st, plan, Options{
						Threads: threads, Silent: true, MorselSize: size,
					})
					if err != nil {
						t.Fatalf("%s/%s w=%d m=%d: %v", fx.name, q.name, threads, size, err)
					}
					if res.Count != oracle {
						t.Errorf("%s/%s w=%d m=%d: count %d, oracle %d",
							fx.name, q.name, threads, size, res.Count, oracle)
					}
					want := fx.f.spanSum(t, plan, threads, size)
					if got := res.Sched.TotalTuples(); got != want {
						t.Errorf("%s/%s w=%d m=%d: claimed %d outer positions, morsel spans hold %d",
							fx.name, q.name, threads, size, got, want)
					}
					if !plan.Distinct {
						if got := res.Sched.TotalRows(); got != res.Count {
							t.Errorf("%s/%s w=%d m=%d: per-worker rows sum to %d, count %d",
								fx.name, q.name, threads, size, got, res.Count)
						}
					}
				}
			}
		}
	}
}

// TestSchedPerWorkerRowsSum pins the per-worker result accounting at shard
// boundaries: under the default morsel bound, with every shard left uncut
// (the paper's static sharding) and at the difftest matrix's sizes — whose
// morsels, from one position to the skew fixture's few-thousand-position hub
// run, all claim in the fine grain newMorsel gives small spans — the
// per-worker Rows counters must sum to the oracle row count for every worker
// count, not just the aggregate Count the engine reports.
func TestSchedPerWorkerRowsSum(t *testing.T) {
	for _, fx := range []struct {
		f  *fixture
		qs []struct{ name, src string }
	}{
		{universityFixture(t), testQueries},
		{skewScanFixture(t), []struct{ name, src string }{{"skew-scan", skewScanQuery}, {"skew-join", skewJoinQuery}}},
	} {
		for _, q := range fx.qs {
			plan := fx.f.planFor(t, q.src)
			if plan.Empty || len(plan.Patterns) == 0 || plan.Distinct {
				continue
			}
			oracle := int64(len(fx.f.oracle(t, q.src)))
			for _, threads := range []int{1, 2, 3, 5, 8, runtime.GOMAXPROCS(0)} {
				for _, size := range []int{0, math.MaxInt32, 1, 7, 64 * 1024} {
					res, err := Execute(fx.f.st, plan, Options{
						Threads: threads, Silent: true, MorselSize: size,
					})
					if err != nil {
						t.Fatalf("%s w=%d m=%d: %v", q.name, threads, size, err)
					}
					if res.Count != oracle {
						t.Errorf("%s w=%d m=%d: count %d, oracle %d",
							q.name, threads, size, res.Count, oracle)
					}
					if got := res.Sched.TotalRows(); got != oracle {
						t.Errorf("%s w=%d m=%d: per-worker rows sum to %d, oracle %d (per worker: %+v)",
							q.name, threads, size, got, oracle, res.Sched.Workers)
					}
					if got, want := res.Sched.TotalTuples(), fx.f.spanSum(t, plan, threads, size); got != want {
						t.Errorf("%s w=%d m=%d: claimed %d outer positions, morsel spans hold %d",
							q.name, threads, size, got, want)
					}
				}
			}
		}
	}
}

// TestMorselGrain pins the claim grain: a 64th of the span so small morsels
// stay stealable, but not below four positions (or a quarter of a span too
// short even for that) so claiming stays cheap next to the work claimed, and
// capped at 1024 so morsels of 64K positions and more claim as they always
// have.
func TestMorselGrain(t *testing.T) {
	for _, c := range []struct{ span, grain int }{
		{1, 1}, {7, 1}, {12, 3}, {16, 4}, {160, 4}, {350, 5}, {1300, 20}, {32 * 1024, 512}, {64 * 1024, 1024}, {1 << 20, 1024},
	} {
		if m := newMorsel(morselKeys, nil, 0, -1, nil, 5, 5+c.span); int(m.grain) != c.grain {
			t.Errorf("span %d: grain %d, want %d", c.span, m.grain, c.grain)
		}
	}
}

// TestShardRangesPartitionTuples checks the cluster-facing contract: the
// sub-range executions of a deterministic sharding claim, between them,
// exactly the positions the full execution claims — each node cuts only its
// own shards into morsels, and the union over nodes partitions the input.
func TestShardRangesPartitionTuples(t *testing.T) {
	f := skewScanFixture(t)
	for _, src := range []string{skewScanQuery, skewJoinQuery} {
		plan := f.planFor(t, src)
		oracle := int64(len(f.oracle(t, src)))
		const threads = 6
		full, err := Execute(f.st, plan, Options{Threads: threads, Silent: true})
		if err != nil {
			t.Fatal(err)
		}
		for _, nodes := range []int{2, 3} {
			per := threads / nodes
			var count, tuples int64
			for n := 0; n < nodes; n++ {
				res, err := ExecuteShardRange(f.st, plan, Options{Threads: threads, Silent: true},
					n*per, (n+1)*per)
				if err != nil {
					t.Fatalf("%q nodes=%d node=%d: %v", src, nodes, n, err)
				}
				count += res.Count
				tuples += res.Sched.TotalTuples()
			}
			if count != oracle {
				t.Errorf("%q nodes=%d: range counts sum to %d, oracle %d", src, nodes, count, oracle)
			}
			if tuples != full.Sched.TotalTuples() {
				t.Errorf("%q nodes=%d: range claims sum to %d, full run claimed %d",
					src, nodes, tuples, full.Sched.TotalTuples())
			}
		}
	}
}

// TestMorselLimitCutoff checks the early-exit half of the claim property:
// with a LIMIT the engine still returns exactly min(LIMIT, |result|) rows at
// every worker count and morsel size, and the workers never claim more outer
// positions than the morsel spans hold (stopping early must not re-hand-out
// abandoned ranges).
func TestMorselLimitCutoff(t *testing.T) {
	defer testutil.LeakCheck(t)()
	f := skewScanFixture(t)
	full := int64(len(f.oracle(t, skewScanQuery)))
	for _, limit := range []int{1, 123, 1 << 20} {
		src := fmt.Sprintf("%s LIMIT %d", skewScanQuery, limit)
		plan := f.planFor(t, src)
		want := int64(limit)
		if full < want {
			want = full
		}
		for _, threads := range []int{1, 4, 8} {
			for _, size := range []int{1, 7, 1 << 20} {
				res, err := Execute(f.st, plan, Options{Threads: threads, MorselSize: size})
				if err != nil {
					t.Fatalf("limit=%d w=%d m=%d: %v", limit, threads, size, err)
				}
				if res.Count != want {
					t.Errorf("limit=%d w=%d m=%d: count %d, want %d", limit, threads, size, res.Count, want)
				}
				if got, max := res.Sched.TotalTuples(), f.spanSum(t, plan, threads, size); got > max {
					t.Errorf("limit=%d w=%d m=%d: claimed %d outer positions, spans only hold %d",
						limit, threads, size, got, max)
				}
			}
		}
	}
}

// TestMorselCancellation cancels the query context from inside the probe
// path while several workers are mid-morsel, and asserts the run fails with
// the context's policy error, never over-claims, and leaks no goroutines.
func TestMorselCancellation(t *testing.T) {
	defer testutil.LeakCheck(t)()
	f := skewScanFixture(t)
	plan := f.planFor(t, skewJoinQuery)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var probes atomic.Int64
	restore := SetProbeFaultHook(func() {
		if probes.Add(1) == 500 {
			cancel()
		}
	})
	defer restore()
	res, err := Execute(f.st, plan, Options{
		Threads: 4, Silent: true, MorselSize: 7, Context: ctx, CheckInterval: 64,
	})
	if err == nil {
		t.Fatalf("Execute returned nil error (count %d), want cancellation", res.Count)
	}
	var pe *governance.PanicError
	if errors.As(err, &pe) {
		t.Fatalf("cancellation surfaced as a contained panic: %v", err)
	}
	if got, max := res.Sched.TotalTuples(), f.spanSum(t, plan, 4, 7); got > max {
		t.Errorf("cancelled run claimed %d outer positions, spans only hold %d", got, max)
	}
}

// TestMorselPanicContainment panics inside one worker's probe path
// mid-query and asserts the scheduler contains it to a typed query error,
// stops the surviving workers without re-claiming, and leaks nothing.
func TestMorselPanicContainment(t *testing.T) {
	defer testutil.LeakCheck(t)()
	f := skewScanFixture(t)
	plan := f.planFor(t, skewJoinQuery)
	var probes atomic.Int64
	restore := SetProbeFaultHook(func() {
		if probes.Add(1) == 100 {
			panic("injected morsel fault")
		}
	})
	defer restore()
	res, err := Execute(f.st, plan, Options{Threads: 4, Silent: true, MorselSize: 7})
	if err == nil {
		t.Fatalf("Execute returned nil error (count %d), want contained panic", res.Count)
	}
	var pe *governance.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("error %v (%T) is not a *governance.PanicError", err, err)
	}
	if got, max := res.Sched.TotalTuples(), f.spanSum(t, plan, 4, 7); got > max {
		t.Errorf("panicked run claimed %d outer positions, spans only hold %d", got, max)
	}
}

// TestStreamCancelPoisonsScheduler cancels a streaming consumer on a run
// with thousands of single-tuple morsels and several workers: the poison
// must stop dispatch and stealing promptly (LeakCheck bounds the unwind)
// and the delivered prefix is exactly what the sink accepted.
func TestStreamCancelPoisonsScheduler(t *testing.T) {
	defer testutil.LeakCheck(t)()
	f := skewScanFixture(t)
	plan := f.planFor(t, skewScanQuery)
	const accept = 10
	var delivered int64
	n, err := ExecuteStream(f.st, plan, Options{Threads: 4, MorselSize: 1}, func(row []uint32) bool {
		if delivered >= accept {
			return false
		}
		delivered++
		return true
	})
	if err != nil {
		t.Fatalf("ExecuteStream: %v", err)
	}
	if n != accept || delivered != accept {
		t.Errorf("delivered %d rows (sink accepted %d), want exactly %d", n, delivered, accept)
	}
}

// TestStaticShardingIsUncutMorsels pins the paper's static sharding (§3) as
// a morsel configuration: with MorselSize at or above the shard size the cut
// leaves exactly one morsel per shard range, the shards are the ⌈total/W⌉
// partition of the first relation, a measured run lasts as long as its
// slowest shard, and the cluster's shard-range contract — disjoint ranges
// sum to the full result — holds at every morsel size.
func TestStaticShardingIsUncutMorsels(t *testing.T) {
	uni := universityFixture(t)
	exp, x := expandedFixture(t)
	cyc := denseCyclicFixture(t)
	// The stub expander widens <teaches> to {teaches, worksFor} and
	// <Professor> to {Professor, Student}; both unions are disjoint, so an
	// expanded query's oracle count is the sum over src and member.
	cases := []struct {
		name   string
		f      *fixture
		src    string
		member string // non-empty: plan src with the expander
		join   JoinAlgo
	}{
		{"pipeline", uni, testQueries[1].src, "", JoinPipeline},
		{"variable-predicate", uni, `SELECT ?p ?c WHERE { <stu0_0_0> ?p ?c . ?c <type> <Course> }`, "", JoinPipeline},
		{"constant-key", uni, `SELECT ?x ?c WHERE { ?x <memberOf> <dept0_0> . ?x <takesCourse> ?c }`, "", JoinPipeline},
		{"expanded-union-keys", exp, `SELECT ?a ?b WHERE { ?a <teaches> ?b }`, `SELECT ?a ?b WHERE { ?a <worksFor> ?b }`, JoinPipeline},
		{"expanded-union-values", exp, `SELECT ?a WHERE { ?a <type> <Professor> }`, `SELECT ?a WHERE { ?a <type> <Student> }`, JoinPipeline},
		{"wcoj", cyc, wcojTriangle, "", JoinWCOJ},
	}
	for _, c := range cases {
		plan := c.f.planFor(t, c.src)
		want := int64(len(c.f.oracle(t, c.src)))
		if c.member != "" {
			q, err := sparql.Parse(c.src)
			if err != nil {
				t.Fatal(err)
			}
			if plan, err = optimizer.OptimizeExpanded(q, c.f.st, c.f.stats, x); err != nil {
				t.Fatal(err)
			}
			want += int64(len(c.f.oracle(t, c.member)))
		}
		for _, workers := range []int{1, 2, 3, 5, 8} {
			name := fmt.Sprintf("%s/w=%d", c.name, workers)
			var shards [][]*morsel
			if c.join == JoinWCOJ {
				shards = makeWCOJShards(buildWCOJPlan(c.f.st, plan), workers)
			} else {
				shards = makeShards(c.f.st, plan, workers)
			}

			// The shards are the ⌈total/W⌉ partition: every shard but the last
			// holds exactly per positions, the last the remainder.
			var ranges []*morsel
			sizes := make([]int, len(shards))
			total := 0
			for i, sh := range shards {
				for _, m := range sh {
					sizes[i] += m.span.remaining()
					ranges = append(ranges, m)
				}
				total += sizes[i]
			}
			w := workers
			if w > total {
				w = total
			}
			per := (total + w - 1) / w
			if want := (total + per - 1) / per; len(shards) != want {
				t.Fatalf("%s: %d shards over %d positions, want %d", name, len(shards), total, want)
			}
			for i, n := range sizes {
				last := i == len(sizes)-1
				if (!last && n != per) || (last && (n == 0 || n > per)) {
					t.Errorf("%s: shard %d holds %d positions, want ⌈%d/%d⌉ = %d", name, i, n, total, w, per)
				}
			}

			// Uncut: one morsel per shard range, spanning exactly that range.
			uncut := makeMorsels(shards, math.MaxInt32)
			if len(uncut) != len(ranges) {
				t.Fatalf("%s: %d uncut morsels for %d shard ranges", name, len(uncut), len(ranges))
			}
			for i, m := range uncut {
				if m.kind != ranges[i].kind || m.span.word.Load() != ranges[i].span.word.Load() {
					t.Errorf("%s: uncut morsel %d does not span shard range %d", name, i, i)
				}
			}

			opts := Options{Threads: workers, Silent: true, Join: c.join, MorselSize: math.MaxInt32}
			res, err := Execute(c.f.st, plan, opts)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if res.Count != want {
				t.Errorf("%s: uncut count %d, oracle %d", name, res.Count, want)
			}
			if got := res.Sched.TotalMorsels(); got != int64(len(ranges)) {
				t.Errorf("%s: workers pulled %d morsels, want one per shard range (%d)", name, got, len(ranges))
			}

			// A measured run on one morsel per worker lasts as long as its
			// slowest shard.
			opts.MeasureShards = true
			res, err = Execute(c.f.st, plan, opts)
			if err != nil {
				t.Fatalf("%s measured: %v", name, err)
			}
			if res.Count != want || len(res.ShardDurations) != len(ranges) {
				t.Errorf("%s measured: count %d (oracle %d), %d durations for %d shard ranges",
					name, res.Count, want, len(res.ShardDurations), len(ranges))
			}
			if len(res.ShardDurations) <= workers {
				var slowest time.Duration
				for _, d := range res.ShardDurations {
					if d > slowest {
						slowest = d
					}
				}
				if res.MaxShardTime() != slowest {
					t.Errorf("%s measured: MaxShardTime %v, slowest shard %v", name, res.MaxShardTime(), slowest)
				}
			}

			// Disjoint shard ranges sum to the full result at every cut.
			for _, size := range []int{1, 7, 64 << 10, math.MaxInt32} {
				var sum int64
				for i := 0; i < workers; i++ {
					r, err := ExecuteShardRange(c.f.st, plan,
						Options{Threads: workers, Silent: true, Join: c.join, MorselSize: size}, i, i+1)
					if err != nil {
						t.Fatalf("%s m=%d shard %d: %v", name, size, i, err)
					}
					sum += r.Count
				}
				if sum != want {
					t.Errorf("%s m=%d: shard-range counts sum to %d, oracle %d", name, size, sum, want)
				}
			}
		}
	}
}

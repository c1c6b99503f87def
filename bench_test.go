// Benchmarks regenerating each table and figure of the paper at small
// scale. One sub-benchmark per engine/configuration; each iteration runs
// the experiment's full query workload in silent mode. For paper-style
// formatted tables at larger scales use cmd/parj-bench.
package parj_test

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"parj/internal/bench"
	"parj/internal/cachesim"
	"parj/internal/core"
	"parj/internal/live"
	"parj/internal/lubm"
	"parj/internal/optimizer"
	"parj/internal/rdf"
	"parj/internal/sparql"
	"parj/internal/stats"
	"parj/internal/store"
	"parj/internal/watdiv"
)

const (
	benchLUBMScale   = 8
	benchWatDivScale = 2
)

var (
	lubmOnce sync.Once
	lubmData *bench.Dataset

	watdivOnce sync.Once
	watdivData *bench.Dataset
)

func lubmDataset() *bench.Dataset {
	lubmOnce.Do(func() {
		lubmData = bench.NewDataset(lubm.Triples(benchLUBMScale, lubm.Config{}), 0)
	})
	return lubmData
}

func watdivDataset() *bench.Dataset {
	watdivOnce.Do(func() {
		watdivData = bench.NewDataset(watdiv.Triples(benchWatDivScale, watdiv.Config{}), 0)
	})
	return watdivData
}

func parseAll(b *testing.B, qs []bench.NamedQuery) []*sparql.Query {
	b.Helper()
	out := make([]*sparql.Query, len(qs))
	for i, nq := range qs {
		q, err := sparql.Parse(nq.SPARQL)
		if err != nil {
			b.Fatalf("%s: %v", nq.Name, err)
		}
		out[i] = q
	}
	return out
}

func lubmNamed() []bench.NamedQuery {
	var out []bench.NamedQuery
	for _, q := range lubm.Queries() {
		out = append(out, bench.NamedQuery{Name: q.Name, Group: "LUBM", SPARQL: q.SPARQL})
	}
	return out
}

func watdivNamed(qs []watdiv.Query) []bench.NamedQuery {
	var out []bench.NamedQuery
	for _, q := range qs {
		out = append(out, bench.NamedQuery{Name: q.Name, Group: q.Group, SPARQL: q.SPARQL})
	}
	return out
}

// runWorkload executes every query once on the engine.
func runWorkload(b *testing.B, e bench.Engine, queries []*sparql.Query) {
	b.Helper()
	for _, q := range queries {
		if _, err := e.Count(q); err != nil {
			b.Fatal(err)
		}
	}
}

// runWorkloadTimed additionally sums the engine-reported elapsed time,
// which for multi-thread PARJ on an under-provisioned host is the
// simulated parallel time (max over shards) rather than serial wall clock.
func runWorkloadTimed(b *testing.B, e bench.Engine, queries []*sparql.Query) float64 {
	b.Helper()
	te, ok := e.(bench.TimedEngine)
	if !ok {
		runWorkload(b, e, queries)
		return 0
	}
	total := 0.0
	for _, q := range queries {
		_, elapsed, err := te.CountTimed(q)
		if err != nil {
			b.Fatal(err)
		}
		total += float64(elapsed.Microseconds()) / 1000
	}
	return total
}

// benchEngines runs the engine matrix over a query workload, one
// sub-benchmark per engine.
func benchEngines(b *testing.B, engines []bench.Engine, queries []*sparql.Query) {
	for _, e := range engines {
		e := e
		b.Run(e.Name(), func(b *testing.B) {
			runWorkload(b, e, queries) // warmup + lazily build the engine
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				runWorkload(b, e, queries)
			}
		})
	}
}

// BenchmarkTable2 is the LUBM engine comparison (paper Table 2).
func BenchmarkTable2(b *testing.B) {
	d := lubmDataset()
	queries := parseAll(b, lubmNamed())
	benchEngines(b, []bench.Engine{
		d.PARJ("PARJ-1", core.Options{Threads: 1, Strategy: core.AdaptiveIndex}),
		d.HashJoin(),
		d.RDF3X(),
		d.PARJ("PARJ-N", core.Options{Strategy: core.AdaptiveIndex}),
		d.TriAD(0),
		d.TriAD(256),
	}, queries)
}

// BenchmarkTable3 is the WatDiv basic workload comparison (paper Table 3).
func BenchmarkTable3(b *testing.B) {
	d := watdivDataset()
	queries := parseAll(b, watdivNamed(watdiv.BasicQueries()))
	benchEngines(b, []bench.Engine{
		d.PARJ("PARJ-1", core.Options{Threads: 1, Strategy: core.AdaptiveIndex}),
		d.HashJoin(),
		d.RDF3X(),
		d.PARJ("PARJ-N", core.Options{Strategy: core.AdaptiveIndex}),
		d.TriAD(0),
		d.TriAD(256),
	}, queries)
}

// BenchmarkTable4 is the WatDiv IL/ML workload comparison (paper Table 4).
// The unbounded IL-3 family explodes with scale, so this stays small.
func BenchmarkTable4(b *testing.B) {
	d := watdivDataset()
	qs := append(watdivNamed(watdiv.ILQueries()), watdivNamed(watdiv.MLQueries())...)
	queries := parseAll(b, qs)
	benchEngines(b, []bench.Engine{
		d.PARJ("PARJ-1", core.Options{Threads: 1, Strategy: core.AdaptiveIndex}),
		d.HashJoin(),
		d.RDF3X(),
		d.PARJ("PARJ-N", core.Options{Strategy: core.AdaptiveIndex}),
		d.TriAD(0),
		d.TriAD(256),
	}, queries)
}

// BenchmarkTable5 is the probe-strategy ablation (paper Table 5): the LUBM
// workload single-threaded under each strategy.
func BenchmarkTable5(b *testing.B) {
	d := lubmDataset()
	queries := parseAll(b, lubmNamed())
	benchEngines(b, []bench.Engine{
		d.PARJ("Binary", core.Options{Threads: 1, Strategy: core.BinaryOnly}),
		d.PARJ("AdBinary", core.Options{Threads: 1, Strategy: core.AdaptiveBinary}),
		d.PARJ("Index", core.Options{Threads: 1, Strategy: core.IndexOnly}),
		d.PARJ("AdIndex", core.Options{Threads: 1, Strategy: core.AdaptiveIndex}),
	}, queries)
}

// BenchmarkTable6 replays the LUBM workload through the cache-hierarchy
// simulator, once per probe backend (paper Table 6's instrumented runs).
func BenchmarkTable6(b *testing.B) {
	d := lubmDataset()
	st, ss := d.Store()
	var plans []*optimizer.Plan
	for _, nq := range lubmNamed() {
		q, err := sparql.Parse(nq.SPARQL)
		if err != nil {
			b.Fatal(err)
		}
		plan, err := optimizer.Optimize(q, st, ss)
		if err != nil {
			b.Fatal(err)
		}
		plans = append(plans, plan)
	}
	for _, strat := range []core.Strategy{core.AdaptiveBinary, core.AdaptiveIndex} {
		strat := strat
		b.Run("traced-"+strat.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				h := cachesim.New(cachesim.DefaultConfig())
				for _, plan := range plans {
					if _, err := core.Execute(st, plan, core.Options{
						Threads: 1, Silent: true, Strategy: strat, MemTracer: h,
					}); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(h.Cycles()), "simcycles")
				b.ReportMetric(float64(h.Misses(2)), "L3miss")
			}
		})
	}
}

// BenchmarkFig2 is the thread-scalability sweep (paper Figure 2).
func BenchmarkFig2(b *testing.B) {
	d := lubmDataset()
	var qs []bench.NamedQuery
	for _, q := range lubm.Queries() {
		if q.Name == "L4" || q.Name == "L5" || q.Name == "L6" {
			continue
		}
		qs = append(qs, bench.NamedQuery{Name: q.Name, Group: "LUBM", SPARQL: q.SPARQL})
	}
	queries := parseAll(b, qs)
	for _, threads := range []int{1, 2, 4, 8, 16} {
		threads := threads
		e := d.PARJ(fmt.Sprintf("threads-%d", threads), core.Options{Threads: threads, Strategy: core.AdaptiveIndex})
		b.Run(e.Name(), func(b *testing.B) {
			runWorkload(b, e, queries)
			b.ResetTimer()
			var simMS float64
			for i := 0; i < b.N; i++ {
				simMS = runWorkloadTimed(b, e, queries)
			}
			if simMS > 0 {
				// Simulated parallel elapsed per workload pass; on hosts
				// with >= threads cores this equals real wall clock.
				b.ReportMetric(simMS, "parallel-ms/op")
			}
		})
	}
}

// BenchmarkThreadScaling is Figure 2's real-wall-clock counterpart: each
// join-heavy LUBM query at LUBM 32 with 1, 2, 4, … workers up to the host's
// core count, every worker a goroutine that really runs beside the others.
// T=2 against T=1 is the speed-up the simulated columns only assume.
func BenchmarkThreadScaling(b *testing.B) {
	d := bench.NewDataset(lubm.Triples(32, lubm.Config{}), 0)
	st, ss := d.Store()
	var named []bench.NamedQuery
	for _, nq := range lubmNamed() {
		if nq.Name != "L4" && nq.Name != "L5" && nq.Name != "L6" {
			named = append(named, nq)
		}
	}
	queries := parseAll(b, named)
	for threads := 1; threads <= runtime.NumCPU(); threads *= 2 {
		opts := core.Options{Threads: threads, Silent: true}
		for i, q := range queries {
			plan, err := optimizer.Optimize(q, st, ss)
			if err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("T=%d/%s", threads, named[i].Name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := core.Execute(st, plan, opts); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(b.Elapsed().Seconds()*1e3/float64(b.N), "ms/query")
			})
		}
	}
}

// BenchmarkFig3 is the dataset-size sweep (paper Figure 3).
func BenchmarkFig3(b *testing.B) {
	var qs []bench.NamedQuery
	for _, q := range lubm.Queries() {
		if q.Name == "L4" || q.Name == "L5" || q.Name == "L6" {
			continue
		}
		qs = append(qs, bench.NamedQuery{Name: q.Name, Group: "LUBM", SPARQL: q.SPARQL})
	}
	queries := parseAll(b, qs)
	for _, scale := range []int{1, 2, 4, 8} {
		scale := scale
		b.Run(fmt.Sprintf("scale-%d", scale), func(b *testing.B) {
			d := bench.NewDataset(lubm.Triples(scale, lubm.Config{}), 16)
			e := d.PARJ("PARJ-N", core.Options{Threads: 16, Strategy: core.AdaptiveIndex})
			runWorkload(b, e, queries)
			b.ResetTimer()
			var simMS float64
			for i := 0; i < b.N; i++ {
				simMS = runWorkloadTimed(b, e, queries)
			}
			if simMS > 0 {
				b.ReportMetric(simMS, "parallel-ms/op")
			}
		})
	}
}

// BenchmarkLoad measures store construction throughput.
func BenchmarkLoad(b *testing.B) {
	triples := lubm.Triples(2, lubm.Config{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		store.LoadTriples(triples, store.BuildOptions{BuildPosIndex: true})
	}
	b.SetBytes(int64(len(triples)))
}

// BenchmarkOptimizer measures planning latency on a 9-pattern star (the
// paper notes WatDiv S1's optimization time dominates its execution).
func BenchmarkOptimizer(b *testing.B) {
	d := watdivDataset()
	st, ss := d.Store()
	var s1 string
	for _, q := range watdiv.BasicQueries() {
		if q.Name == "S1" {
			s1 = q.SPARQL
		}
	}
	q, err := sparql.Parse(s1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := optimizer.Optimize(q, st, ss); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMaterializeBatch prices one read after one write on the churn
// benchmark's shape: LUBM 64, a batch of 64 takesCourse inserts plus the 64
// tombstones of the batch before it, and then the first View.Store of the
// new epoch — the carry-forward merge of both takesCourse replicas (164 k
// pairs) from the previous epoch's tables. Writes and the reconcile every
// 32 batches (4096 verdicts, churn's AutoReconcileOps) run off the clock.
func BenchmarkMaterializeBatch(b *testing.B) {
	triples := lubm.Triples(64, lubm.Config{})
	var courses []string
	seen := map[string]bool{}
	for _, t := range triples {
		if t.P == lubm.PredTakesCourse && !seen[t.O] && len(courses) < 64 {
			seen[t.O] = true
			courses = append(courses, t.O)
		}
	}
	h := live.New(store.LoadTriples(triples, store.BuildOptions{}), nil, store.BuildOptions{})
	batch := func(k int) []rdf.Triple {
		out := make([]rdf.Triple, len(courses))
		for i, c := range courses {
			out[i] = rdf.Triple{S: fmt.Sprintf("<http://bench/student/b%d/t%d>", k, i), P: lubm.PredTakesCourse, O: c}
		}
		return out
	}
	prev := batch(0)
	h.Insert(prev)
	h.View().Store()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 1; i <= b.N; i++ {
		b.StopTimer()
		next := batch(i)
		if _, err := h.Apply(0, next, prev); err != nil {
			b.Fatal(err)
		}
		prev = next
		if i%32 == 0 {
			h.Reconcile()
		}
		v := h.View()
		b.StartTimer()
		v.Store()
	}
}

// BenchmarkExecRows prices what handing rows out costs a node over counting
// them, on the endpoint benchmark's shape: LUBM 16, one shard of two on one
// worker, the three large-result queries (the ones internal/remote's
// BenchmarkFrame encodes), Silent against rows. Rows minus silent is the
// materialization layer (core.materialize_ms) on its own.
func BenchmarkExecRows(b *testing.B) {
	st := store.LoadTriples(lubm.Triples(16, lubm.Config{}), store.BuildOptions{})
	ss := stats.New(st)
	for _, nq := range lubm.Queries() {
		if nq.Name != "L2" && nq.Name != "L7" && nq.Name != "L10" {
			continue
		}
		q, err := sparql.Parse(nq.SPARQL)
		if err != nil {
			b.Fatal(err)
		}
		plan, err := optimizer.Optimize(q, st, ss)
		if err != nil {
			b.Fatal(err)
		}
		for _, mode := range []string{"silent", "rows"} {
			opts := core.Options{Threads: 2, Silent: mode == "silent"}
			b.Run(nq.Name+"/"+mode, func(b *testing.B) {
				b.ReportAllocs()
				var rows int64
				for i := 0; i < b.N; i++ {
					res, err := core.ExecuteShardRange(st, plan, opts, 0, 1)
					if err != nil {
						b.Fatal(err)
					}
					rows = res.Count
				}
				b.ReportMetric(float64(rows), "rows")
			})
		}
	}
}

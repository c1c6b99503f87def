package main

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"parj/internal/baseline/hashjoin"
	"parj/internal/rdf"
	"parj/internal/sparql"
)

// env is what one workload run is given.
type env struct {
	workload string
	seed     int64
	seconds  time.Duration // measured window
	warmup   time.Duration
	trace    bool
	smoke    bool   // tiny inputs, for tests
	scratch  string // directory for WAL files
	outDir   string // directory for span files
	log      io.Writer
}

func (e *env) logf(format string, args ...any) { fmt.Fprintf(e.log, format+"\n", args...) }

// report is what one workload run returns. metrics holds the end-to-end
// metrics of an untraced run or the per-layer metrics of a traced one.
type report struct {
	attempted, failed int64
	metrics           map[string]float64
}

// metricDef names a metric with its unit. The lists below are the program's
// side of BENCHMARK.json; a test checks the two agree.
type metricDef struct{ name, unit string }

var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"op_tail_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"heap_bytes_per_triple", "B/triple"},
}

var perLayerMetrics = []metricDef{
	{"rdf.parse_s", "s"},
	{"store.build_s", "s"},
	{"stats.build_s", "s"},
	{"sparql.parse_us", "us"},
	{"optimizer.plan_us", "us"},
	{"optimizer.wcoj_share", "ratio"},
	{"live.pin_us", "us"},
	{"live.merge_ms", "ms"},
	{"live.merge_share", "ratio"},
	{"live.apply_us", "us"},
	{"live.reconcile_ms", "ms"},
	{"core.execute_ms", "ms"},
	{"core.busy_share", "ratio"},
	{"core.morsels", "count"},
	{"core.steals", "count"},
	{"core.materialize_ms", "ms"},
	{"search.probes_per_row", "ratio"},
	{"search.seq_share", "ratio"},
	{"search.binary_share", "ratio"},
	{"search.index_share", "ratio"},
	{"dict.decode_ms", "ms"},
	{"remote.hop_ms", "ms"},
	{"remote.resp_bytes_per_row", "B/row"},
	{"cluster.gather_ms", "ms"},
	{"cluster.attempts_per_shard", "ratio"},
	{"wal.enqueue_us", "us"},
	{"wal.commit_wait_ms", "ms"},
	{"wal.fsyncs_per_batch", "ratio"},
	{"wal.bytes_per_triple", "B/triple"},
	{"churn.read_tail_ms", "ms"},
	{"churn.write_late_tail_ms", "ms"},
	{"churn.gen_late_tail_ms", "ms"},
	{"churn.achieved_share", "ratio"},
	{"trace_coverage", "ratio"},
	{"trace_overhead", "ratio"},
}

// newLayerMetrics starts every per-layer metric at 0: a layer a workload
// never enters reports 0, which is the bypass prediction made visible.
func newLayerMetrics() map[string]float64 {
	m := make(map[string]float64, len(perLayerMetrics))
	for _, d := range perLayerMetrics {
		m[d.name] = 0
	}
	return m
}

// Set-up timing.

// timeSetups runs setup several times and returns the last product with the
// median wall time in seconds. A single set-up of a small store takes a few
// milliseconds and is at the mercy of one GC cycle; the median of several
// is what repeats. discard releases a product that is not kept.
func timeSetups[T any](e *env, setup func() (T, error), discard func(T)) (T, float64, error) {
	var last T
	var times []float64
	reps := 5
	for i := 0; i < reps; i++ {
		if i > 0 {
			discard(last)
		}
		var zero T
		last = zero
		runtime.GC() // the previous product's garbage is not this set-up's cost
		start := time.Now()
		p, err := setup()
		if err != nil {
			return last, 0, err
		}
		d := time.Since(start)
		last = p
		times = append(times, d.Seconds())
		if i == 0 && !e.smoke {
			// Spend about a second on fast set-ups, five runs on slow ones.
			reps = min(15, max(5, int(time.Second/max(d, time.Millisecond))))
		}
	}
	return last, medianFloat(times), nil
}

// heapBytes is the live heap after a full collection.
func heapBytes() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// Answer checking.

// expectCounts fills in every query's expected answer size from the
// hash-join baseline: an independent, single-threaded, materialising engine
// that shares neither the store layout nor the probe code with PARJ. It runs
// once, outside every timed region. An empty expected answer is rejected:
// a query that matches nothing checks nothing.
func expectCounts(ts []rdf.Triple, ops []*opType) error {
	oracle := hashjoin.Load(ts)
	for _, op := range ops {
		for i := range op.queries {
			q := &op.queries[i]
			parsed, err := sparql.Parse(q.sparql)
			if err != nil {
				return fmt.Errorf("oracle parse %s: %w", op.name, err)
			}
			if q.want, err = oracle.Count(parsed); err != nil {
				return fmt.Errorf("oracle count %s: %w", op.name, err)
			}
		}
	}
	return requireAnswers(ops)
}

func requireAnswers(ops []*opType) error {
	for _, op := range ops {
		for _, q := range op.queries {
			if q.want <= 0 {
				return fmt.Errorf("%s: oracle expects %d answers; the workload would check nothing", op.name, q.want)
			}
		}
	}
	return nil
}

// corruptOracle makes the next drive expect one wrong count, so a test can
// show that a wrong answer fails the run.
var corruptOracle bool

// Closed-loop query driver.

// driven is the outcome of one closed-loop window.
type driven struct {
	types             []*opSamples
	attempted, failed int64
	elapsed           time.Duration
}

func (d *driven) opsPerSecond() float64 { return float64(d.attempted) / d.elapsed.Seconds() }

// drive runs one client in a closed loop for the window: the op types in
// turn, each cycling through its query texts, whole rounds only so every
// type collects the same number of samples. exec returns the answer size,
// which is checked against the oracle on every call.
func drive(ops []*opType, window time.Duration, exec func(op *opType, q *query) (int64, error)) *driven {
	out := &driven{types: make([]*opSamples, len(ops))}
	for i, op := range ops {
		out.types[i] = &opSamples{name: op.name}
	}
	if corruptOracle {
		ops[0].queries[0].want++
		defer func() { ops[0].queries[0].want-- }()
	}
	start := time.Now()
	for round := 0; time.Since(start) < window; round++ {
		for i, op := range ops {
			q := &op.queries[round%len(op.queries)]
			t0 := time.Now()
			got, err := exec(op, q)
			out.types[i].d = append(out.types[i].d, time.Since(t0))
			out.attempted++
			if err != nil || got != q.want {
				out.failed++
			}
		}
	}
	out.elapsed = time.Since(start)
	return out
}

// endToEnd assembles the end-to-end metrics every workload reports.
func endToEnd(e *env, sum []opSummary, setupS, opsPerS float64, heap uint64, triples int) map[string]float64 {
	for _, s := range sum {
		e.logf("  op %-6s n=%-7d p50=%.4f ms  p%v=%.4f ms", s.Name, s.N, s.P50ms, s.TailPct, s.TailMs)
	}
	return map[string]float64{
		"setup_s":               setupS,
		"op_p50_ms":             geomeanOf(sum, func(s opSummary) float64 { return s.P50ms }),
		"op_tail_ms":            geomeanOf(sum, func(s opSummary) float64 { return s.TailMs }),
		"ops_per_s":             opsPerS,
		"heap_bytes_per_triple": float64(heap) / float64(triples),
	}
}

package main

import (
	"bytes"

	"parj"
	"parj/internal/core"
	"parj/internal/rdf"
)

// The three single-store query workloads share one driver and differ in
// their data, their queries and how the engine is asked to run them.

// queryWorkload describes one of them.
type queryWorkload struct {
	// build generates the triples and the operations with their expected
	// answer sizes.
	build func(e *env) ([]rdf.Triple, []*opType, error)
	// opts is how every query is issued.
	opts parj.QueryOptions
	// tail is the highest percentile the workload reports.
	tail float64
}

// Scales. The full ones are sized so that one run (generation, oracle, five
// set-ups, warm-up, window) fits the per-run share of the driver's time cap.
func lubmScale(e *env, full int) int {
	if e.smoke {
		return 2
	}
	return full
}

const (
	lubmJoinScale = 128 // ≈ 0.9 M triples
	churnScale    = 64  // ≈ 0.45 M triples
	endpointScale = 16  // ≈ 0.11 M triples
)

var lubmJoin = queryWorkload{
	build: func(e *env) ([]rdf.Triple, []*opType, error) {
		ts := lubmTriples(lubmScale(e, lubmJoinScale), e.seed)
		ops := lubmJoinOps(e.seed)
		return ts, ops, expectCounts(ts, ops)
	},
	// Silent mode and the engine's default thread count: the paper's method.
	opts: parj.QueryOptions{Silent: true},
	tail: 90,
}

var lubmPoint = queryWorkload{
	build: func(e *env) ([]rdf.Triple, []*opType, error) {
		ts := lubmTriples(lubmScale(e, lubmJoinScale), e.seed)
		ops := lubmPointOps(ts, e.seed)
		return ts, ops, expectCounts(ts, ops)
	},
	// Rows are returned and one thread runs them: a 20 µs query has no work
	// to share, so this is parse + plan + pin + decode, not the join core.
	opts: parj.QueryOptions{Threads: 1},
	tail: 99,
}

var cyclic = queryWorkload{
	build: func(e *env) ([]rdf.Triple, []*opType, error) {
		nodes, stubs := 4000, 12_000
		if e.smoke {
			nodes, stubs = 300, 1_500
		}
		g := newCyclicGraph(nodes, stubs, 1.5, e.seed)
		ops := cyclicOps(g.closedWalks())
		return g.triples(), ops, requireAnswers(ops)
	},
	opts: parj.QueryOptions{Silent: true, Join: parj.JoinAuto},
	tail: 90,
}

func (w queryWorkload) run(e *env) (*report, error) {
	ts, ops, err := w.build(e)
	if err != nil {
		return nil, err
	}
	data, err := ntriples(ts)
	if err != nil {
		return nil, err
	}
	ts = nil

	db, setupS, err := timeSetups(e, func() (*parj.Store, error) {
		return parj.Load(bytes.NewReader(data), parj.LoadOptions{})
	}, func(*parj.Store) {})
	if err != nil {
		return nil, err
	}
	triples := db.NumTriples() // distinct: the generators repeat some triples
	if !e.trace {
		data = nil // the heap figure is the store's, not the input document's
	}
	heap := heapBytes()
	e.logf("  %d triples, set-up %.4f s, heap %d B", triples, setupS, heap)

	public := func(_ *opType, q *query) (int64, error) {
		res, err := db.Query(q.sparql, w.opts)
		if err != nil {
			return 0, err
		}
		if w.opts.Silent {
			return res.Count, nil
		}
		return int64(len(res.Rows)), nil
	}
	drive(ops, e.warmup, public)

	if !e.trace {
		d := drive(ops, e.seconds, public)
		sum := summarize(d.types, w.tail)
		return &report{
			attempted: d.attempted,
			failed:    d.failed,
			metrics:   endToEnd(e, sum, setupS, d.opsPerSecond(), heap, triples),
		}, nil
	}

	// Traced run: half the window through the public API for the reference
	// medians, half through the layered path.
	plain := drive(ops, e.seconds/2, public)
	sum := summarize(plain.types, w.tail)
	db = nil

	tr := newTracer()
	h, err := tracedLoad(tr, data)
	if err != nil {
		return nil, err
	}
	m := newLayerMetrics()
	setupLayerMetrics(m, profile(tr.snapshot()))
	tq := &tracedQuerier{tr: tr, h: h, opts: core.Options{
		Threads: w.opts.Threads, Silent: w.opts.Silent, Join: w.opts.Join,
	}}
	layered := func(op *opType, q *query) (int64, error) { return tq.query(op.name, q.sparql) }
	drive(ops, e.warmup, layered)
	warm := len(tr.snapshot())
	tq.c = queryCounters{} // warm-up queries are not part of the window
	traced := drive(ops, e.seconds/2, layered)

	spans := tr.snapshot()
	queryLayerMetrics(m, profile(spans[warm:]), sum, &tq.c)
	if err := writeSpans(e.outDir, e.workload, spans); err != nil {
		return nil, err
	}
	return &report{attempted: plain.attempted + traced.attempted, failed: plain.failed + traced.failed, metrics: m}, nil
}

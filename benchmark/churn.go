package main

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"parj"
	"parj/internal/core"
	"parj/internal/live"
	"parj/internal/lubm"
	"parj/internal/rdf"
)

// churn: reads beside writes. One open-loop writer replaces a batch of
// takesCourse triples 200 times a second while one closed-loop reader joins
// over that same predicate, so every write invalidates the table the next
// read needs. The epoch machinery (internal/live, store.ApplyDelta) decides
// both sides' latency here and nowhere else.

const (
	churnPeriod    = 5 * time.Millisecond // 200 batches/s
	churnBatchSize = 64
	autoReconcile  = 4096 // DBOptions.AutoReconcileOps, here and in durable-write
	churnTail      = 95   // ~500 reads in a window support no higher percentile
)

var churnQuery = `SELECT ?x ?z WHERE { ?x ` + lubm.PredTakesCourse + ` ?y . ?z ` + lubm.PredTeacherOf + ` ?y }`

// churnSides is what the two clients do; the public and the layered run
// supply different implementations.
type churnSides struct {
	// read runs the reader's query and returns the answer size.
	read func() (int64, error)
	// write inserts ins and deletes dels as one batch.
	write func(ins, dels []rdf.Triple) error
	// writeSeq is Store.WriteSeq.
	writeSeq func() uint64
}

// churnOutcome is one window of churn traffic.
type churnOutcome struct {
	reads, writeLate, genLate opSamples
	scheduled, achieved       int64
	attempted, failed         int64
	window                    time.Duration
}

// churnTraffic runs both clients through a warm-up and the window and keeps
// the window's samples. want is the reader's expected answer size: the base
// answers plus one live batch, whatever the write sequence, because every
// batch deletes its predecessor.
func churnTraffic(e *env, window time.Duration, courses []string, want int64, sides churnSides) (*churnOutcome, error) {
	first := churnBatch(courses, e.seed, 0)
	if err := sides.write(first, nil); err != nil {
		return nil, fmt.Errorf("first write: %w", err)
	}
	out := &churnOutcome{window: window}
	out.reads.name, out.writeLate.name = "read", "write"
	start := time.Now()
	measure := start.Add(e.warmup)
	end := measure.Add(window)
	var failed atomic.Int64

	var wg sync.WaitGroup
	wg.Add(2)
	// Writer: open loop. Batch k is due at start + k·period whether or not
	// the store kept up, and its latency counts from then, so a stall is
	// charged to every batch it delays.
	go func() {
		defer wg.Done()
		prev := first
		for k := 1; ; k++ {
			due := start.Add(time.Duration(k) * churnPeriod)
			if !due.Before(end) {
				return
			}
			counted := !due.Before(measure)
			if counted {
				out.scheduled++
			}
			if time.Since(end) > time.Second {
				// Hopelessly behind: the rest of the schedule is lost load.
				if counted {
					failed.Add(1)
				}
				continue
			}
			batch := churnBatch(courses, e.seed, k)
			time.Sleep(time.Until(due))
			sent := time.Now()
			err := sides.write(batch, prev)
			acked := time.Now()
			prev = batch
			if !counted {
				continue
			}
			if err != nil {
				failed.Add(1)
				continue
			}
			out.achieved++
			out.genLate.d = append(out.genLate.d, sent.Sub(due))
			out.writeLate.d = append(out.writeLate.d, acked.Sub(due))
		}
	}()
	// Reader: closed loop.
	go func() {
		defer wg.Done()
		for {
			before := sides.writeSeq()
			t0 := time.Now()
			if !t0.Before(end) {
				return
			}
			got, err := sides.read()
			d := time.Since(t0)
			after := sides.writeSeq()
			if t0.Before(measure) {
				continue
			}
			out.reads.d = append(out.reads.d, d)
			if err != nil || got != want || before < 1 || after < before {
				failed.Add(1)
			}
		}
	}()
	wg.Wait()
	out.attempted = int64(len(out.reads.d)) + out.scheduled
	out.failed = failed.Load()
	return out, nil
}

func (o *churnOutcome) opsPerSecond() float64 {
	return float64(int64(len(o.reads.d))+o.achieved) / o.window.Seconds()
}

// sideMetrics logs the writer's open-loop hygiene and, in a traced run (m
// not nil), reports the per-client numbers behind the combined op_* metrics.
func (o *churnOutcome) sideMetrics(e *env, m map[string]float64) {
	sum := summarize([]*opSamples{&o.reads, &o.writeLate, &o.genLate}, churnTail)
	if m != nil {
		m["churn.read_tail_ms"] = sum[0].TailMs
		m["churn.write_late_tail_ms"] = sum[1].TailMs
		m["churn.gen_late_tail_ms"] = sum[2].TailMs
		m["churn.achieved_share"] = share(float64(o.achieved), float64(o.scheduled))
	}
	e.logf("  writer: %d of %d scheduled batches acknowledged; generator late p%v %.4f ms",
		o.achieved, o.scheduled, sum[2].TailPct, sum[2].TailMs)
}

func runChurn(e *env) (*report, error) {
	ts := lubmTriples(lubmScale(e, churnScale), e.seed)
	courses := churnCourses(ts, churnBatchSize, e.seed)
	reader := []*opType{{name: "read", queries: []query{{sparql: churnQuery}}}}
	if err := expectCounts(ts, reader); err != nil {
		return nil, err
	}
	want := reader[0].queries[0].want + int64(len(courses))
	data, err := ntriples(ts)
	if err != nil {
		return nil, err
	}
	ts = nil

	load := parj.LoadOptions{DB: parj.DBOptions{AutoReconcileOps: autoReconcile}}
	db, setupS, err := timeSetups(e, func() (*parj.Store, error) {
		return parj.Load(bytes.NewReader(data), load)
	}, func(*parj.Store) {})
	if err != nil {
		return nil, err
	}
	if !e.trace {
		data = nil
	}
	triples := db.NumTriples()
	heap := heapBytes()
	e.logf("  %d triples, set-up %.4f s, heap %d B", triples, setupS, heap)

	public := churnSides{
		read: func() (int64, error) {
			return db.Count(churnQuery, parj.QueryOptions{Threads: 1})
		},
		write: func(ins, dels []rdf.Triple) error {
			_, err := db.Write(toPublic(ins), toPublic(dels))
			return err
		},
		writeSeq: db.WriteSeq,
	}
	window := e.seconds
	if e.trace {
		window /= 2
	}
	plain, err := churnTraffic(e, window, courses, want, public)
	if err != nil {
		return nil, err
	}
	db.Quiesce()
	// Both clients are users of the store, so op_* combine them the way the
	// query workloads combine their query types; the writer's latency is
	// the one counted from its due time.
	sum := summarize([]*opSamples{&plain.reads, &plain.writeLate}, churnTail)
	if !e.trace {
		plain.sideMetrics(e, nil)
		return &report{
			attempted: plain.attempted,
			failed:    plain.failed,
			metrics:   endToEnd(e, sum, setupS, plain.opsPerSecond(), heap, triples),
		}, nil
	}
	db = nil

	// Layered run: the reader goes through tracedQuerier, the writer calls
	// live.Handle.Apply, and the benchmark starts reconciliation itself, on
	// the rule Apply uses, so that it can be timed.
	tr := newTracer()
	h, err := tracedLoad(tr, data)
	if err != nil {
		return nil, err
	}
	m := newLayerMetrics()
	setupLayerMetrics(m, profile(tr.snapshot()))
	tq := &tracedQuerier{tr: tr, h: h, opts: core.Options{Threads: 1, Silent: true}}
	rec := &tracedReconciler{tr: tr, h: h}
	layered := churnSides{
		read: func() (int64, error) { return tq.query("read", churnQuery) },
		write: func(ins, dels []rdf.Triple) error {
			req := tr.newReq()
			root := tr.beginOp(req, "write")
			sp := tr.begin(req, root.id(), "live.apply")
			_, err := h.Apply(0, ins, dels)
			sp.end()
			root.end()
			rec.maybeStart()
			return err
		},
		writeSeq: h.Seq,
	}
	cut := int64(time.Since(tr.epoch) + e.warmup)
	traced, err := churnTraffic(e, window, courses, want, layered)
	if err != nil {
		return nil, err
	}
	rec.wait()

	spans := tr.snapshot()
	prof := profile(spansFrom(spans, cut))
	// Warm-up reads are in the counters but not in the spans; the shares
	// they feed do not depend on which reads are counted.
	queryLayerMetrics(m, prof, sum[:1], &tq.c)
	if p := prof["write"]; p != nil {
		m["live.apply_us"] = us(p.Self["live.apply"])
	}
	if p := prof["reconcile"]; p != nil {
		m["live.reconcile_ms"] = ms(p.Self["live.reconcile"])
	}
	plain.sideMetrics(e, m)
	if err := writeSpans(e.outDir, e.workload, spans); err != nil {
		return nil, err
	}
	return &report{attempted: plain.attempted + traced.attempted, failed: plain.failed + traced.failed, metrics: m}, nil
}

// tracedReconciler runs live.Handle.Reconcile in the background once
// autoReconcile verdicts are pending, one at a time: what Apply does itself
// when DBOptions.AutoReconcileOps is set, moved here so a span can cover it.
type tracedReconciler struct {
	tr   *tracer
	h    *live.Handle
	busy atomic.Bool
	wg   sync.WaitGroup
}

func (r *tracedReconciler) maybeStart() {
	if r.h.Pending() < autoReconcile || !r.busy.CompareAndSwap(false, true) {
		return
	}
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		defer r.busy.Store(false)
		req := r.tr.newReq()
		root := r.tr.beginOp(req, "reconcile")
		sp := r.tr.begin(req, root.id(), "live.reconcile")
		r.h.Reconcile()
		sp.end()
		root.end()
	}()
}

func (r *tracedReconciler) wait() { r.wg.Wait() }

func toPublic(ts []rdf.Triple) []parj.Triple {
	out := make([]parj.Triple, len(ts))
	for i, t := range ts {
		out[i] = parj.Triple(t)
	}
	return out
}

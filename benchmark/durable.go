package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"parj"
	"parj/internal/live"
	"parj/internal/rdf"
	"parj/internal/store"
	"parj/internal/wal"
)

// durable-write: acknowledged writes. A small store, as many closed-loop
// writers as there are CPUs, every batch journaled and fsynced before its
// acknowledgement (SyncAlways, group commit). internal/wal and
// live.Handle.Apply do nearly all the work; the join core is idle.

const (
	durableBatchSize = 16
	durablePrefill   = 4096 // batches already in the log when recovery is timed
	fsyncFloor       = time.Millisecond
)

var durableCountQuery = `SELECT ?s ?o WHERE { ?s ` + durablePred + ` ?o }`

// durableStore opens the directory behind fs as a durable store.
func durableStore(fs wal.FS, seed func() ([]parj.Triple, error)) (*parj.Store, error) {
	return parj.Open(parj.LoadOptions{DB: parj.DBOptions{
		AutoReconcileOps: autoReconcile,
		Durability:       parj.Durability{FS: fs, Sync: parj.SyncAlways},
	}}, seed)
}

// newWALDir makes an empty log directory under the scratch directory.
func newWALDir(e *env, name string) (string, *wal.OSFS, error) {
	dir := filepath.Join(e.scratch, fmt.Sprintf("%s-%d", name, os.Getpid()))
	if err := os.RemoveAll(dir); err != nil {
		return "", nil, err
	}
	osfs, err := wal.NewOSFS(dir)
	return dir, osfs, err
}

// writeLoop runs one closed-loop client per CPU for the warm-up and the
// window. Every client generates its next batch before the clock starts and
// calls write; the window's latencies are returned with the number of
// batches acknowledged in all (warm-up included) and failed in the window.
func writeLoop(e *env, window time.Duration, first int, write func(w, k int, batch []rdf.Triple) error) (lat opSamples, acked []int, failed int64) {
	writers := runtime.GOMAXPROCS(0)
	acked = make([]int, writers)
	lats := make([][]time.Duration, writers)
	fails := make([]int64, writers)
	measure := time.Now().Add(e.warmup)
	end := measure.Add(window)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := first; ; k++ {
				batch := durableBatch(e.seed, w, k, durableBatchSize)
				t0 := time.Now()
				if !t0.Before(end) {
					return
				}
				err := write(w, k, batch)
				d := time.Since(t0)
				if err == nil {
					acked[w]++
				}
				if t0.Before(measure) {
					continue
				}
				lats[w] = append(lats[w], d)
				if err != nil {
					fails[w]++
				}
			}
		}(w)
	}
	wg.Wait()
	lat.name = "write"
	for w := range lats {
		lat.d = append(lat.d, lats[w]...)
		failed += fails[w]
	}
	return lat, acked, failed
}

func runDurableWrite(e *env) (*report, error) {
	prefill := durablePrefill
	if e.smoke {
		prefill = 64
	}
	seedTriples := lubmTriples(1, e.seed)
	dir, osfs, err := newWALDir(e, "durable")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	// The input of this workload's set-up is a log directory: a checkpoint
	// of the seed store plus a suffix of batches to replay. Written once,
	// without the fsync floor, outside every timed region.
	db, err := durableStore(osfs, func() ([]parj.Triple, error) { return toPublic(seedTriples), nil })
	if err != nil {
		return nil, err
	}
	for k := 0; k < prefill; k++ {
		if _, err := db.Write(toPublic(durableBatch(e.seed, 0, k, durableBatchSize)), nil); err != nil {
			return nil, err
		}
	}
	if err := db.Close(); err != nil {
		return nil, err
	}
	fs := newFloorFS(osfs, fsyncFloor)

	// Set-up is recovery: newest checkpoint + replay of the suffix.
	var closeErr error
	var setupS float64
	db, setupS, err = timeSetups(e, func() (*parj.Store, error) {
		return durableStore(fs, nil)
	}, func(s *parj.Store) {
		if err := s.Close(); err != nil {
			closeErr = err
		}
	})
	if err != nil {
		return nil, err
	}
	if closeErr != nil {
		return nil, closeErr
	}
	triples := db.NumTriples()
	heap := heapBytes()
	e.logf("  %d triples recovered, set-up %.4f s, heap %d B", triples, setupS, heap)

	window := e.seconds
	if e.trace {
		window /= 2
	}
	before := fs.counters()
	lat, acked, failed := writeLoop(e, window, prefill, func(_, _ int, batch []rdf.Triple) error {
		_, err := db.Write(toPublic(batch), nil)
		return err
	})
	io := fs.counters().sub(before)
	batches := 0
	for _, n := range acked {
		batches += n
	}
	attempted := int64(len(lat.d))

	// Restart: every acknowledged batch must be readable from what reached
	// the log. Close flushes nothing that matters: under SyncAlways an
	// acknowledged batch is already covered by an fsync.
	if err := db.Close(); err != nil {
		return nil, err
	}
	db, err = durableStore(fs, nil)
	if err != nil {
		return nil, fmt.Errorf("reopen: %w", err)
	}
	lost, err := durableLost(db, e.seed, prefill, acked)
	if err != nil {
		return nil, err
	}
	if err := db.Close(); err != nil {
		return nil, err
	}
	attempted += int64(len(acked)) + 1 // the restart checks
	failed += lost
	e.logf("  %d batches acknowledged, %d lost after restart; %d fsyncs, %d bytes in the window", batches, lost, io.syncs, io.bytes)

	sum := summarize([]*opSamples{&lat}, 95)
	if !e.trace {
		opsPerS := float64(len(lat.d)) / window.Seconds()
		return &report{attempted: attempted, failed: failed,
			metrics: endToEnd(e, sum, setupS, opsPerS, heap, triples)}, nil
	}

	m := newLayerMetrics()
	m["wal.fsyncs_per_batch"] = share(float64(io.syncs), float64(batches))
	m["wal.bytes_per_triple"] = share(float64(io.bytes), float64(batches*durableBatchSize))
	a, f, err := tracedDurable(e, window/2, seedTriples, sum[0], m)
	if err != nil {
		return nil, err
	}
	return &report{attempted: attempted + a, failed: failed + f, metrics: m}, nil
}

// durableLost counts what a restarted store is missing: the total number of
// written triples, and each writer's last acknowledged batch by subject.
func durableLost(db *parj.Store, seed int64, prefill int, acked []int) (lost int64, err error) {
	total := prefill
	for _, n := range acked {
		total += n
	}
	got, err := db.Count(durableCountQuery, parj.QueryOptions{})
	if err != nil {
		return 0, err
	}
	if want := int64(total * durableBatchSize); got != want {
		gap := (want - got) / durableBatchSize
		lost += max(gap, -gap, 1)
	}
	for w, n := range acked {
		if n == 0 {
			continue
		}
		lastBatch := durableBatch(seed, w, prefill+n-1, durableBatchSize)
		got, err := db.Count(`SELECT ?o WHERE { `+lastBatch[0].S+` `+durablePred+` ?o }`, parj.QueryOptions{})
		if err != nil {
			return 0, err
		}
		if got != durableBatchSize {
			lost++
		}
	}
	return lost, nil
}

// tracedDurable times the two layers under Store.Write apart, each driven
// through its exported functions by the same closed-loop writers: the log
// alone (Enqueue under a sequencing lock, Wait outside it, as
// live.Handle.Apply does), then a volatile handle's Apply alone.
func tracedDurable(e *env, window time.Duration, seedTriples []rdf.Triple, untraced opSummary, m map[string]float64) (attempted, failed int64, err error) {
	tr := newTracer()

	dir, osfs, err := newWALDir(e, "durable-wal")
	if err != nil {
		return 0, 0, err
	}
	defer os.RemoveAll(dir)
	log, err := wal.Open(wal.Options{FS: newFloorFS(osfs, fsyncFloor), Sync: wal.SyncAlways})
	if err != nil {
		return 0, 0, err
	}
	var mu sync.Mutex
	var seq uint64
	cut := int64(time.Since(tr.epoch) + e.warmup)
	lat, _, f := writeLoop(e, window, 0, func(_, _ int, batch []rdf.Triple) error {
		req := tr.newReq()
		root := tr.beginOp(req, "wal")
		defer root.end()
		mu.Lock()
		seq++
		sp := tr.begin(req, root.id(), "wal.enqueue")
		c, err := log.Enqueue(wal.Record{Seq: seq, Inserts: batch})
		sp.end()
		mu.Unlock()
		if err != nil {
			return err
		}
		sp = tr.begin(req, root.id(), "wal.commit_wait")
		err = c.Wait()
		sp.end()
		return err
	})
	if err := log.Close(); err != nil {
		return 0, 0, err
	}
	walProf := profile(spansFrom(tr.snapshot(), cut))["wal"]
	attempted, failed = int64(len(lat.d)), f

	bo := store.BuildOptions{}
	h := live.New(store.LoadTriples(seedTriples, bo), nil, bo)
	h.SetAutoReconcile(autoReconcile)
	cut = int64(time.Since(tr.epoch) + e.warmup)
	lat, _, f = writeLoop(e, window, 0, func(_, _ int, batch []rdf.Triple) error {
		req := tr.newReq()
		root := tr.beginOp(req, "apply")
		defer root.end()
		sp := tr.begin(req, root.id(), "live.apply")
		_, err := h.Apply(0, batch, nil)
		sp.end()
		return err
	})
	h.Quiesce()
	spans := tr.snapshot()
	applyProf := profile(spansFrom(spans, cut))["apply"]
	attempted, failed = attempted+int64(len(lat.d)), failed+f

	if walProf != nil && applyProf != nil {
		m["wal.enqueue_us"] = us(walProf.Self["wal.enqueue"])
		m["wal.commit_wait_ms"] = ms(walProf.Self["wal.commit_wait"])
		m["live.apply_us"] = us(applyProf.Self["live.apply"])
		layers := walProf.Self["wal.enqueue"] + walProf.Self["wal.commit_wait"] + applyProf.Self["live.apply"]
		plain := untraced.P50ms * float64(time.Millisecond)
		m["trace_coverage"] = share(float64(layers), plain)
		m["trace_overhead"] = share(float64(walProf.Root+applyProf.Root), plain)
	}
	return attempted, failed, writeSpans(e.outDir, e.workload, spans)
}

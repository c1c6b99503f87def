package core

import (
	"errors"

	"parj/internal/optimizer"
	"parj/internal/store"
)

// errStreamUnsupported rejects streaming of queries whose semantics need
// buffering.
var errStreamUnsupported = errors.New("core: ExecuteStream does not support DISTINCT or LIMIT (they require buffering; use Execute)")

// ExecuteStream runs plan like Execute but delivers projected rows to sink
// as they are produced, instead of buffering them per worker. This is the
// paper's full-result-handling design (§5.2): PARJ streams rows to the
// coordinating thread through an iterator-like channel rather than keeping
// every worker's results in memory — the reason it survives the 1.6-billion
// row IL-3-8 query where TriAD runs out of memory.
//
// sink runs on a single collector goroutine (no synchronization needed
// inside it) and returns false to cancel the query early. The returned
// count is the number of rows delivered (before DISTINCT/LIMIT semantics;
// those require buffering and are rejected).
//
// Row slices are owned by the callback for the duration of the call only;
// copy them to retain.
func ExecuteStream(st *store.Store, plan *optimizer.Plan, opts Options, sink func(row []uint32) bool) (int64, error) {
	if plan.Distinct || plan.Limit > 0 {
		return 0, errStreamUnsupported
	}
	x, err := prepare(st, plan, &opts, 0, -1)
	if err != nil {
		return 0, err
	}
	defer x.gov.ReleasePool()
	if x.constant {
		sink(make([]uint32, len(plan.Project)))
		return 1, nil
	}

	// Workers push row batches into a channel; one collector drains it.
	// Batching keeps channel traffic off the per-row hot path, and two
	// batches of buffer per worker let production overlap delivery. A
	// cancelled consumer poisons the scheduler (see drainMorsel), so stealers
	// stop promptly instead of re-claiming the abandoned tails of a dead
	// query.
	const batchSize = 256
	rowCh := make(chan [][]uint32, x.nworkers*2)
	cancel := make(chan struct{})
	s := x.launch(func(k *streamSink) { k.init(rowCh, cancel, batchSize) })
	go func() {
		s.wg.Wait()
		close(rowCh)
	}()

	var count int64
	stopped := false
	stop := func() {
		if !stopped {
			stopped = true
			close(cancel)
		}
	}
	for batch := range rowCh {
		if stopped {
			continue // drain so workers don't block on a full channel
		}
		if !x.gov.Check() {
			// A worker tripped a governance check (or the context expired
			// while the collector was idle): stop delivery, then keep
			// draining so workers unwind.
			stop()
			continue
		}
		for _, row := range batch {
			if !sink(row) {
				stop()
				break
			}
			count++
		}
	}
	if err := x.gov.Err(); err != nil {
		return count, err
	}
	return count, nil
}

// streamSink accumulates rows into batches and ships them to the collector.
type streamSink struct {
	ch     chan [][]uint32
	cancel chan struct{}
	batch  [][]uint32
	closed bool
}

// init sets the sink up in place — it lives inside its worker's guarded
// struct — with an isolated batch buffer of the given capacity.
func (s *streamSink) init(ch chan [][]uint32, cancel chan struct{}, batch int) {
	*s = streamSink{ch: ch, cancel: cancel, batch: isolated[[]uint32](batch)[:0]}
}

// push hands one row to the collector; returns false once the consumer has
// cancelled.
func (s *streamSink) push(row []uint32) bool {
	if s.closed {
		return false
	}
	s.batch = append(s.batch, row)
	if len(s.batch) < cap(s.batch) {
		return true
	}
	return s.flush()
}

func (s *streamSink) flush() bool {
	if s.closed || len(s.batch) == 0 {
		return !s.closed
	}
	select {
	case s.ch <- s.batch:
		s.batch = isolated[[]uint32](cap(s.batch))[:0]
		return true
	case <-s.cancel:
		s.closed = true
		return false
	}
}

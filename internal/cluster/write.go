package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"parj/internal/remote"
	"parj/internal/resilience"
	"parj/internal/wal"
)

// write.go — the coordinator's side of the live write path.
//
// The coordinator is the single sequencer of the cluster write stream:
// Write serializes batches under writeMu, stamps each with the next
// sequence number, appends it to the replay log, and fans it out to every
// current replica endpoint of the routing table. Replicas apply batches in
// identical order with deletes before inserts, which keeps their
// append-only dictionaries — and therefore their dictionary-encoded shard
// results — byte-identical.
//
// Fault model: a replica that misses a batch (killed mid-burst, network
// cut, a sequence gap, or already past it) is fenced: its stale flag is set
// under writeMu, so queries stop landing on its stale store while its group
// has a current replica, and later batches skip it. The batch itself still
// commits on the current replicas. The replay log is one wal.Log in every
// configuration (durable on disk, or volatile on a wal.MemFS), so a replica
// that comes back at its URL (restarted, or a fresh node warmed from a peer
// snapshot that embeds its write-stream position) is caught up by Resync —
// replaying exactly the log suffix it does not hold — and Resync is the
// only way it is readmitted.

// defaultRetain is the replay span kept when WriteOptions.Retain is zero.
const defaultRetain = 1024

// ErrLogTruncated reports a resync target that is further behind than the
// replay log reaches (WriteOptions.Retain); the replica must warm from a
// peer snapshot first.
var ErrLogTruncated = errors.New("cluster: replica behind truncated write log")

// ErrReplicaAhead reports a replica whose write stream is ahead of the
// coordinator's: it acknowledged a batch at a sequence other than the
// batch's own (it took the batch for a replay and dropped it), or Resync
// found it past the coordinator's head. Its store holds batches this
// coordinator has no record of — typically a coordinator restarted without
// its log — so the two streams have forked. The verdict is sticky: from
// then on every Write and Resync of this Remote fails with it, since
// sequence numbers alone cannot tell the forked batches apart. Recovery is
// an operator's call: a coordinator on the log the fleet was written from,
// or a fleet rebuilt from this coordinator's stream.
var ErrReplicaAhead = errors.New("cluster: replica ahead of the coordinator's write stream")

// openWriteLog opens the coordinator's replay log: on opts.Dir / opts.FS
// when durable — recovering the sequencer position a previous process left
// there — and on a fresh in-memory filesystem without fsyncs otherwise.
// Log.Clock is never settable (the coordinator's clock drives the log), and
// a volatile log never fsyncs, so setting either is refused, not ignored.
func openWriteLog(opts wal.Options, clock resilience.Clock) (*wal.Log, error) {
	if opts.Clock != nil {
		return nil, errors.New("cluster: WriteOptions.Log.Clock is set; RemoteOptions.Clock drives the log")
	}
	if opts.Dir == "" && opts.FS == nil {
		if opts.Sync != wal.SyncAlways || opts.Interval != 0 {
			return nil, errors.New("cluster: WriteOptions.Log.Sync/Interval need Log.Dir or Log.FS; a volatile log never fsyncs")
		}
		opts.FS, opts.Sync = wal.NewMemFS(), wal.SyncNever
	}
	opts.Clock = clock
	l, err := wal.Open(opts)
	if err != nil {
		return nil, fmt.Errorf("cluster: open write log: %w", err)
	}
	return l, nil
}

// WriteSeq reports the last committed write-batch sequence number.
func (r *Remote) WriteSeq() uint64 {
	r.writeMu.Lock()
	defer r.writeMu.Unlock()
	return r.wlog.LastSeq()
}

// Write commits one write batch to the cluster: it assigns the next
// sequence number, appends the batch to the replay log, and fans it out to
// every current (not stale) replica endpoint. Endpoints that fail to apply
// the batch — or acknowledge it at another sequence (ErrReplicaAhead) — are
// marked stale, so queries stop reading their stores; the returned error is
// non-nil only while some shard group has no current replica left. The
// batch is still committed on the current replicas and recorded in the log
// either way, so a recovered replica can be caught up with Resync. Once any
// replica has been found ahead, Write refuses every batch with
// ErrReplicaAhead before it takes a sequence number.
func (r *Remote) Write(ctx context.Context, inserts, deletes []remote.Triple) (uint64, error) {
	r.writeMu.Lock()
	defer r.writeMu.Unlock()
	if r.forked != nil {
		return 0, fmt.Errorf("cluster: write refused: %w", r.forked)
	}
	batch := wal.Record{Seq: r.wlog.LastSeq() + 1, Inserts: inserts, Deletes: deletes}

	// The log first: the batch reaches the journal — and its fsync policy,
	// when durable — before any replica sees it, so a coordinator crash can
	// never leave a replica holding a sequence number the restarted
	// coordinator has no record of. A failed append rejects the write
	// outright: nothing fanned out, the sequence did not advance.
	if err := r.wlog.Append(batch); err != nil {
		return 0, fmt.Errorf("cluster: write log append %d: %w", batch.Seq, err)
	}

	errs := r.fanOut(func(st *endpointState) error {
		resp, err := st.client.Write(ctx, &batch)
		if err == nil && resp.Seq != batch.Seq {
			err = fmt.Errorf("%w: %s acknowledged batch %d at seq %d", ErrReplicaAhead, st.url, batch.Seq, resp.Seq)
		}
		return err
	})

	// Retention: drop log segments wholly behind the replay span. Best
	// effort — a failed prune costs space, not correctness.
	if retain := r.opts.Write.Retain; batch.Seq > retain {
		r.wlog.Prune(batch.Seq - retain)
	}

	for i, err := range errs {
		if err != nil {
			r.endpoints[i].stale.Store(true)
			if r.forked == nil && errors.Is(err, ErrReplicaAhead) {
				r.forked = err
			}
		}
	}
	// A group with no current replica keeps routing to its stale ones (it
	// would be unroutable otherwise); every write reports it until Resync.
	var soleStale []string
	for s, group := range r.groups {
		if allStale(group) {
			soleStale = append(soleStale, fmt.Sprintf("group %d: %v", s, r.opts.Replicas[s]))
		}
	}
	if len(soleStale) == 0 {
		return batch.Seq, nil
	}
	err := fmt.Errorf("cluster: write missed sole replicas (%v); resync required", soleStale)
	if r.forked != nil {
		err = fmt.Errorf("%w: %w", r.forked, err)
	}
	return batch.Seq, err
}

// allStale reports whether every replica of group is stale.
func allStale(group []*endpointState) bool {
	for _, st := range group {
		if !st.stale.Load() {
			return false
		}
	}
	return true
}

// fanOut calls do on every current endpoint concurrently and returns the
// errors indexed like r.endpoints (nil for stale endpoints, which it skips).
func (r *Remote) fanOut(do func(st *endpointState) error) []error {
	errs := make([]error, len(r.endpoints))
	var wg sync.WaitGroup
	for i, st := range r.endpoints {
		if st.stale.Load() {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = do(st)
		}()
	}
	wg.Wait()
	return errs
}

// Resync catches a replica up with the write stream: it reads the
// replica's applied sequence from /statz and replays the missing log
// suffix in order. The write stream is held still for the duration, so a
// successful resync leaves the replica exactly current; for an endpoint of
// the routing table it also clears the stale fence before the stream moves
// again, so the next batch reaches it and queries route to it. Any other
// URL is caught up the same way, with no effect on routing.
// Returns ErrLogTruncated when the replica is further behind than the log
// reaches (it must warm from a peer snapshot, which embeds a newer stream
// position, and try again), and ErrReplicaAhead when it is past the
// coordinator's head or any replica has been found ahead before.
func (r *Remote) Resync(ctx context.Context, endpoint string) error {
	st := r.endpoint(endpoint)
	var client *remote.Client
	if st != nil {
		client = st.client
	} else {
		client = remote.NewClient(endpoint, 0)
		defer client.Close()
	}
	sz, err := client.Statz(ctx)
	if err != nil {
		return err
	}

	r.writeMu.Lock()
	defer r.writeMu.Unlock()
	head := r.wlog.LastSeq()
	switch from := sz.WriteSeq + 1; {
	case r.forked != nil:
		return fmt.Errorf("cluster: resync %s refused: %w", endpoint, r.forked)
	case sz.WriteSeq > head:
		r.forked = fmt.Errorf("%w: replica %s at %d, coordinator at %d", ErrReplicaAhead, endpoint, sz.WriteSeq, head)
		return r.forked
	case sz.WriteSeq == head:
	case from < r.wlog.FirstSeq():
		return fmt.Errorf("%w: replica at %d, log starts at %d", ErrLogTruncated, sz.WriteSeq, r.wlog.FirstSeq())
	default:
		err := r.wlog.Replay(from, func(batch wal.Record) error {
			_, err := client.Write(ctx, &batch)
			return err
		})
		if err != nil {
			return fmt.Errorf("cluster: resync %s: %w", endpoint, err)
		}
	}
	if st != nil {
		st.stale.Store(false)
	}
	return nil
}

// WriteLog reports the replay log's span and durable position: LastSeq is
// the sequencer head, FirstSeq the oldest batch Resync can still replay.
func (r *Remote) WriteLog() wal.Stats { return r.wlog.Stats() }

// ReconcileAll forces a synchronous reconciliation on every current
// replica endpoint, so pending deltas everywhere are merged into fresh base
// stores. Stale endpoints are skipped: Resync comes first for them.
func (r *Remote) ReconcileAll(ctx context.Context) error {
	return errors.Join(r.fanOut(func(st *endpointState) error {
		_, err := st.client.Reconcile(ctx)
		return err
	})...)
}

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
// distinct replica endpoint of the pinned routing epoch. Replicas apply
// batches in identical order with deletes before inserts, which keeps their
// append-only dictionaries — and therefore their dictionary-encoded shard
// results — byte-identical.
//
// Fault model: a replica that misses a batch (killed mid-burst, network
// cut, or already past it) is removed from the routing table so queries
// stop landing on its stale store; the batch itself still commits on the
// surviving replicas. The replay log is one wal.Log in every configuration
// (durable on disk, or volatile on a wal.MemFS), so a replica that comes
// back (or a fresh one warmed from a peer snapshot that embeds its
// write-stream position) is caught up by Resync — replaying exactly the log
// suffix the snapshot does not contain — before it is re-admitted.

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
// every distinct replica endpoint. Endpoints that fail to apply the batch —
// or acknowledge it at another sequence (ErrReplicaAhead) — are removed
// from the routing table (queries must not read their stale stores); the
// returned error is non-nil only when some shard group would be left with
// no current replica. The batch is still committed on the survivors and
// recorded in the log either way, so a recovered replica can be caught up
// with Resync. Once any replica has been found ahead, Write refuses every
// batch with ErrReplicaAhead before it takes a sequence number.
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

	ep := r.pin()
	defer r.unpin(ep)
	targets := distinctEndpoints(ep.replicas)
	errs := make([]error, len(targets))
	var wg sync.WaitGroup
	for i, target := range targets {
		client := r.endpointClient(target)
		if client == nil {
			continue // retired between pin and now; nothing to apply
		}
		wg.Add(1)
		go func(i int, c *remote.Client) {
			defer wg.Done()
			resp, err := c.Write(ctx, &batch)
			if err == nil && resp.Seq != batch.Seq {
				err = fmt.Errorf("%w: %s acknowledged batch %d at seq %d", ErrReplicaAhead, targets[i], batch.Seq, resp.Seq)
			}
			errs[i] = err
		}(i, client)
	}
	wg.Wait()

	// Retention: drop log segments wholly behind the replay span. Best
	// effort — a failed prune costs space, not correctness.
	if retain := r.opts.Write.Retain; batch.Seq > retain {
		r.wlog.Prune(batch.Seq - retain)
	}

	var failed []string
	for i, err := range errs {
		if err != nil {
			failed = append(failed, targets[i])
			if r.forked == nil && errors.Is(err, ErrReplicaAhead) {
				r.forked = err
			}
		}
	}
	if len(failed) == 0 {
		return batch.Seq, nil
	}
	err := r.evictStale(ctx, failed)
	if err != nil && r.forked != nil {
		err = fmt.Errorf("%w: %w", r.forked, err)
	}
	return batch.Seq, err
}

// evictStale removes endpoints that missed a write batch from every shard
// group that retains at least one other replica. An endpoint that is the
// sole replica of some group cannot be removed (the group would be
// unroutable); that is reported as an error — the group is serving a stale
// store until the replica is resynced.
func (r *Remote) evictStale(ctx context.Context, failed []string) error {
	stale := make(map[string]bool, len(failed))
	for _, ep := range failed {
		stale[ep] = true
	}
	var soleStale []string
	_, err := r.mutate(ctx, func(replicas [][]string) ([][]string, error) {
		soleStale = nil
		changed := false
		for s, reps := range replicas {
			kept := reps[:0]
			for _, ep := range reps {
				if !stale[ep] {
					kept = append(kept, ep)
				}
			}
			if len(kept) == 0 {
				// Removing every replica would orphan the group; keep it
				// as-is and surface the staleness.
				soleStale = append(soleStale, fmt.Sprintf("group %d: %v", s, reps))
				continue
			}
			if len(kept) != len(reps) {
				changed = true
				replicas[s] = kept
			}
		}
		if !changed {
			return nil, nil
		}
		return replicas, nil
	})
	var errs []error
	if err != nil {
		errs = append(errs, fmt.Errorf("cluster: evicting stale replicas %v: %w", failed, err))
	}
	if len(soleStale) > 0 {
		errs = append(errs, fmt.Errorf("cluster: write missed sole replicas (%v); resync required", soleStale))
	}
	return errors.Join(errs...)
}

// Resync catches a replica up with the write stream: it reads the
// replica's applied sequence from /statz and replays the missing log
// suffix in order. The write stream is held still for the duration, so a
// successful resync leaves the replica exactly current — ready for
// AddReplica. Returns ErrLogTruncated when the replica is further behind
// than the log reaches (it must warm from a peer snapshot, which embeds a
// newer stream position, and try again), and ErrReplicaAhead when it is
// past the coordinator's head or any replica has been found ahead before.
func (r *Remote) Resync(ctx context.Context, endpoint string) error {
	client := r.endpointClient(endpoint)
	if client == nil {
		// Not (or no longer) in the routing table — a rejoining node.
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
		return nil
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
		return nil
	}
}

// WriteLog reports the replay log's span and durable position: LastSeq is
// the sequencer head, FirstSeq the oldest batch Resync can still replay.
func (r *Remote) WriteLog() wal.Stats { return r.wlog.Stats() }

// ReconcileAll forces a synchronous reconciliation on every distinct
// replica endpoint of the current epoch, so pending deltas everywhere are
// merged into fresh base stores.
func (r *Remote) ReconcileAll(ctx context.Context) error {
	ep := r.pin()
	defer r.unpin(ep)
	targets := distinctEndpoints(ep.replicas)
	errs := make([]error, len(targets))
	var wg sync.WaitGroup
	for i, target := range targets {
		client := r.endpointClient(target)
		if client == nil {
			continue
		}
		wg.Add(1)
		go func(i int, c *remote.Client) {
			defer wg.Done()
			_, err := c.Reconcile(ctx)
			errs[i] = err
		}(i, client)
	}
	wg.Wait()
	return errors.Join(errs...)
}

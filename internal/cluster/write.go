package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"parj/internal/rdf"
	"parj/internal/remote"
	"parj/internal/wal"
)

// write.go — the coordinator's side of the live write path.
//
// The coordinator is the single sequencer of the cluster write stream:
// Write serializes batches under writeMu, stamps each with the next
// sequence number, and fans it out to every distinct replica endpoint of
// the pinned routing epoch. Replicas apply batches in identical order with
// deletes before inserts, which keeps their append-only dictionaries —
// and therefore their dictionary-encoded shard results — byte-identical.
//
// Fault model: a replica that misses a batch (killed mid-burst, network
// cut) is removed from the routing table so queries stop landing on its
// stale store; the batch itself still commits on the surviving replicas.
// The coordinator keeps a bounded replay log, so a replica that comes back
// (or a fresh one warmed from a peer snapshot that embeds its write-stream
// position) is caught up by Resync — replaying exactly the log suffix the
// snapshot does not contain — before it is re-admitted.

// defaultWriteLogCap bounds the in-memory replay cache when
// WriteOptions.ReplayLogSize is zero.
const defaultWriteLogCap = 1024

// ErrLogTruncated reports a resync target that is further behind than the
// replay log reaches; the replica must warm from a peer snapshot first.
// With a WAL attached this only happens past the WAL's own retention
// (WriteOptions.WALRetainBatches).
var ErrLogTruncated = errors.New("cluster: replica behind truncated write log")

// recoverWriteLog opens the coordinator's write-ahead log and restores the
// sequencer position and the in-memory replay cache from it, so the write
// stream continues where the previous coordinator process stopped instead
// of forking back to sequence 1.
func (r *Remote) recoverWriteLog() error {
	w := r.opts.Write
	l, err := wal.Open(wal.Options{
		Dir:          w.WALDir,
		FS:           w.WALFS,
		Sync:         w.WALSync,
		Interval:     w.WALSyncInterval,
		SegmentBytes: w.WALSegmentBytes,
	})
	if err != nil {
		return fmt.Errorf("cluster: open write wal: %w", err)
	}
	cap := w.ReplayLogSize
	if cap <= 0 {
		cap = defaultWriteLogCap
	}
	last := l.LastSeq()
	from := l.FirstSeq()
	if last >= uint64(cap) && last-uint64(cap)+1 > from {
		from = last - uint64(cap) + 1
	}
	r.writeMu.Lock()
	defer r.writeMu.Unlock()
	r.wlog = l
	r.writeSeq = last
	if last == 0 {
		return nil
	}
	err = l.Replay(from, func(rec wal.Record) error {
		if r.logStart == 0 {
			r.logStart = rec.Seq
		}
		r.writeLog = append(r.writeLog, WriteBatch{
			Seq:     rec.Seq,
			Inserts: remoteTriples(rec.Inserts),
			Deletes: remoteTriples(rec.Deletes),
		})
		return nil
	})
	if err != nil {
		l.Close()
		r.wlog = nil
		return fmt.Errorf("cluster: recover write wal: %w", err)
	}
	return nil
}

func rdfTriples(ts []remote.Triple) []rdf.Triple {
	if len(ts) == 0 {
		return nil
	}
	out := make([]rdf.Triple, len(ts))
	for i, t := range ts {
		out[i] = rdf.Triple{S: t.S, P: t.P, O: t.O}
	}
	return out
}

func remoteTriples(ts []rdf.Triple) []remote.Triple {
	if len(ts) == 0 {
		return nil
	}
	out := make([]remote.Triple, len(ts))
	for i, t := range ts {
		out[i] = remote.Triple{S: t.S, P: t.P, O: t.O}
	}
	return out
}

// WriteSeq reports the last committed write-batch sequence number.
func (r *Remote) WriteSeq() uint64 {
	r.writeMu.Lock()
	defer r.writeMu.Unlock()
	return r.writeSeq
}

// Write commits one write batch to the cluster: it assigns the next
// sequence number, appends the batch to the replay log, and fans it out to
// every distinct replica endpoint. Endpoints that fail to apply the batch
// are removed from the routing table (queries must not read their stale
// stores); the returned error is non-nil only when some shard group would
// be left with no current replica — the batch is still committed on the
// survivors and recorded in the log either way, so a recovered replica can
// be caught up with Resync.
func (r *Remote) Write(ctx context.Context, inserts, deletes []remote.Triple) (uint64, error) {
	r.writeMu.Lock()
	defer r.writeMu.Unlock()
	seq := r.writeSeq + 1
	batch := WriteBatch{Seq: seq, Inserts: inserts, Deletes: deletes}

	// Durability first: the batch reaches the journal — and its fsync
	// policy — before any replica sees it, so a coordinator crash can
	// never leave a replica holding a sequence number the restarted
	// coordinator has no record of. A failed append rejects the write
	// outright: nothing fanned out, the sequence did not advance.
	if r.wlog != nil {
		rec := wal.Record{Seq: seq, Inserts: rdfTriples(inserts), Deletes: rdfTriples(deletes)}
		if err := r.wlog.Append(rec); err != nil {
			return 0, fmt.Errorf("cluster: write wal append %d: %w", seq, err)
		}
	}

	ep := r.pin()
	defer r.unpin(ep)
	req := &remote.WriteRequest{Seq: seq, Inserts: inserts, Deletes: deletes}
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
			_, err := c.Write(ctx, req)
			errs[i] = err
		}(i, client)
	}
	wg.Wait()

	// Commit: the batch is recorded in the replay log even if some replica
	// failed — sequence numbers never fork.
	r.writeSeq = seq
	if r.logStart == 0 {
		r.logStart = seq
	}
	r.writeLog = append(r.writeLog, batch)
	logCap := r.opts.Write.ReplayLogSize
	if logCap <= 0 {
		logCap = defaultWriteLogCap
	}
	if over := len(r.writeLog) - logCap; over > 0 {
		r.writeLog = append([]WriteBatch(nil), r.writeLog[over:]...)
		r.logStart += uint64(over)
	}
	// Retention: drop WAL segments wholly behind the configured span.
	// Best effort — a failed prune costs disk, not correctness.
	if r.wlog != nil {
		if retain := r.opts.Write.WALRetainBatches; retain > 0 && seq > retain {
			r.wlog.Prune(seq - retain)
		}
	}

	var failed []string
	for i, err := range errs {
		if err != nil {
			failed = append(failed, targets[i])
		}
	}
	if len(failed) == 0 {
		return seq, nil
	}
	return seq, r.evictStale(ctx, failed)
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
// AddReplica. Returns ErrLogTruncated when the replica is too far behind
// for the bounded log; it must warm from a peer snapshot (which embeds a
// newer stream position) and try again.
func (r *Remote) Resync(ctx context.Context, endpoint string) error {
	client := r.endpointClient(endpoint)
	owned := false
	if client == nil {
		// Not (or no longer) in the routing table — a rejoining node.
		client = remote.NewClient(endpoint, 0)
		owned = true
	}
	if owned {
		defer client.Close()
	}
	sz, err := client.Statz(ctx)
	if err != nil {
		return err
	}

	r.writeMu.Lock()
	defer r.writeMu.Unlock()
	if sz.WriteSeq >= r.writeSeq {
		return nil
	}
	from := sz.WriteSeq + 1
	if from < r.logStart || r.logStart == 0 {
		// Behind the in-memory cache: fall back to the write-ahead log,
		// which reaches further into the past (up to its retention).
		if r.wlog != nil {
			if first := r.wlog.FirstSeq(); first != 0 && from >= first {
				err := r.wlog.Replay(from, func(rec wal.Record) error {
					req := &remote.WriteRequest{
						Seq:     rec.Seq,
						Inserts: remoteTriples(rec.Inserts),
						Deletes: remoteTriples(rec.Deletes),
					}
					_, werr := client.Write(ctx, req)
					return werr
				})
				if err != nil {
					return fmt.Errorf("cluster: resync %s from wal: %w", endpoint, err)
				}
				return nil
			}
			return fmt.Errorf("%w: replica at %d, wal starts at %d", ErrLogTruncated, sz.WriteSeq, r.wlog.FirstSeq())
		}
		return fmt.Errorf("%w: replica at %d, log starts at %d", ErrLogTruncated, sz.WriteSeq, r.logStart)
	}
	for _, batch := range r.writeLog[from-r.logStart:] {
		req := &remote.WriteRequest{Seq: batch.Seq, Inserts: batch.Inserts, Deletes: batch.Deletes}
		if _, err := client.Write(ctx, req); err != nil {
			return fmt.Errorf("cluster: resync %s at batch %d: %w", endpoint, batch.Seq, err)
		}
	}
	return nil
}

// WriteLogStats describes the replay log's span: the in-memory cache, the
// WAL position behind it (zero when the coordinator is volatile), and the
// sequencer head. Cluster health surfaces use it the way /statz surfaces a
// node's WAL fields.
type WriteLogStats struct {
	Seq        uint64 `json:"seq"`             // last committed batch
	CacheStart uint64 `json:"cache_start"`     // oldest cached batch (0 = empty)
	CacheLen   int    `json:"cache_len"`       // cached batches
	WALEnabled bool   `json:"wal_enabled"`     // write-ahead log attached
	WALFirst   uint64 `json:"wal_first_seq"`   // oldest journaled batch
	WALDurable uint64 `json:"wal_durable_seq"` // last fsync-covered batch
	WALSegs    int    `json:"wal_segments"`    // live segment files
}

// WriteLog reports the replay log's current span.
func (r *Remote) WriteLog() WriteLogStats {
	r.writeMu.Lock()
	defer r.writeMu.Unlock()
	s := WriteLogStats{Seq: r.writeSeq, CacheStart: r.logStart, CacheLen: len(r.writeLog)}
	if r.wlog != nil {
		ws := r.wlog.Stats()
		s.WALEnabled = true
		s.WALFirst = ws.FirstSeq
		s.WALDurable = ws.DurableSeq
		s.WALSegs = ws.Segments
	}
	return s
}

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

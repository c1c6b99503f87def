// Package live turns the immutable PARJ store into a mutable one without
// touching the engine's hot paths. It is the epoch machinery of the write
// path:
//
//   - Writes accumulate in a store.Delta (sorted adds and tombstones per
//     predicate, mirroring the CSR layout). Every write batch publishes a
//     new View — an immutable pair (base store, frozen delta) plus a
//     monotonically increasing version.
//   - Queries pin one View for their whole plan+execute lifetime. A view
//     with an empty delta hands back the base store unchanged, so read-only
//     workloads pay exactly one atomic load and one branch per query — the
//     probe loops never see an overlay. A view with pending writes lazily
//     materializes the merged effective store (base ∖ dels ∪ adds) once,
//     memoized, and the whole engine — optimizer, pipeline, WCOJ, morsel
//     scheduler — runs on it unchanged, which is what makes the mutable
//     store oracle-exact by construction.
//   - Materializing carries forward: the handle remembers the most recently
//     materialized view, and a later view over the same base merges only the
//     difference between the two frozen deltas into that view's tables
//     (store.CarryForward), so a read pays for the batches written since
//     the last read, not for everything pending. The first view of an
//     epoch, and a reader pinned to a view older than the remembered one,
//     start from the base with the same routine. The memo is one pointer on
//     the handle, not a chain through the views: a view never references
//     its predecessor, so old epochs are collectable as soon as no query
//     pins them, and the extra memory held is one merged copy of the
//     predicates written since the last reconcile.
//   - A reconciler (synchronous via Reconcile, or a background goroutine
//     once the pending-op threshold is crossed) promotes the memoized merge
//     to the new base, prunes the delta that accumulated meanwhile down to
//     its residual, atomically swaps the epoch and forgets the remembered
//     view, which belongs to the epoch just retired. In-flight queries keep
//     their pinned views alive through the garbage collector — the same
//     pattern internal/cluster/topology.go uses for routing epochs.
//
// View.Plan and View.Query are the plan and run steps every front door (the
// root Store and Prepared, a node's /query and /exec) takes on the one view
// it pinned.
//
// The dictionaries are shared across all epochs and append-only: IDs are
// stable forever, so a snapshot, a replica replay, or an old view can never
// see a term's ID change under it.
package live

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"parj/internal/core"
	"parj/internal/optimizer"
	"parj/internal/rdf"
	"parj/internal/rdfs"
	"parj/internal/sparql"
	"parj/internal/stats"
	"parj/internal/store"
	"parj/internal/wal"
)

// ErrSeqGap reports a sequenced write that would skip ahead of the locally
// applied write stream — the replica missed at least one batch and must be
// resynced (warm-from + replay) before it can serve again.
var ErrSeqGap = errors.New("live: write sequence gap")

// View is one immutable epoch of the store: a base CSR store plus a frozen
// delta overlay. Safe for concurrent use; queries pin one view for both
// planning and execution so constants, plans and statistics agree.
type View struct {
	version uint64
	seq     uint64
	base    *store.Store
	delta   *store.Delta
	bstats  *stats.Stats
	h       *Handle

	once   sync.Once
	eff    *store.Store
	estats *stats.Stats

	hierOnce sync.Once
	hier     *rdfs.Hierarchy
}

// Version is the monotonically increasing epoch number; it advances on
// every published write batch and every reconciliation. Prepared queries
// replan when it moves.
func (v *View) Version() uint64 { return v.version }

// Seq is the last applied write-batch sequence number.
func (v *View) Seq() uint64 { return v.seq }

// Pending reports the write verdicts not yet reconciled into the base.
func (v *View) Pending() int { return v.delta.Ops() }

// Store returns the effective store of this epoch. With no pending writes
// this is the base store itself — the zero-cost read-only path. Otherwise
// the merged store is materialized once and memoized; concurrent callers
// share the materialization.
func (v *View) Store() *store.Store {
	if v.delta.Empty() {
		return v.base
	}
	v.materialize()
	return v.eff
}

// Stats returns optimizer statistics consistent with Store().
func (v *View) Stats() *stats.Stats {
	if v.delta.Empty() {
		return v.bstats
	}
	v.materialize()
	return v.estats
}

// Hierarchy returns the RDFS class and property closures of Store(),
// derived on first use: writes can add schema triples, so an entailment
// query must expand against the hierarchy of the view it pinned.
func (v *View) Hierarchy() *rdfs.Hierarchy {
	v.hierOnce.Do(func() { v.hier = rdfs.New(v.Store(), "", "", "") })
	return v.hier
}

// Plan optimizes the parsed query q against this view's store and
// statistics, expanding patterns through Hierarchy under entailment. Run the
// plan on this same view (Query) so constants, statistics and the executed
// tables agree however many writes land meanwhile.
func (v *View) Plan(q *sparql.Query, entail bool) (*optimizer.Plan, error) {
	var x optimizer.Expander
	if entail {
		x = v.Hierarchy()
	}
	return optimizer.OptimizeExpanded(q, v.Store(), v.Stats(), x)
}

// Query runs plan, made by Plan on this view, over the full shard range and
// decodes its rows unless opts.Silent. ORDER BY and OFFSET need the whole
// decoded result, so such a query runs an un-limited, materialized copy of
// plan (a prepared plan is shared) and applies q's solution modifiers; the
// returned Count is then what is left of the rows, and Result.Rows holds
// them before the modifiers. A failed execution that had started returns
// its partial Result beside the error, but never rows.
func (v *View) Query(q *sparql.Query, plan *optimizer.Plan, opts core.Options) (*core.Result, [][]string, error) {
	st, silent := v.Store(), opts.Silent
	if q.Buffered() {
		unlimited := *plan
		unlimited.Limit = 0
		plan, opts.Silent = &unlimited, false
	}
	res, err := core.Execute(st, plan, opts)
	if err != nil || opts.Silent {
		return res, nil, err
	}
	rows := res.StringRows(st)
	if q.Buffered() {
		rows = q.Modifiers(res.Vars, rows)
		res.Count = int64(len(rows))
	}
	if silent {
		rows = nil
	}
	return res, rows, nil
}

// Base returns the epoch's base store without materializing the overlay.
func (v *View) Base() *store.Store { return v.base }

// ApproxTriples estimates the effective triple count without forcing a
// merge: base plus net adds minus net tombstones. Exact when no writes are
// pending; under pending deltas an add already present in the base (or a
// tombstone absent from it) skews it until the next reconcile. Health
// endpoints use this so a monitoring probe never pays for a merge.
func (v *View) ApproxTriples() int {
	adds, dels := v.delta.Counts()
	return v.base.NumTriples() + adds - dels
}

// materialize merges the view's delta once. It starts from the handle's
// most recently materialized view when that one is an earlier version over
// the same base — its tables plus the difference of the two deltas — and
// from the base itself otherwise, then becomes the remembered view unless
// a later one already is.
func (v *View) materialize() {
	v.once.Do(func() {
		prev, from, pstats := v.base, (*store.Delta)(nil), v.bstats
		if m := v.h.memo.Load(); m != nil && m.base == v.base && m.version < v.version {
			prev, from, pstats = m.eff, m.delta, m.estats
		}
		v.eff = store.CarryForward(prev, from, v.delta, v.h.opts)
		v.estats = stats.NewDerived(v.eff, pstats)
		for {
			m := v.h.memo.Load()
			if (m != nil && m.version > v.version) || v.h.memo.CompareAndSwap(m, v) {
				break
			}
		}
	})
}

// Handle is the mutable façade over a chain of immutable views. All writes
// are serialized through it; reads are a single atomic pointer load.
type Handle struct {
	opts store.BuildOptions

	mu  sync.Mutex // serializes writers and view publication
	seq uint64
	cur atomic.Pointer[View]

	// memo is the most recently materialized view: where the next
	// materialization over the same base starts from.
	memo atomic.Pointer[View]

	recMu sync.Mutex // serializes reconciliations

	autoOps atomic.Int64 // pending-op threshold for background reconcile; 0 = off
	wg      sync.WaitGroup

	wal *wal.Log // nil when the handle is volatile
}

// New wraps a built store. ss may be nil (statistics are then computed
// here). Merged tables keep the physical shape (search windows, position
// index) of the tables they replace; opts shapes only the tables of
// predicates a write introduces, and store.InferBuildOptions recovers the
// index choice for those from the store itself.
func New(base *store.Store, ss *stats.Stats, opts store.BuildOptions) *Handle {
	if ss == nil {
		ss = stats.New(base)
	}
	h := &Handle{opts: opts}
	h.cur.Store(&View{version: 1, base: base, delta: &store.Delta{}, bstats: ss, h: h})
	return h
}

// View returns the current epoch. Callers must use one View per query for
// both planning and execution.
func (h *Handle) View() *View { return h.cur.Load() }

// Seq returns the last applied write-batch sequence number.
func (h *Handle) Seq() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.seq
}

// Pending reports the write verdicts awaiting reconciliation.
func (h *Handle) Pending() int { return h.View().Pending() }

// SeedSeq positions the handle in an existing write stream: a replica
// warmed from a peer snapshot that already contains batches up to seq
// resumes the stream there — the next Apply must carry seq+1. Only valid
// before any local writes.
func (h *Handle) SeedSeq(seq uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.seq != 0 || seq == 0 {
		return
	}
	h.seq = seq
	v := h.cur.Load()
	h.cur.Store(&View{
		version: v.version + 1,
		seq:     seq,
		base:    v.base,
		delta:   v.delta,
		bstats:  v.bstats,
		h:       h,
	})
}

// AttachWAL makes every subsequent Apply durable: the batch is enqueued
// to the log under the writer lock (preserving sequence order) and Apply
// returns only once the log's sync policy has acknowledged it. The
// handle must already be positioned after the log's last record — attach
// happens at the end of recovery, after SeedSeq and replay.
func (h *Handle) AttachWAL(l *wal.Log) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.wal = l
}

// WAL returns the attached log, or nil for a volatile handle.
func (h *Handle) WAL() *wal.Log {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.wal
}

// SetAutoReconcile arms (or, with 0, disarms) the background reconciler:
// once a published view carries at least ops pending verdicts, one
// goroutine merges the frozen delta into a fresh base and swaps the epoch.
// At most one background reconcile runs at a time.
func (h *Handle) SetAutoReconcile(ops int) { h.autoOps.Store(int64(ops)) }

// Quiesce blocks until any background reconciliation in flight has
// finished. Callers must stop issuing writes first.
func (h *Handle) Quiesce() { h.wg.Wait() }

// Apply records one write batch — deletes first, then inserts, the order
// every replica must share for dictionary determinism — and publishes the
// new view.
//
// seq sequences the batch for replication: 0 means "next" (the unsequenced
// single-node path), a value ≤ the applied sequence is an idempotent replay
// and a no-op, a value that would skip ahead returns ErrSeqGap. The applied
// sequence is returned.
//
// Deleting a triple containing a term the dictionary has never seen is a
// no-op (the triple cannot exist) and — deliberately — does not pollute the
// dictionary. Inserts encode new terms; the dictionaries are append-only
// and shared with every existing view, which is safe because an ID, once
// assigned, never changes.
//
// With a WAL attached the batch is logged before the view is published
// and Apply blocks until the log's sync policy acknowledges it. The
// enqueue happens under the writer lock (log order = sequence order) but
// the fsync wait happens outside it, so sequential writers coalesce into
// one group commit. A failed enqueue leaves handle state untouched; a
// failed fsync is returned after the view is already visible — the store
// has the write, durability does not, and the caller must treat the
// replica as failed (the log is sticky-poisoned from then on).
func (h *Handle) Apply(seq uint64, inserts, deletes []rdf.Triple) (uint64, error) {
	h.mu.Lock()
	switch {
	case seq == 0:
		seq = h.seq + 1
	case seq <= h.seq:
		cur := h.seq
		h.mu.Unlock()
		return cur, nil
	case seq != h.seq+1:
		cur := h.seq
		h.mu.Unlock()
		return cur, fmt.Errorf("%w: applied %d, got %d", ErrSeqGap, cur, seq)
	}
	var commit *wal.Commit
	if h.wal != nil {
		c, err := h.wal.Enqueue(wal.Record{Seq: seq, Inserts: inserts, Deletes: deletes})
		if err != nil {
			cur := h.seq
			h.mu.Unlock()
			return cur, fmt.Errorf("live: wal append %d: %w", seq, err)
		}
		commit = c
	}
	v := h.cur.Load()
	nd := v.delta.Clone()
	res, preds := v.base.Resources, v.base.Predicates
	for _, t := range deletes {
		s, p, o := res.Lookup(t.S), preds.Lookup(t.P), res.Lookup(t.O)
		if s == 0 || p == 0 || o == 0 {
			continue
		}
		nd.Delete(s, p, o)
	}
	// One lock per dictionary per batch; subjects and objects are encoded
	// in the order a triple-by-triple encode would assign them.
	n := len(inserts)
	terms, ids := make([]string, 3*n), make([]uint32, 3*n)
	for i, t := range inserts {
		terms[2*i], terms[2*i+1], terms[2*n+i] = t.S, t.O, t.P
	}
	res.EncodeAll(terms[:2*n], ids[:2*n])
	preds.EncodeAll(terms[2*n:], ids[2*n:])
	for i := range inserts {
		nd.Insert(ids[2*i], ids[2*n+i], ids[2*i+1])
	}
	h.seq = seq
	h.cur.Store(&View{
		version: v.version + 1,
		seq:     seq,
		base:    v.base,
		delta:   nd,
		bstats:  v.bstats,
		h:       h,
	})
	if n := h.autoOps.Load(); n > 0 && int64(nd.Ops()) >= n && h.recMu.TryLock() {
		h.wg.Add(1)
		go func() {
			defer h.wg.Done()
			defer h.recMu.Unlock()
			h.reconcile()
		}()
	}
	h.mu.Unlock()
	if commit != nil {
		if err := commit.Wait(); err != nil {
			return seq, fmt.Errorf("live: wal commit %d: %w", seq, err)
		}
	}
	return seq, nil
}

// Insert applies one insert batch (sequence "next").
func (h *Handle) Insert(triples []rdf.Triple) uint64 {
	seq, _ := h.Apply(0, triples, nil)
	return seq
}

// Delete applies one delete batch (sequence "next").
func (h *Handle) Delete(triples []rdf.Triple) uint64 {
	seq, _ := h.Apply(0, nil, triples)
	return seq
}

// Reconcile synchronously merges the pending delta into a fresh base store
// and swaps the epoch. Writes that land while the merge runs stay pending:
// they are pruned to their residual against the new base and carried into
// the new epoch's overlay. In-flight queries keep the views they pinned.
// Returns the view current after the swap.
func (h *Handle) Reconcile() *View {
	h.recMu.Lock()
	defer h.recMu.Unlock()
	return h.reconcile()
}

// reconcile runs with recMu held. The expensive merge happens outside the
// writer lock, so writes continue to land while it runs.
func (h *Handle) reconcile() *View {
	h.mu.Lock()
	v := h.cur.Load()
	h.mu.Unlock()
	if v.delta.Empty() {
		return v
	}
	merged := v.Store() // memoized: a query may already have paid for it
	mergedStats := v.Stats()

	h.mu.Lock()
	defer h.mu.Unlock()
	cur := h.cur.Load()
	nv := &View{
		version: cur.version + 1,
		seq:     h.seq,
		base:    merged,
		delta:   cur.delta.Prune(merged),
		bstats:  mergedStats,
		h:       h,
	}
	h.cur.Store(nv)
	// The remembered view belongs to the epoch just retired: no view over
	// the new base can start from it, and it pins the old base and the
	// frozen delta. Drop it now, or a store that goes quiet after this
	// reconcile keeps them until a next materialization that never comes.
	if m := h.memo.Load(); m != nil && m.base != merged {
		h.memo.CompareAndSwap(m, nil)
	}
	return nv
}

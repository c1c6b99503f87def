// Package live turns the immutable PARJ store into a mutable one without
// touching the engine's hot paths. It is the epoch machinery of the write
// path:
//
//   - Writes accumulate in a store.Delta (sorted adds and tombstones per
//     predicate, mirroring the CSR layout). A delta is a value: a write
//     batch encodes its verdicts, merges them into a new delta
//     (store.Delta.With) and publishes a new View — an immutable pair
//     (base store, delta) plus a monotonically increasing version.
//     Recovery takes the same step once for a whole WAL suffix.
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
//     difference between the two deltas into that view's tables
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
// A Handle is one replica, whatever serves it. Every front door (the root
// Store and Prepared, a node's /query and /exec) takes the same steps on
// it: Admit on the replica's one admission controller, then Plan (parse,
// then View.Plan on the view it pins), then View.Query on that view. Open
// builds a handle from Options, recovering it from its write-ahead log
// when the options ask for one.
//
// The dictionaries are shared across all epochs and append-only: IDs are
// stable forever, so a snapshot, a replica replay, or an old view can never
// see a term's ID change under it.
package live

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"parj/internal/core"
	"parj/internal/governance"
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

// View is one immutable epoch of the store: a base CSR store plus a delta
// overlay. Safe for concurrent use; queries pin one view for both
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

// Options configures a replica: its admission controller, its shared
// memory pool, its background reconciler and its write-ahead log. It is
// parj.DBOptions, and cmd/parj-server maps its flags onto it.
type Options struct {
	// MaxConcurrentQueries caps how many queries execute at once; further
	// queries wait up to AdmissionWait and are then shed with
	// governance.ErrOverloaded. 0 = unlimited. Under overload the replica
	// degrades gracefully — shedding queries with a typed error — instead
	// of accumulating unbounded concurrent result buffers.
	MaxConcurrentQueries int
	// AdmissionWait bounds how long an over-admission query queues before
	// it is shed. 0 means shed immediately when saturated.
	AdmissionWait time.Duration
	// AdmissionTarget is the acceptable queue sojourn of the CoDel-style
	// admission controller (0 = 5ms default): when sojourn stays above it
	// for a full AdmissionInterval the replica enters shedding mode,
	// rejecting excess arrivals after only the target (with a Retry-After
	// hint on the error) instead of letting every query wait the full
	// AdmissionWait, so admitted queries keep a bounded queue delay under
	// sustained overload. A target at or above AdmissionWait never
	// shortens the wait: that is the plain fixed-wait queue.
	AdmissionTarget time.Duration
	// AdmissionInterval is the admission controller's control window
	// (0 = 100ms default).
	AdmissionInterval time.Duration
	// SharedMemoryBudget bounds the bytes of materialized result rows
	// across ALL concurrently executing queries, complementing each
	// query's own memory budget: N concurrent queries race one budget, so
	// a burst cannot multiply the per-query bound into process exhaustion.
	// The query that would tip the replica over fails with
	// governance.ErrBudgetExceeded. 0 = unlimited.
	SharedMemoryBudget int64
	// AutoReconcileOps arms the background reconciler: once at least this
	// many write verdicts are pending, a goroutine merges them into fresh
	// base tables and swaps the epoch. 0 leaves reconciliation to explicit
	// Reconcile calls — the deterministic mode tests use.
	AutoReconcileOps int
	// Durability configures write-ahead logging. It takes effect only
	// through Open (recovery must happen before the handle exists); New
	// and SetOptions ignore it.
	Durability Durability
}

// governor is one configuration of the replica's admission controller and
// shared memory pool. SetOptions swaps in a new one whole, so a query
// releases its slot on the controller that admitted it.
type governor struct {
	limiter *governance.AdaptiveLimiter // nil admits everything
	pool    *governance.Pool            // nil = unlimited
}

// ParseError is a query text the SPARQL parser refused.
type ParseError struct{ Err error }

func (e *ParseError) Error() string { return e.Err.Error() }
func (e *ParseError) Unwrap() error { return e.Err }

// PlanError is a parsed query the replica cannot plan or run as asked.
type PlanError struct{ Err error }

func (e *PlanError) Error() string { return e.Err.Error() }
func (e *PlanError) Unwrap() error { return e.Err }

// AdmissionStats is a snapshot of the replica's admission and shared-memory
// counters. The admission controller's counters (InFlight, Admitted, Sheds,
// Expired, QueueDelay, Shedding) are promoted from the embedded snapshot;
// they count since the controller was configured.
type AdmissionStats struct {
	governance.AdmissionStats
	// PoolUsed/PoolCapacity report the shared memory budget (0 when off).
	PoolUsed     int64
	PoolCapacity int64
}

// Handle is one replica: the mutable façade over a chain of immutable
// views, the write-ahead log it recovered from, and the one admission
// controller and memory pool every front door of the replica shares. All
// writes are serialized through it; reads are a single atomic pointer load.
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

	gov atomic.Pointer[governor]

	wal *wal.Log // set by Open before the handle is shared; nil = volatile
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
	h.gov.Store(&governor{})
	return h
}

// SetOptions (re)configures the replica's admission controller, shared
// memory pool and background reconciler; opts.Durability takes effect only
// through Open. Queries already admitted keep their slots and their pool
// charges on the controller that admitted them.
func (h *Handle) SetOptions(opts Options) {
	h.gov.Store(&governor{
		limiter: governance.NewAdaptiveLimiter(governance.AdmissionOptions{
			MaxConcurrent: opts.MaxConcurrentQueries,
			MaxWait:       opts.AdmissionWait,
			Target:        opts.AdmissionTarget,
			Interval:      opts.AdmissionInterval,
		}),
		pool: governance.NewPool(opts.SharedMemoryBudget),
	})
	h.SetAutoReconcile(opts.AutoReconcileOps)
}

// Admit reserves one execution slot on the replica's admission controller:
// it sheds with governance.ErrOverloaded when the replica stays saturated
// longer than the admission wait, and refuses with ErrDeadlineExceeded a
// ctx deadline the queue cannot meet. After a nil error the query charges
// pool, the replica's shared memory budget, and the caller calls release
// exactly once. Every front door — the root Store and Prepared, a node's
// /query and /exec — admits here, so a replica has one controller and one
// pool however many doors serve it.
func (h *Handle) Admit(ctx context.Context) (pool *governance.Pool, release func(), err error) {
	g := h.gov.Load()
	if err := g.limiter.Acquire(ctx); err != nil {
		return nil, nil, err
	}
	return g.pool, g.limiter.Release, nil
}

// AdmissionStats snapshots the replica's admission counters.
func (h *Handle) AdmissionStats() AdmissionStats {
	g := h.gov.Load()
	return AdmissionStats{
		AdmissionStats: g.limiter.Stats(),
		PoolUsed:       g.pool.Used(),
		PoolCapacity:   g.pool.Capacity(),
	}
}

// Plan parses src and optimizes it on the current view, the view the caller
// must then run the plan on (View.Query): constants, statistics and the
// executed tables agree however many writes land meanwhile. A parse failure
// is a *ParseError, a planning failure a *PlanError.
func (h *Handle) Plan(src string, entail bool) (*sparql.Query, *View, *optimizer.Plan, error) {
	q, err := sparql.Parse(src)
	if err != nil {
		return nil, nil, nil, &ParseError{err}
	}
	v := h.View()
	plan, err := v.Plan(q, entail)
	if err != nil {
		return nil, nil, nil, &PlanError{err}
	}
	return q, v, plan, nil
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
	h.publish(seq, h.cur.Load().delta)
}

// SetAutoReconcile arms (or, with 0, disarms) the background reconciler:
// once a published view carries at least ops pending verdicts, one
// goroutine merges the view's delta into a fresh base and swaps the epoch.
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
// On a durable handle the batch is logged before the view is published
// and Apply blocks until the log's sync policy acknowledges it. The
// enqueue happens under the writer lock (log order = sequence order) but
// the fsync wait happens outside it, so sequential writers coalesce into
// one group commit. A failed enqueue leaves handle state untouched; a
// failed fsync is returned after the view is already visible — the store
// has the write, durability does not, and the caller must treat the
// replica as failed (the log is sticky-poisoned from then on).
func (h *Handle) Apply(seq uint64, inserts, deletes []rdf.Triple) (uint64, error) {
	h.mu.Lock()
	seq, ok, err := nextSeq(h.seq, seq)
	if !ok {
		cur := h.seq
		h.mu.Unlock()
		return cur, err
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
	h.publish(seq, v.delta.With(appendVerdicts(nil, v.base, inserts, deletes)))
	h.mu.Unlock()
	if commit != nil {
		if err := commit.Wait(); err != nil {
			return seq, fmt.Errorf("live: wal commit %d: %w", seq, err)
		}
	}
	return seq, nil
}

// nextSeq places a batch numbered seq after the applied position: it
// returns the sequence the batch takes (seq 0 means "next"), or ok=false
// for a batch already applied (err nil) or one that would skip ahead
// (ErrSeqGap).
func nextSeq(applied, seq uint64) (next uint64, ok bool, err error) {
	switch {
	case seq == 0:
		return applied + 1, true, nil
	case seq <= applied:
		return applied, false, nil
	case seq != applied+1:
		return applied, false, fmt.Errorf("%w: applied %d, got %d", ErrSeqGap, applied, seq)
	}
	return seq, true, nil
}

// appendVerdicts appends the verdicts of one write batch, encoded against
// st's dictionaries, to vs: deletes first, then inserts — the order every
// replica must share for dictionary determinism. A delete naming a term the
// dictionary has never seen is skipped (the triple cannot exist) and does
// not grow the dictionary; inserts encode their terms, one lock per
// dictionary per batch, in the order a triple-by-triple encode would assign
// them.
func appendVerdicts(vs []store.Verdict, st *store.Store, inserts, deletes []rdf.Triple) []store.Verdict {
	res, preds := st.Resources, st.Predicates
	vs = slices.Grow(vs, len(deletes)+len(inserts))
	for _, t := range deletes {
		s, p, o := res.Lookup(t.S), preds.Lookup(t.P), res.Lookup(t.O)
		if s != 0 && p != 0 && o != 0 {
			vs = append(vs, store.Verdict{S: s, P: p, O: o})
		}
	}
	n := len(inserts)
	terms, ids := make([]string, 3*n), make([]uint32, 3*n)
	for i, t := range inserts {
		terms[2*i], terms[2*i+1], terms[2*n+i] = t.S, t.O, t.P
	}
	res.EncodeAll(terms[:2*n], ids[:2*n])
	preds.EncodeAll(terms[2*n:], ids[2*n:])
	for i := range inserts {
		vs = append(vs, store.Verdict{S: ids[2*i], P: ids[2*n+i], O: ids[2*i+1], Insert: true})
	}
	return vs
}

// publish makes delta d, holding the write stream up to seq, the current
// view, and starts a background reconcile once d's pending verdicts reach
// the auto-reconcile threshold. h.mu must be held.
func (h *Handle) publish(seq uint64, d *store.Delta) {
	v := h.cur.Load()
	h.seq = seq
	h.cur.Store(&View{
		version: v.version + 1,
		seq:     seq,
		base:    v.base,
		delta:   d,
		bstats:  v.bstats,
		h:       h,
	})
	if n := h.autoOps.Load(); n > 0 && int64(d.Ops()) >= n && h.recMu.TryLock() {
		h.wg.Add(1)
		go func() {
			defer h.wg.Done()
			defer h.recMu.Unlock()
			h.reconcile()
		}()
	}
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
	// the new base can start from it, and it pins the old base and its
	// delta. Drop it now, or a store that goes quiet after this reconcile
	// keeps them until a next materialization that never comes.
	if m := h.memo.Load(); m != nil && m.base != merged {
		h.memo.CompareAndSwap(m, nil)
	}
	return nv
}

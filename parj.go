// Package parj is a main-memory, parallel RDF store with adaptive join
// processing — a Go implementation of the PARJ system from "Scalable
// Parallelization of RDF Joins on Multicore Architectures" (Bilidas &
// Koubarakis, EDBT 2019).
//
// RDF data is dictionary-encoded and vertically partitioned: every
// predicate gets a two-column table kept in two sort orders (subject-object
// and object-subject) with compact CSR storage. SPARQL Basic Graph Patterns
// are compiled to left-deep join pipelines that workers execute over
// disjoint shards of the first relation, with zero inter-thread
// communication. Each probe adaptively switches between cursor-resuming
// sequential search (merge-join-like) and binary search or an
// ID-to-Position index (index-nested-loop-like).
//
// Quickstart:
//
//	b := parj.NewBuilder(parj.LoadOptions{})
//	b.Add("<alice>", "<knows>", "<bob>")
//	b.Add("<bob>", "<knows>", "<carol>")
//	db := b.Build()
//	res, err := db.Query(`SELECT ?x ?z WHERE { ?x <knows> ?y . ?y <knows> ?z }`,
//		parj.QueryOptions{})
package parj

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"parj/internal/core"
	"parj/internal/governance"
	"parj/internal/live"
	"parj/internal/optimizer"
	"parj/internal/rdf"
	"parj/internal/search"
	"parj/internal/sparql"
	"parj/internal/store"
	"parj/internal/wal"
)

// Typed governance errors. Every error returned by Query, QueryStream and
// friends that stems from resource governance wraps exactly one of these;
// dispatch with errors.Is. ErrCanceled and ErrDeadlineExceeded also match
// context.Canceled and context.DeadlineExceeded respectively. See
// docs/ROBUSTNESS.md for the full taxonomy.
var (
	// ErrCanceled reports that QueryOptions.Context was canceled.
	ErrCanceled = governance.ErrCanceled
	// ErrDeadlineExceeded reports that the query's deadline or
	// QueryOptions.Timeout expired mid-execution.
	ErrDeadlineExceeded = governance.ErrDeadlineExceeded
	// ErrBudgetExceeded reports that the query exceeded
	// QueryOptions.MaxResultRows or QueryOptions.MemoryBudget.
	ErrBudgetExceeded = governance.ErrBudgetExceeded
	// ErrOverloaded is the load-shedding error: the store was running
	// DBOptions.MaxConcurrentQueries queries and this one could not be
	// admitted within DBOptions.AdmissionWait.
	ErrOverloaded = governance.ErrOverloaded
	// ErrCorruptSnapshot reports that a snapshot failed its integrity
	// checks (bad structure or checksum mismatch).
	ErrCorruptSnapshot = store.ErrCorruptSnapshot
)

// PanicError is a worker panic contained to a query error: the process
// keeps serving, and the offending goroutine's stack is preserved. Extract
// it with errors.As.
type PanicError = governance.PanicError

// RetryAfter extracts the suggested client backoff carried by an
// ErrOverloaded shed from the admission controller (0 when the error
// carries no hint). Servers surface it as the Retry-After header.
func RetryAfter(err error) time.Duration {
	return governance.RetryAfterHint(err, 0)
}

// Strategy selects the key-probe method; see the package documentation of
// internal/core and Table 5 of the paper.
type Strategy = core.Strategy

// JoinAlgo selects the join operator; see internal/core's wcoj.go.
type JoinAlgo = core.JoinAlgo

// Join operators.
const (
	// JoinAuto (the default) follows the optimizer's shape classifier:
	// acyclic BGPs run the left-deep pipeline, cyclic and self-join BGPs
	// run the worst-case-optimal operator when its cost estimate wins.
	JoinAuto = core.JoinAuto
	// JoinPipeline forces the left-deep binary-join pipeline.
	JoinPipeline = core.JoinPipeline
	// JoinWCOJ forces the worst-case-optimal operator on eligible plans
	// (constant, unexpanded predicates); ineligible plans fall back to the
	// pipeline.
	JoinWCOJ = core.JoinWCOJ
)

// Probe strategies.
const (
	// AdaptiveBinary switches per probe between sequential and binary
	// search (the paper's AdBinary; the default).
	AdaptiveBinary = core.AdaptiveBinary
	// BinaryOnly always binary-searches the key array.
	BinaryOnly = core.BinaryOnly
	// IndexOnly always uses the ID-to-Position index (requires
	// LoadOptions.PosIndex).
	IndexOnly = core.IndexOnly
	// AdaptiveIndex switches between sequential search and the
	// ID-to-Position index (requires LoadOptions.PosIndex).
	AdaptiveIndex = core.AdaptiveIndex
)

// LoadOptions configures data loading.
type LoadOptions struct {
	// PosIndex builds the ID-to-Position index for every table, enabling
	// the IndexOnly and AdaptiveIndex strategies at ~N/8 bytes per table
	// extra memory.
	PosIndex bool
	// Calibrate runs the paper's timing-based calibration (Algorithm 2)
	// after loading to derive adaptive thresholds; when false, the
	// paper-reported defaults are used (deterministic, and accurate on
	// commodity hardware).
	Calibrate bool
	// DB configures store-wide governance (admission control) from the
	// moment the store exists; SetDBOptions can change it later.
	DB DBOptions
}

// DBOptions configures store-wide resource governance.
type DBOptions struct {
	// MaxConcurrentQueries caps how many queries execute at once; further
	// queries wait up to AdmissionWait and are then shed with
	// ErrOverloaded. 0 = unlimited. Under overload the store degrades
	// gracefully — shedding queries with a typed error — instead of
	// accumulating unbounded concurrent result buffers.
	MaxConcurrentQueries int
	// AdmissionWait bounds how long an over-admission query queues before
	// it is shed. 0 means shed immediately when saturated.
	AdmissionWait time.Duration
	// AdmissionTarget is the acceptable queue sojourn of the CoDel-style
	// admission controller (0 = 5ms default): when sojourn stays above it
	// for a full AdmissionInterval the store enters shedding mode,
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
	// across ALL concurrently executing queries, complementing the
	// per-query QueryOptions.MemoryBudget: N concurrent queries race one
	// budget, so a burst cannot multiply the per-query bound into process
	// exhaustion. The query that would tip the store over fails with
	// ErrBudgetExceeded. 0 = unlimited.
	SharedMemoryBudget int64
	// AutoReconcileOps arms the background reconciler: once at least this
	// many write verdicts are pending, a goroutine merges them into fresh
	// base tables and swaps the epoch. 0 leaves reconciliation to explicit
	// Reconcile calls — the deterministic mode tests use.
	AutoReconcileOps int
	// Durability configures write-ahead logging. It takes effect only
	// through Open (recovery must happen before the store exists);
	// Builder.Build, Load and SetDBOptions ignore it.
	Durability Durability
}

func (o LoadOptions) buildOptions() store.BuildOptions {
	return store.BuildOptions{
		Calibrate:     o.Calibrate,
		BuildPosIndex: o.PosIndex,
	}
}

// QueryOptions configures one query execution.
type QueryOptions struct {
	// Threads is the number of worker threads; 0 uses GOMAXPROCS.
	Threads int
	// Strategy is the probe strategy (default AdaptiveBinary).
	Strategy Strategy
	// Silent counts results without materializing or decoding rows — the
	// measurement mode used in the paper's experiments.
	Silent bool
	// Join selects the join operator: JoinAuto (default) lets the
	// optimizer's shape classifier decide, JoinPipeline and JoinWCOJ force
	// one operator — the knob the differential tests and benchmarks use to
	// A/B the pipeline against the worst-case-optimal join.
	Join JoinAlgo
	// Entailment evaluates the query with respect to the rdfs:subClassOf
	// and rdfs:subPropertyOf hierarchies found in the data, by unioning
	// tables inside the join pipeline instead of materializing implied
	// triples (the paper's §6 extension). Patterns over rdf:type match
	// subclasses; patterns over a property match its subproperties.
	Entailment bool

	// Context carries the query's cancellation signal and deadline into
	// the worker inner loops: canceling it stops the query within a
	// fraction of a millisecond with ErrCanceled (or ErrDeadlineExceeded
	// when the context's own deadline expired). nil means no cancellation.
	Context context.Context
	// Timeout, when positive, bounds the query's wall-clock time on top of
	// (and independently of) Context; expiry yields ErrDeadlineExceeded.
	Timeout time.Duration
	// MaxResultRows bounds the rows the engine produces across all
	// workers, before final DISTINCT/LIMIT compaction; exceeding it yields
	// ErrBudgetExceeded. 0 = unlimited.
	MaxResultRows int64
	// MemoryBudget bounds the bytes of materialized result rows across all
	// workers; exceeding it yields ErrBudgetExceeded. Silent counting and
	// QueryStream charge no memory. 0 = unlimited.
	MemoryBudget int64
}

// execContext derives the execution context from Context and Timeout. The
// returned cancel must be called when execution finishes (it is a no-op
// when no timeout was requested).
func (o *QueryOptions) execContext() (context.Context, context.CancelFunc) {
	ctx := o.Context
	if o.Timeout <= 0 {
		return ctx, func() {}
	}
	if ctx == nil {
		ctx = context.Background()
	}
	return context.WithTimeout(ctx, o.Timeout)
}

// coreOptions assembles the engine options of one execution under ctx.
// pool is the store's shared memory budget (nil when off).
func (o *QueryOptions) coreOptions(ctx context.Context, pool *governance.Pool) core.Options {
	return core.Options{
		Threads:       o.Threads,
		Strategy:      o.Strategy,
		Silent:        o.Silent,
		Join:          o.Join,
		Context:       ctx,
		MaxResultRows: o.MaxResultRows,
		MemoryBudget:  o.MemoryBudget,
		MemPool:       pool,
	}
}

// Results holds a query's outcome.
type Results struct {
	// Vars names the projected columns.
	Vars []string
	// Rows holds the decoded result rows (nil in silent mode).
	Rows [][]string
	// Count is the number of result rows after DISTINCT/LIMIT.
	Count int64
	// ProbeStats reports how many probes used each search strategy.
	ProbeStats search.Stats
}

// Store is a fully in-memory RDF database, safe for concurrent queries and
// — since the live write path — concurrent Insert/Delete. Reads run on
// immutable epoch views: each query pins the view current at admission and
// sees a consistent base-plus-delta state for its whole lifetime, while
// writes publish new views and a reconciler folds accumulated deltas into
// fresh base tables. With no writes pending, the read path is exactly the
// original immutable engine plus one atomic load.
type Store struct {
	live *live.Handle

	// wal is the store's write-ahead log when it was opened with
	// DBOptions.Durability (see Open); nil for volatile stores.
	wal *wal.Log

	// limiter implements DB-level admission control; nil admits everything.
	limiter *governance.AdaptiveLimiter
	// memPool is the store-wide shared memory budget; nil = unlimited.
	memPool *governance.Pool
}

// SetDBOptions (re)configures store-wide governance. It must not be called
// concurrently with queries; set it once right after loading. Queries
// already admitted keep their slots (and their shared-pool reservations).
func (s *Store) SetDBOptions(opts DBOptions) {
	s.applyDB(opts)
}

func (s *Store) applyDB(opts DBOptions) {
	s.limiter = governance.NewAdaptiveLimiter(governance.AdmissionOptions{
		MaxConcurrent: opts.MaxConcurrentQueries,
		MaxWait:       opts.AdmissionWait,
		Target:        opts.AdmissionTarget,
		Interval:      opts.AdmissionInterval,
	})
	s.memPool = governance.NewPool(opts.SharedMemoryBudget)
	s.live.SetAutoReconcile(opts.AutoReconcileOps)
}

// InFlightQueries reports how many queries are currently admitted (always 0
// when admission control is off) — a cheap load signal for health checks.
func (s *Store) InFlightQueries() int { return s.limiter.InFlight() }

// AdmissionStats is a snapshot of the store's admission and shared-memory
// counters — what parj-server surfaces on /statz so the shedding behavior
// is operator-visible. The admission controller's counters (InFlight,
// Admitted, Sheds, Expired, QueueDelay, Shedding) are promoted from the
// embedded snapshot; they count since the controller was configured.
type AdmissionStats struct {
	governance.AdmissionStats
	// PoolUsed/PoolCapacity report the shared memory budget (0 when off).
	PoolUsed     int64
	PoolCapacity int64
}

// AdmissionStats snapshots the store's admission counters.
func (s *Store) AdmissionStats() AdmissionStats {
	return AdmissionStats{
		AdmissionStats: s.limiter.Stats(),
		PoolUsed:       s.memPool.Used(),
		PoolCapacity:   s.memPool.Capacity(),
	}
}

// admit reserves an execution slot, shedding with ErrOverloaded when the
// store stays saturated longer than the admission wait (or only the
// admission target, once the controller is in shed mode). After a nil error
// the caller must call s.limiter.Release exactly once.
func (s *Store) admit(ctx context.Context) error {
	if err := s.limiter.Acquire(ctx); err != nil {
		return fmt.Errorf("parj: %w", err)
	}
	return nil
}

// Builder accumulates triples for a Store.
type Builder struct {
	b    *store.Builder
	opts LoadOptions
}

// NewBuilder returns an empty Builder.
func NewBuilder(opts LoadOptions) *Builder {
	return &Builder{b: store.NewBuilder(), opts: opts}
}

// Add inserts one triple given in N-Triples term syntax (IRIs in angle
// brackets, literals quoted).
func (b *Builder) Add(subject, predicate, object string) {
	b.b.Add(subject, predicate, object)
}

// Build freezes the builder into a Store. The Builder must not be used
// afterwards.
func (b *Builder) Build() *Store {
	return newStore(b.b.Build(b.opts.buildOptions()), b.opts)
}

// Load reads an N-Triples document and builds a Store.
func Load(r io.Reader, opts LoadOptions) (*Store, error) {
	st, err := store.LoadNTriples(r, opts.buildOptions())
	if err != nil {
		return nil, err
	}
	return newStore(st, opts), nil
}

// LoadFile reads an N-Triples file (or a .snapshot file written by
// SaveSnapshotFile, which keeps the tables it was saved with) and builds a
// Store governed by opts.DB.
func LoadFile(path string, opts LoadOptions) (*Store, error) {
	st, err := store.LoadFile(path, opts.buildOptions())
	if err != nil {
		return nil, err
	}
	return newStore(st, opts), nil
}

// newStore wraps a loaded store under opts.DB. The tables of predicates a
// later write introduces get an ID-to-Position index when the store's tables
// have one or opts asks for it.
func newStore(st *store.Store, opts LoadOptions) *Store {
	bo := store.InferBuildOptions(st)
	bo.BuildPosIndex = bo.BuildPosIndex || opts.PosIndex
	s := &Store{live: live.New(st, nil, bo)}
	s.applyDB(opts.DB)
	return s
}

// SaveSnapshot writes a binary snapshot of the store that LoadSnapshot can
// reload without re-parsing or re-sorting — the role the paper's SQLite
// backing store played for its prototype. The snapshot captures the
// current epoch's effective state: pending unreconciled writes are merged
// into the stream, so a snapshot taken mid-churn loads identically to one
// taken after the next reconcile.
func (s *Store) SaveSnapshot(w io.Writer) error { return s.live.View().Store().Save(w) }

// SaveSnapshotFile writes the snapshot to a file.
func (s *Store) SaveSnapshotFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := s.SaveSnapshot(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadSnapshot reloads a store saved with SaveSnapshot.
func LoadSnapshot(r io.Reader) (*Store, error) {
	st, err := store.LoadSnapshot(r)
	if err != nil {
		return nil, err
	}
	return newStore(st, LoadOptions{}), nil
}

// LoadSnapshotFile reloads a store from a snapshot file.
func LoadSnapshotFile(path string) (*Store, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return LoadSnapshot(f)
}

// NumTriples reports the number of distinct triples stored. While writes
// are pending it is a fast estimate (base plus net delta) so health checks
// never force a merge; after a reconcile it is exact.
func (s *Store) NumTriples() int { return s.live.View().ApproxTriples() }

// NumPredicates reports the number of distinct predicates.
func (s *Store) NumPredicates() int { return s.live.View().Base().NumPredicates() }

// NumResources reports the number of distinct subjects/objects.
func (s *Store) NumResources() int { return s.live.View().Base().Resources.Len() }

// MemoryBytes reports the table payload size in bytes (dictionaries
// excluded), the figure the paper quotes for storage compactness.
func (s *Store) MemoryBytes() int { return s.live.View().Base().Bytes() }

// Triple is one RDF statement in N-Triples term syntax (IRIs in angle
// brackets, literals quoted) — the unit of the live write path.
type Triple struct {
	S, P, O string
}

// Insert adds triples to the live store while queries run. Duplicates of
// already-stored triples are no-ops (RDF graphs are sets). The write lands
// in the current epoch's delta overlay; queries admitted afterwards see it
// immediately, queries already running keep their pinned epoch. Returns
// the write-batch sequence number.
func (s *Store) Insert(triples []Triple) uint64 {
	return s.live.Insert(toRDF(triples))
}

// Delete removes triples from the live store while queries run. Deleting
// an absent triple is a no-op. Same epoch semantics as Insert.
func (s *Store) Delete(triples []Triple) uint64 {
	return s.live.Delete(toRDF(triples))
}

// Reconcile synchronously merges all pending write deltas into fresh base
// tables and swaps the epoch. Queries in flight keep their views; writes
// landing during the merge stay pending into the next epoch. After
// Reconcile (with no further writes), reads are overlay-free again.
func (s *Store) Reconcile() { s.live.Reconcile() }

// PendingWrites reports the write verdicts not yet reconciled.
func (s *Store) PendingWrites() int { return s.live.Pending() }

// WriteSeq reports the sequence number of the last applied write batch.
func (s *Store) WriteSeq() uint64 { return s.live.Seq() }

// Epoch reports the current view version; it advances on every write batch
// and every reconcile.
func (s *Store) Epoch() uint64 { return s.live.View().Version() }

// Quiesce blocks until any background reconciliation (DBOptions.
// AutoReconcileOps) has finished. Stop writing before calling it.
func (s *Store) Quiesce() { s.live.Quiesce() }

func toRDF(triples []Triple) []rdf.Triple {
	out := make([]rdf.Triple, len(triples))
	for i, t := range triples {
		out[i] = rdf.Triple(t)
	}
	return out
}

// PredicateInfo describes one predicate's tables.
type PredicateInfo struct {
	IRI              string
	Triples          int
	DistinctSubjects int
	DistinctObjects  int
}

// PredicateInfos lists every predicate with its table statistics (the
// paper's 2×#properties directory, §3, decoded for humans). Pending writes
// are merged into the reported numbers.
func (s *Store) PredicateInfos() []PredicateInfo {
	st := s.live.View().Store()
	out := make([]PredicateInfo, st.NumPredicates())
	for p := 1; p <= st.NumPredicates(); p++ {
		out[p-1] = PredicateInfo{
			IRI:              st.Predicates.Decode(uint32(p)),
			Triples:          st.SO(uint32(p)).NumTriples(),
			DistinctSubjects: st.SO(uint32(p)).NumKeys(),
			DistinctObjects:  st.OS(uint32(p)).NumKeys(),
		}
	}
	return out
}

// Query parses, optimizes and executes a SPARQL query. ORDER BY sorts the
// decoded terms lexicographically (ascending unless DESC); OFFSET skips
// rows after ordering and before LIMIT.
//
// Governance (QueryOptions.Context, Timeout, MaxResultRows, MemoryBudget,
// and the store's admission control) fails the query with one of the typed
// errors; when execution had already started, the returned *Results is
// non-nil and carries partial progress — the count of rows produced so far
// and the probe statistics — but never partial rows.
func (s *Store) Query(src string, opts QueryOptions) (*Results, error) {
	return s.run(opts, func() (*sparql.Query, *live.View, *optimizer.Plan, error) {
		return s.plan(src, opts.Entailment)
	})
}

// run admits one query, then plans it with plan, which pins one epoch view
// for planning AND execution — constants resolved against its
// dictionary-visible state, statistics, and the executed tables all agree,
// however many writes land meanwhile — and runs it on that view: the path
// Store.Query and Prepared.Query share. A failed execution that had started
// still reports its partial progress beside the error.
func (s *Store) run(opts QueryOptions, plan func() (*sparql.Query, *live.View, *optimizer.Plan, error)) (*Results, error) {
	ctx, cancel := opts.execContext()
	defer cancel()
	if err := s.admit(ctx); err != nil {
		return nil, err
	}
	defer s.limiter.Release()

	q, v, p, err := plan()
	if err != nil {
		return nil, err
	}
	res, rows, err := v.Query(q, p, opts.coreOptions(ctx, s.memPool))
	if err != nil {
		err = fmt.Errorf("parj: %w", err)
	}
	if res == nil {
		return nil, err
	}
	return &Results{Vars: res.Vars, Rows: rows, Count: res.Count, ProbeStats: res.Stats}, err
}

// errStreamBuffered rejects streaming of queries whose semantics need the
// whole result.
var errStreamBuffered = errors.New("parj: QueryStream does not support DISTINCT, LIMIT, ORDER BY or OFFSET (they require buffering; use Query)")

// QueryStream executes src and delivers decoded rows to fn as they are
// produced, without buffering the result set — the paper's iterator-style
// full-result handling (§5.2), which keeps memory bounded even for
// billion-row results. fn runs on a single goroutine and returns false to
// cancel. DISTINCT, LIMIT, ORDER BY and OFFSET require buffering and are
// rejected; use Query. The returned count is the number of rows delivered.
func (s *Store) QueryStream(src string, opts QueryOptions, fn func(row []string) bool) (int64, error) {
	ctx, cancel := opts.execContext()
	defer cancel()
	if err := s.admit(ctx); err != nil {
		return 0, err
	}
	defer s.limiter.Release()

	q, v, plan, err := s.plan(src, opts.Entailment)
	if err != nil {
		return 0, err
	}
	if q.Distinct || q.Limit > 0 || q.Buffered() {
		return 0, errStreamBuffered
	}
	st, dec := v.Store(), &core.Result{Plan: plan}
	n, err := core.ExecuteStream(st, plan, opts.coreOptions(ctx, s.memPool), func(row []uint32) bool {
		return fn(dec.Decode(st, row))
	})
	if err != nil {
		return n, fmt.Errorf("parj: %w", err)
	}
	return n, nil
}

// Prepared is a parsed and optimized query, reusable across executions.
// The paper observes that for fast star queries (WatDiv S1) planning
// dominates the total time; preparing once removes that cost from repeated
// executions. Prepared queries are safe for concurrent use. A prepared
// plan is bound to the epoch it was optimized on; when writes move the
// epoch, the next execution transparently replans (constants resolved
// against the old view — or its emptiness proof — may not hold on the new
// one).
type Prepared struct {
	s      *Store
	q      *sparql.Query
	entail bool

	mu   sync.Mutex
	v    *live.View // the epoch view plan was optimized on, and runs on
	plan *optimizer.Plan
}

// Prepare parses and optimizes src once. Entailment selects
// hierarchy-aware planning, as in QueryOptions.
func (s *Store) Prepare(src string, entailment bool) (*Prepared, error) {
	q, v, plan, err := s.plan(src, entailment)
	if err != nil {
		return nil, err
	}
	return &Prepared{s: s, q: q, entail: entailment, v: v, plan: plan}, nil
}

// current returns the query, the view it runs on and its plan, replanning
// on the live epoch if writes moved it since the last execution.
func (p *Prepared) current() (*sparql.Query, *live.View, *optimizer.Plan, error) {
	v := p.s.live.View()
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.v != v {
		plan, err := v.Plan(p.q, p.entail)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("parj: %w", err)
		}
		p.v, p.plan = v, plan
	}
	return p.q, p.v, p.plan, nil
}

// Query executes the prepared plan under the same governance semantics as
// Store.Query.
func (p *Prepared) Query(opts QueryOptions) (*Results, error) {
	return p.s.run(opts, p.current)
}

// Count executes the prepared plan in silent mode.
func (p *Prepared) Count(opts QueryOptions) (int64, error) {
	opts.Silent = true
	res, err := p.Query(opts)
	if err != nil {
		return 0, err
	}
	return res.Count, nil
}

// Explain describes the prepared plan (replanned if the epoch moved).
func (p *Prepared) Explain() string {
	_, _, plan, err := p.current()
	if err != nil {
		return "prepared plan invalid on current epoch: " + err.Error()
	}
	return plan.Explain()
}

// Count executes src in silent mode and returns only the result count.
func (s *Store) Count(src string, opts QueryOptions) (int64, error) {
	opts.Silent = true
	res, err := s.Query(src, opts)
	if err != nil {
		return 0, err
	}
	return res.Count, nil
}

// Explain returns a human-readable description of the plan chosen for src.
func (s *Store) Explain(src string) (string, error) {
	_, _, plan, err := s.plan(src, false)
	if err != nil {
		return "", err
	}
	return plan.Explain(), nil
}

// plan parses src and optimizes it on the current epoch view, the view the
// caller must then run the plan on.
func (s *Store) plan(src string, entail bool) (*sparql.Query, *live.View, *optimizer.Plan, error) {
	q, err := sparql.Parse(src)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("parj: %w", err)
	}
	v := s.live.View()
	plan, err := v.Plan(q, entail)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("parj: %w", err)
	}
	return q, v, plan, nil
}

// Package core implements PARJ's parallel adaptive join engine (paper §3–4).
//
// A left-deep plan is executed as a pipeline: workers scan disjoint shards
// of the first relation (or of the value vector of a selective first
// pattern, Example 3.2) and, for every produced binding, probe the next
// pattern's table. All shared state is read-only; workers never communicate
// or synchronize — the paper's central design point — and merge their
// result buffers only after the last worker finishes.
//
// Every probe into a key array goes through one of four strategies
// (Table 5 of the paper): always binary search, adaptive
// binary-vs-sequential (Algorithm 1), always ID-to-Position index, or
// adaptive index-vs-sequential. Sequential probes resume from a per-worker,
// per-pattern cursor, which turns sorted and partially sorted probe streams
// into merge-join-like scans.
package core

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync/atomic"
	"time"
	"unsafe"

	"parj/internal/dict"
	"parj/internal/governance"
	"parj/internal/optimizer"
	"parj/internal/search"
	"parj/internal/store"
)

// Strategy selects the probe method for locating keys (Table 5).
type Strategy int

const (
	// AdaptiveBinary switches per probe between sequential search and
	// binary search (the paper's AdBinary, the default).
	AdaptiveBinary Strategy = iota
	// BinaryOnly always uses binary search (Binary).
	BinaryOnly
	// IndexOnly always uses the ID-to-Position index (Index).
	IndexOnly
	// AdaptiveIndex switches between sequential search and the
	// ID-to-Position index (AdIndex).
	AdaptiveIndex
)

func (s Strategy) String() string {
	switch s {
	case AdaptiveBinary:
		return "AdBinary"
	case BinaryOnly:
		return "Binary"
	case IndexOnly:
		return "Index"
	case AdaptiveIndex:
		return "AdIndex"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// NeedsIndex reports whether the strategy requires ID-to-Position indexes
// in the store.
func (s Strategy) NeedsIndex() bool { return s == IndexOnly || s == AdaptiveIndex }

// Options configures one execution.
type Options struct {
	// Threads is the number of workers; 0 means runtime.GOMAXPROCS(0).
	// Each worker is exactly one goroutine, matching the paper's
	// one-thread-per-worker model.
	Threads int
	// Strategy is the key-probe strategy.
	Strategy Strategy
	// Silent counts results without materializing rows (the paper's
	// "silent mode" used in all timing experiments).
	Silent bool
	// MemTracer, when non-nil, replays every memory access of the key
	// probes (binary/sequential/index searches) through the tracer —
	// typically a cachesim.Hierarchy. This reproduces the paper's Table 6
	// measurement, which counts cycles and cache misses of the search
	// procedures only. Tracing is only meaningful with Threads = 1; the
	// paper's Table 6 runs single-threaded.
	MemTracer search.Tracer
	// MeasureShards runs the morsels one at a time (no goroutine
	// concurrency) and records each morsel's execution time in
	// Result.ShardDurations. Because PARJ workers share nothing and never
	// communicate, the elapsed time of a communication-free N-core run is
	// the list-scheduling makespan of the morsel durations over N workers —
	// which lets hosts with fewer cores than the requested thread count
	// simulate the paper's multicore wall clock. See Result.MaxShardTime.
	MeasureShards bool
	// MorselSize bounds the number of outer tuples per scheduler morsel
	// (0 = DefaultMorselSize). Smaller morsels rebalance skew at finer
	// grain at the cost of more dispatch traffic; tests use extreme values
	// to fuzz the stealing protocol. A bound at or above the shard size
	// leaves every shard uncut — one morsel per worker, which is the paper's
	// one-shot static sharding (§3).
	MorselSize int
	// Join selects the join operator: JoinAuto (default) follows the
	// optimizer's shape classifier (Plan.PreferWCOJ), JoinPipeline and
	// JoinWCOJ force one operator — the knob difftest and bench use to A/B
	// the two. See wcoj.go.
	Join JoinAlgo

	// Context carries the query's cancellation signal and deadline. Workers
	// observe it on an amortized schedule (every CheckInterval steps), so a
	// canceled or expired query unwinds within a fraction of a millisecond
	// while the Silent-mode hot path stays flat. nil means no cancellation.
	Context context.Context
	// MaxResultRows bounds the number of rows the engine produces across
	// all workers, before final DISTINCT/LIMIT compaction (that is what
	// costs time and memory); exceeding it fails the query with
	// governance.ErrBudgetExceeded. 0 = unlimited. For limited queries note
	// that workers truncate independently, so production can reach
	// workers × LIMIT rows.
	MaxResultRows int64
	// MemoryBudget bounds the bytes of materialized result rows across all
	// workers; exceeding it fails the query with
	// governance.ErrBudgetExceeded. Silent, non-materializing execution
	// charges nothing. 0 = unlimited.
	MemoryBudget int64
	// MemPool, when non-nil, is the store-wide shared memory budget this
	// query charges materialized bytes against in addition to its own
	// MemoryBudget; exhaustion fails the query with
	// governance.ErrBudgetExceeded. The engine releases the query's pool
	// reservation when execution finishes.
	MemPool *governance.Pool
	// CheckInterval is the number of worker steps between two governance
	// checks. 0 derives it from the plan's estimated result cardinality
	// (governance.IntervalForEstimate): plans expected to run long are
	// checked more often.
	CheckInterval int
}

// governanceConfig translates the execution options into a governor config.
func (o *Options) governanceConfig() governance.Config {
	return governance.Config{
		Context:       o.Context,
		MaxResultRows: o.MaxResultRows,
		MemoryBudget:  o.MemoryBudget,
		MemPool:       o.MemPool,
		CheckInterval: o.CheckInterval,
	}
}

// probeFaultHook, when non-nil, runs before every key probe inside the
// worker goroutines. Fault-injection tests use it to panic mid-query and
// assert that the panic is contained to a query error; it is never set in
// production. Workers capture it once at construction so the per-probe
// check reads a worker-local field that sits with the other hot state.
var probeFaultHook func()

// SetProbeFaultHook installs fn as the probe fault hook and returns a
// function restoring the previous hook. Only tests may call this, and never
// concurrently with query execution.
func SetProbeFaultHook(fn func()) (restore func()) {
	old := probeFaultHook
	probeFaultHook = fn
	return func() { probeFaultHook = old }
}

// Result is the outcome of an execution.
type Result struct {
	// Vars names the projected columns.
	Vars []string
	// Rows holds the projected, dictionary-encoded result rows. It is nil
	// in silent mode (unless DISTINCT forces materialization).
	Rows [][]uint32
	// Count is the number of result rows (after DISTINCT and LIMIT).
	Count int64
	// Stats aggregates the probe-strategy decisions across workers.
	Stats search.Stats
	// Plan is the executed plan, kept for decoding and explain output.
	Plan *optimizer.Plan
	// ShardDurations holds the per-morsel execution times, in dispatch
	// order, when Options.MeasureShards was set. With morsels left uncut
	// (MorselSize ≥ shard size) that is one entry per shard range.
	ShardDurations []time.Duration
	// Sched reports per-worker scheduler activity (morsel pulls, steals,
	// claimed tuples, produced rows, busy time), one entry per worker.
	Sched SchedStats

	// simMakespan is the simulated parallel elapsed time of a MeasureShards
	// run: the greedy list-scheduling makespan of the measured morsel
	// durations over the requested worker count.
	simMakespan time.Duration
}

// MaxShardTime returns the simulated communication-free parallel elapsed
// time of a MeasureShards run (zero otherwise): the list-scheduling
// makespan of the morsel durations over the requested workers. With no more
// morsels than workers — uncut shards — that is the longest shard duration,
// the paper's "a query lasts as long as its slowest shard".
func (r *Result) MaxShardTime() time.Duration { return r.simMakespan }

// SumShardTime returns the total worker time (zero unless MeasureShards).
func (r *Result) SumShardTime() time.Duration {
	var s time.Duration
	for _, d := range r.ShardDurations {
		s += d
	}
	return s
}

// Decode converts row r to the projected variables' string values using the
// store's dictionaries.
func (r *Result) Decode(st *store.Store, row []uint32) []string {
	out := make([]string, len(row))
	for i, id := range row {
		slot := r.Plan.Project[i]
		if r.Plan.SlotIsPred[slot] {
			out[i] = st.Predicates.Decode(id)
		} else {
			out[i] = st.Resources.Decode(id)
		}
	}
	return out
}

// StringRows decodes all rows as one batch (dict.DecodeRows), each column
// through the dictionary its slot draws from.
func (r *Result) StringRows(st *store.Store) [][]string {
	dicts := make([]*dict.Dict, len(r.Plan.Project))
	for i, slot := range r.Plan.Project {
		dicts[i] = st.Resources
		if r.Plan.SlotIsPred[slot] {
			dicts[i] = st.Predicates
		}
	}
	return dict.DecodeRows(dicts, r.Rows)
}

// Execute runs plan against st. It returns an error only for option/plan
// mismatches (e.g. an index strategy on a store built without indexes);
// data-dependent emptiness is a normal empty Result.
func Execute(st *store.Store, plan *optimizer.Plan, opts Options) (*Result, error) {
	return ExecuteShardRange(st, plan, opts, 0, -1)
}

// ExecuteShardRange runs only the shards with index in [from, to) of the
// deterministic global sharding implied by opts.Threads (to < 0 means "to
// the end"). The single-machine Execute uses the full range; the cluster
// extension (package cluster, paper §6) gives each replicated node a
// disjoint range, so the union of the nodes' results over the same plan
// and thread count is exactly the full result, with no inter-node
// communication.
func ExecuteShardRange(st *store.Store, plan *optimizer.Plan, opts Options, from, to int) (*Result, error) {
	res := &Result{Plan: plan}
	for _, slot := range plan.Project {
		res.Vars = append(res.Vars, plan.SlotVars[slot])
	}
	x, err := prepare(st, plan, &opts, from, to)
	if err != nil {
		return res, err
	}
	defer x.gov.ReleasePool()
	if x.constant {
		res.Count = 1
		if !opts.Silent {
			res.Rows = [][]uint32{make([]uint32, len(plan.Project))}
		}
		return res, nil
	}

	s := x.launch(nil)
	s.wg.Wait()
	workers := s.workers
	if opts.MeasureShards {
		res.ShardDurations = s.durations
		res.simMakespan = listScheduleMakespan(s.durations, x.nworkers)
	}

	var total int64
	for _, w := range workers {
		res.Stats.Add(w.stats)
		res.Sched.Workers = append(res.Sched.Workers, w.wstat)
		total += w.count
	}
	if err := x.gov.Err(); err != nil {
		// Governed failure or contained panic: report partial progress
		// (count and probe stats) alongside the typed error, but never hand
		// out partial rows.
		res.Count = total
		return res, err
	}
	if x.materialize {
		// The result's one row-header array, each row a slice of the chunk
		// its worker wrote it into.
		rows := make([][]uint32, 0, total)
		for _, w := range workers {
			rows = w.appendRows(rows)
		}
		rows, res.Count = Compact(rows, 0, plan.Distinct, plan.Limit)
		if !opts.Silent {
			res.Rows = rows
		}
	} else {
		_, res.Count = Compact(nil, total, plan.Distinct, plan.Limit)
	}
	return res, nil
}

// execution is one query's resolved configuration — everything Execute,
// ExecuteShardRange and ExecuteStream derive from (store, plan, options,
// shard range) before the first worker starts.
type execution struct {
	st   *store.Store
	plan *optimizer.Plan
	opts *Options

	// constant marks an all-constant plan verified at plan time: one empty
	// solution and no work.
	constant bool
	// wp is non-nil when the worst-case-optimal operator runs (wcoj.go).
	wp *wcojPlan
	// morsels is the range's outer-relation work in dispatch order; nworkers
	// is how many workers it is spread over.
	morsels  []*morsel
	nworkers int

	// materialize: DISTINCT must see the projected rows even in silent mode.
	materialize bool
	// The governor always exists (it is where a contained worker panic
	// lands); per-step gates are only handed out when the options actually
	// constrain the query, so ungoverned execution pays nothing per step.
	gov      *governance.Governor
	governed bool
}

// prepare validates the options against store and plan and resolves the
// execution: thread count, join operator, the deterministic partition of the
// first relation clamped to shard range [from, to) and cut into morsels, and
// the governor. An execution without morsels (empty plan, empty range) runs
// no workers and yields the empty result.
func prepare(st *store.Store, plan *optimizer.Plan, opts *Options, from, to int) (*execution, error) {
	if opts.Context != nil && opts.Context.Err() != nil {
		// Dead on arrival: don't start workers for an expired context.
		return nil, governance.CtxError(opts.Context)
	}
	if opts.CheckInterval == 0 {
		opts.CheckInterval = governance.IntervalForEstimate(plan.EstResultRows())
	}
	cfg := opts.governanceConfig()
	x := &execution{
		st: st, plan: plan, opts: opts,
		materialize: !opts.Silent || plan.Distinct,
		gov:         governance.New(cfg),
		governed:    cfg.Enabled(),
	}
	if plan.Empty {
		return x, nil
	}
	if opts.Strategy.NeedsIndex() {
		for p := 1; p <= st.NumPredicates(); p++ {
			if st.SO(uint32(p)).Index == nil {
				return nil, fmt.Errorf("core: strategy %v requires a store built with BuildPosIndex", opts.Strategy)
			}
		}
	}
	if len(plan.Patterns) == 0 {
		// All patterns were constant and verified at plan time: one empty
		// solution, produced by the range holding shard 0 so a cluster
		// emits it exactly once.
		x.constant = from == 0
		return x, nil
	}

	threads := opts.Threads
	if threads <= 0 {
		threads = runtime.GOMAXPROCS(0)
	}
	// Operator choice: the worst-case-optimal join shards the first
	// variable's materialized domain at this same layer, so the cluster's
	// deterministic [from, to) shard-range contract is preserved.
	x.wp = wcojFor(st, plan, opts)
	var shards [][]*morsel
	if x.wp != nil {
		shards = makeWCOJShards(x.wp, threads)
	} else {
		shards = makeShards(st, plan, threads)
	}
	// A full-range execution spreads the morsels over `threads` workers; an
	// explicit sub-range (a cluster node) gets one worker per shard of its
	// range, preserving the deterministic per-node thread allotment.
	fullRange := from <= 0 && to < 0
	if from < 0 {
		from = 0
	}
	if to < 0 || to > len(shards) {
		to = len(shards)
	}
	if from > len(shards) {
		from = len(shards)
	}
	if from > to {
		from = to
	}
	shards = shards[from:to]

	x.morsels = makeMorsels(shards, opts.MorselSize)
	x.nworkers = threads
	if !fullRange {
		x.nworkers = len(shards)
	}
	if x.nworkers > len(x.morsels) {
		x.nworkers = len(x.morsels)
	}
	return x, nil
}

// launch starts the execution's workers over one scheduler, one goroutine
// each, and returns it; s.wg is done when the last worker has finished.
// initSink, when non-nil, sets up every worker's stream sink (ExecuteStream).
// Under MeasureShards a single worker drains the morsels one at a time and
// the scheduler records each morsel's duration.
func (x *execution) launch(initSink func(*streamSink)) *scheduler {
	n := x.nworkers
	if x.opts.MeasureShards && n > 1 {
		n = 1
	}
	workers := make([]*worker, n)
	for id := range workers {
		workers[id] = x.newWorker(initSink)
	}
	s := newScheduler(x.morsels, workers, x.gov)
	s.measure = x.opts.MeasureShards
	for _, w := range workers {
		s.wg.Add(1)
		go func(w *worker) {
			defer s.wg.Done()
			runContained(x.gov, s, w)
		}(w)
	}
	return s
}

// guard is the dead space kept on both sides of everything a worker writes
// in the hot loop, so that no two workers ever write the same cache line —
// the "workers never communicate" of §3 has to hold for the coherence
// protocol too, not just for the source. Two 64-byte lines rather than one:
// the adjacent-line prefetcher fetches lines in aligned 128-byte pairs, so a
// sibling's write one line over still steals the pair.
const guard = 128

// isolated returns a zeroed n-element slice with at least guard bytes of its
// own allocation on either side, whatever the allocator places next to it.
// Allocating the small per-worker slices back to back from one size class is
// exactly what packed two workers' bindings into one line before.
func isolated[T any](n int) []T {
	var z T
	g := (guard + int(unsafe.Sizeof(z)) - 1) / int(unsafe.Sizeof(z))
	return make([]T, g+n+g)[g : g+n : g+n]
}

// rowFootprint estimates the materialized size of one projected row: the
// uint32 payload plus the slice header, the figure the memory budget
// charges per row.
func rowFootprint(projected int) int64 { return int64(projected)*4 + 24 }

// newWorker constructs one worker wired to the query's governor. A worker
// with a sink streams its rows instead of holding them: it charges produced
// rows against MaxResultRows but no memory — the whole point of the iterator
// path (§5.2) is that it never accumulates the result. Everything the worker
// writes per probe lives inside the guarded struct or an isolated slice; a
// single-worker execution takes the same layout.
func (x *execution) newWorker(initSink func(*streamSink)) *worker {
	plan := x.plan
	w := &worker{
		st:          x.st,
		plan:        plan,
		strategy:    x.opts.Strategy,
		tracer:      x.opts.MemTracer,
		fault:       probeFaultHook,
		hooked:      x.opts.MemTracer != nil || probeFaultHook != nil,
		binding:     isolated[uint32](plan.NumSlots),
		cursors:     isolated[int](len(plan.Patterns)),
		materialize: x.materialize && initSink == nil,
		limit:       plan.Limit,
		tick:        ungovernedTick,
	}
	if initSink != nil {
		initSink(&w.sinkMem)
		w.stream = &w.sinkMem
	}
	if plan.Distinct && plan.Limit > 0 {
		w.seen = make(map[string]bool)
	}
	if x.governed {
		w.gov = x.gov
		w.tick = int64(x.gov.Interval())
		if w.materialize {
			w.rowBytes = rowFootprint(len(plan.Project))
		}
	}
	if x.wp != nil {
		w.wcoj = newWCOJExec(x.wp, !w.materialize && w.stream == nil)
	}
	return w
}

// Compact is the last DISTINCT/LIMIT step of an answer gathered from parts
// — a query's workers, or a coordinator's shards — each of which applied
// both to its own rows: over the concatenated rows it yields the global
// answer, min(LIMIT, |distinct rows|), and their count. rows == nil is a
// count-only gather: count, the parts' summed counts, is capped at limit.
// limit <= 0 means no LIMIT (a LIMIT 0 query plans empty and gathers
// nothing). Distinct rows are deduplicated in place, first occurrences kept
// in order.
func Compact(rows [][]uint32, count int64, distinct bool, limit int) ([][]uint32, int64) {
	if rows == nil {
		if limit > 0 && count > int64(limit) {
			count = int64(limit)
		}
		return nil, count
	}
	if distinct {
		rows = dedupRows(rows)
	}
	if limit > 0 && len(rows) > limit {
		rows = rows[:limit]
	}
	return rows, int64(len(rows))
}

// dedupRows removes duplicate rows in place, keeping first occurrences in
// order.
func dedupRows(rows [][]uint32) [][]uint32 {
	seen := make(map[string]bool, len(rows))
	var key []byte
	out := rows[:0]
	for _, r := range rows {
		key = rowKey(key[:0], r)
		k := string(key)
		if !seen[k] {
			seen[k] = true
			out = append(out, r)
		}
	}
	return out
}

// rowKey appends row's canonical byte encoding to dst — the map key both
// dedupRows and the workers' incremental DISTINCT tracking hash on.
func rowKey(dst []byte, row []uint32) []byte {
	for _, v := range row {
		dst = append(dst, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	}
	return dst
}

// worker executes morsels of the first relation through the whole
// pipeline. Workers share only immutable data, and — guard pads at both ends,
// sink and WCOJ scratch held by value — no cache line either.
type worker struct {
	_ [guard]byte

	st       *store.Store
	plan     *optimizer.Plan
	strategy Strategy
	tracer   search.Tracer // nil unless Table-6-style tracing is on
	fault    func()        // probeFaultHook, captured at construction; nil in production
	hooked   bool          // tracer != nil || fault != nil: one branch guards both rare paths

	binding []uint32
	cursors []int // per-pattern key-array cursor for sequential resumption

	// chunks holds the chunks materialized rows are written into, back to
	// back; arena is the unused tail of the last one (growArena). count is
	// the rows emitted so far, kept or counted.
	materialize bool
	chunks      [][]uint32
	arena       []uint32
	count       int64
	limit       int
	// seen, non-nil only under DISTINCT+LIMIT, dedups incrementally so
	// the limit cutoff below counts distinct rows, not produced rows —
	// stopping at `limit` produced rows could dedup to fewer than the
	// distinct rows its morsels actually hold.
	seen    map[string]bool
	seenKey []byte

	// tick is the amortized governance countdown: every probe decrements
	// it, and only when it reaches zero does slowTick consult the governor.
	// For ungoverned queries it starts at a practically unreachable value, so
	// the hot recursion pays one decrement-and-branch on a field it already
	// owns — no pointer chase, no inlined slow-path code. gov is nil when
	// the query is ungoverned; rowBytes is the per-row memory charge when
	// rows are materialized; flushed is how many produced rows have been
	// charged to gov so far (production itself is read off count, so emit
	// carries no governance code at all).
	tick     int64
	gov      *governance.Governor
	rowBytes int64
	flushed  int64

	// stream, when non-nil, routes rows to ExecuteStream's collector
	// instead of buffering them; it points at sinkMem.
	stream  *streamSink
	sinkMem streamSink

	// inflight is the morsel this worker is draining, published for stealers
	// to split (scheduler.steal). It is never cleared: a worker that stops
	// early within its own LIMIT budget leaves its remainder visible, though
	// by then the query outcome no longer needs it. wstat tracks the worker's
	// scheduler activity; exp0 caches the union tables of an expanded first
	// pattern across the worker's morsels.
	inflight atomic.Pointer[morsel]
	wstat    WorkerStat
	exp0     []*store.Table

	// wcoj is the scratch of the worst-case-optimal executor (wcoj.go), set
	// when the execution runs it; the pipeline's cursors stay unused then.
	wcoj wcojExec

	stats search.Stats

	_ [guard]byte
}

// emit records one full binding; it returns false when the worker's LIMIT
// budget is exhausted (or, in streaming mode, when the consumer cancelled).
func (w *worker) emit() bool {
	if w.stream != nil {
		row := make([]uint32, len(w.plan.Project))
		for i, slot := range w.plan.Project {
			row[i] = w.binding[slot]
		}
		w.count++
		return w.stream.push(row)
	}
	if w.materialize {
		n := len(w.plan.Project)
		if len(w.arena) < n {
			w.growArena(n)
		}
		row := w.arena[:n:n]
		for i, slot := range w.plan.Project {
			row[i] = w.binding[slot]
		}
		if w.seen != nil {
			w.seenKey = rowKey(w.seenKey[:0], row)
			if w.seen[string(w.seenKey)] {
				// Duplicate: not kept, not counted toward LIMIT. The arena
				// has not moved, so the next row is built over this one.
				return true
			}
			w.seen[string(w.seenKey)] = true
		}
		w.arena = w.arena[n:]
	}
	w.count++
	return w.limit == 0 || w.count < int64(w.limit)
}

// Rows are written into chunks, each as large as all the rows before it,
// from firstChunkRows rows up to maxChunk values: a point query's single row
// costs one small allocation as it always did, a large result one allocation
// per 64 KB instead of one per row, and a caller that keeps a single row
// pins at most one chunk.
const (
	firstChunkRows = 8
	maxChunk       = 16 << 10 // uint32 values: 64 KB
)

// growArena starts a new chunk with room for at least one n-value row. The
// last chunk is cut to the rows written into it (what is left is less than
// one row) and kept.
func (w *worker) growArena(n int) {
	w.sealChunk()
	size := max(min(max(firstChunkRows, int(w.count))*n, maxChunk), n)
	w.chunks = append(w.chunks, make([]uint32, size))
	w.arena = w.chunks[len(w.chunks)-1]
}

// sealChunk cuts the last chunk to the rows written into it, so that every
// chunk holds whole rows and nothing else.
func (w *worker) sealChunk() {
	if k := len(w.chunks) - 1; k >= 0 {
		w.chunks[k] = w.chunks[k][:len(w.chunks[k])-len(w.arena)]
		w.arena = nil
	}
}

// appendRows appends the worker's materialized rows to dst, in emit order,
// as slices of its chunks (AppendRows). Zero-width rows take no chunk.
func (w *worker) appendRows(dst [][]uint32) [][]uint32 {
	n := len(w.plan.Project)
	if n == 0 {
		return AppendRows(dst, nil, 0, int(w.count))
	}
	w.sealChunk()
	for _, c := range w.chunks {
		dst = AppendRows(dst, c, n, len(c)/n)
	}
	return dst
}

// AppendRows appends the n rows of width IDs that block holds back to back
// to dst. Each row is a slice of block whose capacity is its width, so
// appending to one row never writes its neighbour. Zero-width rows take
// nothing from block, so n, not len(block), says how many there are.
func AppendRows(dst [][]uint32, block []uint32, width, n int) [][]uint32 {
	for off := 0; n > 0; n-- {
		dst = append(dst, block[off:off+width:off+width])
		off += width
	}
	return dst
}

// table returns the replica pattern pi uses for predicate p.
func (w *worker) table(pi int, p uint32) *store.Table {
	if w.plan.Patterns[pi].UseOS {
		return w.st.OS(p)
	}
	return w.st.SO(p)
}

// locate runs the configured probe strategy; the search kernels inline
// into this body.
func (w *worker) locate(t *store.Table, v uint32, cur *int) (int, bool) {
	switch w.strategy {
	case BinaryOnly:
		w.stats.Binary++
		return search.Binary(t.Keys, v, cur)
	case AdaptiveBinary:
		return search.Adaptive(t.Keys, v, cur, t.Threshold, &w.stats)
	case IndexOnly:
		w.stats.Index++
		pos, ok := t.Index.Lookup(v)
		if ok {
			*cur = pos
		}
		return pos, ok
	default: // AdaptiveIndex
		if len(t.Keys) == 0 {
			return 0, false
		}
		i := *cur
		if i < 0 || i >= len(t.Keys) {
			i = 0
			*cur = 0
		}
		dist := int64(t.Keys[i]) - int64(v)
		if dist < 0 {
			dist = -dist
		}
		if dist <= int64(t.IndexThreshold) {
			w.stats.Sequential++
			return search.Sequential(t.Keys, v, cur)
		}
		w.stats.Index++
		pos, ok := t.Index.Lookup(v)
		if ok {
			*cur = pos
		}
		return pos, ok
	}
}

// locateKeyHooked is the cold probe variant for fault injection and Table-6
// memory tracing, dispatched to by stepWithPred when w.hooked is set. Under a
// tracer it mirrors locate with every array access replayed through the
// tracer. Kept out of line: an inline indirect call would force register
// spills into the hot probe path and slow the inlined search loops in locate.
//
//go:noinline
func (w *worker) locateKeyHooked(t *store.Table, v uint32, cur *int) (int, bool) {
	if w.fault != nil {
		w.fault()
	}
	if w.tracer == nil {
		return w.locate(t, v, cur)
	}
	switch w.strategy {
	case BinaryOnly:
		w.stats.Binary++
		return search.BinaryTraced(t.Keys, v, cur, t.KeysBase, w.tracer)
	case AdaptiveBinary:
		return search.AdaptiveTraced(t.Keys, v, cur, t.Threshold, t.KeysBase, w.tracer, &w.stats)
	case IndexOnly:
		w.stats.Index++
		pos, ok := t.Index.LookupTraced(v, t.IndexBases, w.tracer)
		if ok {
			*cur = pos
		}
		return pos, ok
	default: // AdaptiveIndex
		if len(t.Keys) == 0 {
			return 0, false
		}
		i := *cur
		if i < 0 || i >= len(t.Keys) {
			i = 0
			*cur = 0
		}
		w.tracer.Access(t.KeysBase + uint64(i)*4)
		dist := int64(t.Keys[i]) - int64(v)
		if dist < 0 {
			dist = -dist
		}
		if dist <= int64(t.IndexThreshold) {
			w.stats.Sequential++
			return search.SequentialTraced(t.Keys, v, cur, t.KeysBase, w.tracer)
		}
		w.stats.Index++
		pos, ok := t.Index.LookupTraced(v, t.IndexBases, w.tracer)
		if ok {
			*cur = pos
		}
		return pos, ok
	}
}

// searchRun locates v inside a (short, sorted) run with binary search.
func searchRun(run []uint32, v uint32) bool {
	_, ok := slices.BinarySearch(run, v)
	return ok
}

// ungovernedTick is the step countdown for ungoverned workers: large enough
// that no real execution reaches zero (it would take centuries of steps), so
// the recursion never leaves the fast path.
const ungovernedTick = 1 << 62

// slowTick is the amortized slow path of the per-step governance check: it
// refills the countdown, then charges the rows produced since the last
// check and consults the governor. Kept out of line so the hot recursion
// inlines only the decrement-and-branch.
//
//go:noinline
func (w *worker) slowTick() bool {
	if w.gov == nil {
		w.tick = ungovernedTick
		return true
	}
	w.tick = int64(w.gov.Interval())
	return w.flushProduced()
}

// flushProduced charges the rows emitted since the last flush (and their
// materialized bytes) to the governor and reports whether the worker should
// continue. Only called when w.gov != nil.
func (w *worker) flushProduced() bool {
	n := w.count - w.flushed
	w.flushed = w.count
	return w.gov.Produced(n, n*w.rowBytes)
}

// step evaluates pattern pi under the current binding and recurses. It
// returns false to abort the worker (limit reached, or a governance check
// tripped — the governor records which). The governance tick lives in
// values/valuesUnion and the shard loops — every recursion passes through
// one of them — so step itself stays tick-free.
func (w *worker) step(pi int) bool {
	if pi == len(w.plan.Patterns) {
		return w.emit()
	}
	pp := &w.plan.Patterns[pi]
	if pp.Expanded() {
		return w.stepExpanded(pi, pp)
	}
	if pp.PredID != 0 {
		return w.stepWithPred(pi, pp, pp.PredID)
	}
	if !pp.PredNew {
		return w.stepWithPred(pi, pp, w.binding[pp.PredSlot])
	}
	// New predicate variable: union over all predicates (paper §3, noted
	// as rare in real queries).
	for p := uint32(1); p <= uint32(w.st.NumPredicates()); p++ {
		w.binding[pp.PredSlot] = p
		if !w.stepWithPred(pi, pp, p) {
			return false
		}
	}
	return true
}

func (w *worker) stepWithPred(pi int, pp *optimizer.PatternPlan, pred uint32) bool {
	t := w.table(pi, pred)
	switch pp.Key.Kind {
	case optimizer.Const:
		pos := pp.KeyConstPos
		if pos < 0 || pp.PredID == 0 {
			// No precomputed position (variable predicate): plain lookup.
			p, ok := t.LookupKey(pp.Key.Const)
			if !ok {
				return true
			}
			pos = p
		}
		return w.values(pi, pp, t, pos)
	case optimizer.BoundVar:
		v := w.binding[pp.Key.Slot]
		cur := &w.cursors[pi]
		var pos int
		var ok bool
		if w.hooked { // rare: fault injection or Table-6 memory tracing
			pos, ok = w.locateKeyHooked(t, v, cur)
		} else {
			pos, ok = w.locate(t, v, cur)
		}
		if !ok {
			return true
		}
		return w.values(pi, pp, t, pos)
	default: // NewVar: scan all keys (cartesian or self-join pattern)
		for pos := range t.Keys {
			w.binding[pp.Key.Slot] = t.Keys[pos]
			if !w.values(pi, pp, t, pos) {
				return false
			}
		}
		return true
	}
}

// values handles the value column of pattern pi for the key at pos. The
// governance tick here (in addition to step's) covers key scans whose probes all
// miss — a worst-case scan must still observe cancellation.
func (w *worker) values(pi int, pp *optimizer.PatternPlan, t *store.Table, pos int) bool {
	if w.tick--; w.tick <= 0 && !w.slowTick() {
		return false
	}
	run := t.Run(pos)
	switch pp.Val.Kind {
	case optimizer.NewVar:
		for _, v := range run {
			w.binding[pp.Val.Slot] = v
			if !w.step(pi + 1) {
				return false
			}
		}
		return true
	case optimizer.BoundVar:
		if searchRun(run, w.binding[pp.Val.Slot]) {
			return w.step(pi + 1)
		}
		return true
	default: // Const
		if searchRun(run, pp.Val.Const) {
			return w.step(pi + 1)
		}
		return true
	}
}

// makeShards splits the first pattern into at most threads balanced shards
// (paper §3: the degree of parallelism comes from sharding the first
// table, or the matching vector when the first pattern is selective). A
// shard is a list of uncut morsels — one per (predicate, key or value range)
// it covers, so exactly one for a constant predicate; makeMorsels re-cuts
// them to the scheduler's bound.
func makeShards(st *store.Store, plan *optimizer.Plan, threads int) [][]*morsel {
	pp := &plan.Patterns[0]
	if pp.Expanded() {
		return makeExpandedShards(st, pp, threads)
	}

	// Enumerate the work units: one (table, size) per candidate predicate.
	type unit struct {
		t      *store.Table
		pred   uint32
		keyPos int // -1 = shard keys, else shard this run
		size   int
	}
	var units []unit
	preds := []uint32{pp.PredID}
	if pp.PredID == 0 {
		preds = preds[:0]
		for p := uint32(1); p <= uint32(st.NumPredicates()); p++ {
			preds = append(preds, p)
		}
	}
	for _, p := range preds {
		var t *store.Table
		if pp.UseOS {
			t = st.OS(p)
		} else {
			t = st.SO(p)
		}
		if pp.Key.Kind == optimizer.Const {
			pos := pp.KeyConstPos
			if pp.PredID == 0 { // variable predicate: resolve per table
				q, ok := t.LookupKey(pp.Key.Const)
				if !ok {
					continue
				}
				pos = q
			}
			if pos < 0 {
				continue
			}
			lo, hi := t.RunBounds(pos)
			units = append(units, unit{t: t, pred: p, keyPos: pos, size: hi - lo})
		} else {
			units = append(units, unit{t: t, pred: p, keyPos: -1, size: t.NumKeys()})
		}
	}
	total := 0
	for _, u := range units {
		total += u.size
	}
	if total == 0 {
		return nil
	}
	if threads > total {
		threads = total
	}

	// Assign contiguous global ranges of size ≈ total/threads: key positions
	// when the first pattern's key is a variable, run-relative value
	// positions of a constant key's run otherwise (Example 3.2: sharding the
	// subject vector of a selective O-S lookup).
	shards := make([][]*morsel, 0, threads)
	per := (total + threads - 1) / threads
	var cur []*morsel
	curSize := 0
	for _, u := range units {
		kind := morselKeys
		if u.keyPos >= 0 {
			kind = morselRun
		}
		offset := 0
		for offset < u.size {
			room := per - curSize
			n := u.size - offset
			if n > room {
				n = room
			}
			cur = append(cur, newMorsel(kind, u.t, u.pred, u.keyPos, nil, offset, offset+n))
			curSize += n
			offset += n
			if curSize >= per {
				shards = append(shards, cur)
				cur, curSize = nil, 0
			}
		}
	}
	if len(cur) > 0 {
		shards = append(shards, cur)
	}
	return shards
}

// makeExpandedShards shards a hierarchy-expanded first pattern. The two
// parallelizable forms materialize the deduplicated union once and slice
// it — the key union when the key is a new variable, the value union of a
// constant-key lookup; anything else (e.g. an all-constant expanded pattern)
// falls back to a single unsplittable whole-pattern morsel.
func makeExpandedShards(st *store.Store, pp *optimizer.PatternPlan, threads int) [][]*morsel {
	tables := make([]*store.Table, 0, len(pp.Preds()))
	for _, p := range pp.Preds() {
		if pp.UseOS {
			tables = append(tables, st.OS(p))
		} else {
			tables = append(tables, st.SO(p))
		}
	}
	switch {
	case pp.Key.Kind == optimizer.NewVar:
		return sliceShards(morselUnionKeys, mergedUnionKeys(tables), threads)
	case pp.Key.Kind == optimizer.Const && pp.Val.Kind == optimizer.NewVar:
		return sliceShards(morselUnionVals, mergedUnionValues(tables, keyConstants(pp)), threads)
	default:
		return [][]*morsel{{newMorsel(morselWhole, nil, 0, 0, nil, 0, 1)}}
	}
}

// sliceShards splits a materialized array into at most threads contiguous
// shards of ⌈len/threads⌉ entries, one uncut morsel each.
func sliceShards(kind morselKind, u []uint32, threads int) [][]*morsel {
	if len(u) == 0 {
		return nil
	}
	if threads > len(u) {
		threads = len(u)
	}
	per := (len(u) + threads - 1) / threads
	shards := make([][]*morsel, 0, threads)
	for from := 0; from < len(u); from += per {
		to := from + per
		if to > len(u) {
			to = len(u)
		}
		shards = append(shards, []*morsel{newMorsel(kind, nil, 0, 0, u, from, to)})
	}
	return shards
}

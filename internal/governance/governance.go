// Package governance provides the resource-governance and fault-containment
// primitives of the query path: the typed error taxonomy (cancellation,
// deadlines, budgets, load shedding, contained panics), the per-query
// Governor that workers consult on an amortized schedule, and the store-wide
// admission controller and memory pool (admission.go).
//
// The paper's full-result-handling design (§5.2) exists so PARJ survives
// hostile queries — the 1.6-billion-row IL-3-8 result that kills TriAD.
// This package is the enforcement side of that philosophy: a query that
// would exceed its deadline, its row or memory budget, or the store's
// concurrency envelope is stopped with a typed error instead of taking the
// process down, and a panicking worker goroutine is converted into a query
// error instead of a crash.
package governance

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
)

// Typed governance errors. All errors produced by this package (and by the
// engine's governance checks) wrap exactly one of these sentinels, so
// callers dispatch with errors.Is. ErrCanceled and ErrDeadlineExceeded
// additionally match context.Canceled and context.DeadlineExceeded
// respectively, so code written against the context package's errors keeps
// working.
var (
	// ErrCanceled reports that the query's context was canceled.
	ErrCanceled = &taggedError{msg: "query canceled", alias: context.Canceled}
	// ErrDeadlineExceeded reports that the query's deadline or timeout
	// expired mid-execution.
	ErrDeadlineExceeded = &taggedError{msg: "query deadline exceeded", alias: context.DeadlineExceeded}
	// ErrBudgetExceeded reports that the query produced more rows or
	// materialized more bytes than its configured budget allows.
	ErrBudgetExceeded = errors.New("query budget exceeded")
	// ErrOverloaded is the load-shedding error: the store's admission
	// queue was full for longer than the configured wait.
	ErrOverloaded = errors.New("store overloaded: admission queue timed out")
)

// taggedError is a sentinel that also matches a context package error, so
// errors.Is(err, context.Canceled) and errors.Is(err, ErrCanceled) agree.
type taggedError struct {
	msg   string
	alias error
}

func (e *taggedError) Error() string { return e.msg }

func (e *taggedError) Is(target error) bool { return target == e.alias }

// PanicError is a worker panic converted into a query error. The panic is
// contained: the process keeps serving, and the stack of the offending
// goroutine is preserved for diagnosis.
type PanicError struct {
	// Value is the value passed to panic().
	Value any
	// Stack is the goroutine stack captured at recovery.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("query worker panic: %v\n%s", e.Value, e.Stack)
}

// IsPolicy reports whether err is a governance outcome — a cancellation,
// deadline, budget, or load-shedding error — rather than an engine failure.
// Differential harnesses use it to classify such outcomes as policy
// results, not result divergences.
func IsPolicy(err error) bool {
	return errors.Is(err, ErrCanceled) ||
		errors.Is(err, ErrDeadlineExceeded) ||
		errors.Is(err, ErrBudgetExceeded) ||
		errors.Is(err, ErrOverloaded)
}

// DefaultCheckInterval is how many worker steps (bindings produced or keys
// scanned) pass between two governance checks. 4096 keeps the Silent-mode
// hot path flat: the per-step cost is one predictable decrement-and-branch,
// and the reaction latency to a cancel stays far under the 100ms target
// even under the race detector.
const DefaultCheckInterval = 4096

// Governor is the shared per-query control block. Workers consult it on an
// amortized schedule (every CheckInterval steps) through Produced; the first
// violation or panic stops every worker at its next check.
//
// The zero Governor is not usable; call New.
type Governor struct {
	done <-chan struct{} // ctx.Done(); nil when the context can't be canceled
	ctx  context.Context

	maxRows int64 // produced-row budget; 0 = unlimited
	maxMem  int64 // materialized-byte budget; 0 = unlimited
	pool    *Pool // store-wide shared memory budget; nil = none

	rows   atomic.Int64 // rows produced across workers (flushed amortized)
	mem    atomic.Int64 // bytes materialized across workers
	pooled atomic.Int64 // bytes this query holds in the shared pool

	stopped atomic.Bool
	err     atomic.Pointer[error]

	interval int
}

// Config bounds one query execution.
type Config struct {
	// Context carries the query's cancellation and deadline; nil means
	// context.Background().
	Context context.Context
	// MaxResultRows bounds the rows the engine produces (before final
	// DISTINCT/LIMIT compaction — that is what costs memory and time);
	// 0 = unlimited.
	MaxResultRows int64
	// MemoryBudget bounds the bytes of materialized result rows;
	// 0 = unlimited. Silent (non-materializing) execution charges nothing.
	MemoryBudget int64
	// MemPool, when non-nil, is the store-wide shared memory budget this
	// query charges its materialized bytes against, in addition to its own
	// MemoryBudget. N concurrent queries race one pool, so a burst cannot
	// multiply the per-query bound into an OOM.
	MemPool *Pool
	// CheckInterval overrides DefaultCheckInterval (useful for tests and
	// for plans whose estimated cardinality warrants tighter checks).
	CheckInterval int
}

// Enabled reports whether the configuration imposes any constraint at all.
// Ungoverned queries skip the per-step bookkeeping entirely.
func (c Config) Enabled() bool {
	return (c.Context != nil && c.Context.Done() != nil) ||
		c.MaxResultRows > 0 || c.MemoryBudget > 0 || c.MemPool != nil
}

// New builds a Governor for one query execution.
func New(c Config) *Governor {
	ctx := c.Context
	if ctx == nil {
		ctx = context.Background()
	}
	interval := c.CheckInterval
	if interval <= 0 {
		interval = DefaultCheckInterval
	}
	return &Governor{
		done:     ctx.Done(),
		ctx:      ctx,
		maxRows:  c.MaxResultRows,
		maxMem:   c.MemoryBudget,
		pool:     c.MemPool,
		interval: interval,
	}
}

// Fail records err as the query's outcome (first writer wins) and stops
// every worker at its next governance check. Safe for concurrent use.
func (g *Governor) Fail(err error) {
	if err == nil {
		return
	}
	g.err.CompareAndSwap(nil, &err)
	g.stopped.Store(true)
}

// Err returns the recorded violation, or nil while the query is healthy.
func (g *Governor) Err() error {
	if p := g.err.Load(); p != nil {
		return *p
	}
	return nil
}

// Stopped reports whether workers should abandon the query.
func (g *Governor) Stopped() bool { return g.stopped.Load() }

// Interval returns the resolved amortized check interval. Engines keep their
// own worker-local step countdown (cheaper than a per-step call in the inner
// recursion) and refill it from here.
func (g *Governor) Interval() int { return g.interval }

// Check runs the slow-path inspection: context state first (a deadline is
// the most common violation), then a cross-worker stop set by a peer.
// Produced calls it amortized; collectors call it per batch.
func (g *Governor) Check() bool {
	if g.done != nil {
		select {
		case <-g.done:
			g.Fail(CtxError(g.ctx))
			return false
		default:
		}
	}
	return !g.stopped.Load()
}

// Produced charges rows result rows totalling bytes materialized bytes,
// produced by one worker since its last call, to the shared totals, verifies
// the budgets and then runs Check. Workers call it on their own amortized
// schedule and once more when they finish, so the shared atomics stay off
// the per-row path, the overshoot is bounded by workers × CheckInterval rows
// and the accounting is exact once all workers are done.
func (g *Governor) Produced(rows, bytes int64) bool {
	if g.maxRows > 0 && g.rows.Add(rows) > g.maxRows {
		g.Fail(fmt.Errorf("%w: more than %d result rows", ErrBudgetExceeded, g.maxRows))
		return false
	}
	if g.maxMem > 0 && g.mem.Add(bytes) > g.maxMem {
		g.Fail(fmt.Errorf("%w: more than %d bytes of materialized results", ErrBudgetExceeded, g.maxMem))
		return false
	}
	if g.pool != nil && bytes > 0 {
		if !g.pool.TryCharge(bytes) {
			g.Fail(fmt.Errorf("%w: shared memory pool exhausted (%d of %d bytes in use across queries)",
				ErrBudgetExceeded, g.pool.Used(), g.pool.Capacity()))
			return false
		}
		g.pooled.Add(bytes)
	}
	return g.Check()
}

// ReleasePool returns every byte this query holds in the shared pool.
// The engine calls it exactly once when execution finishes (success or
// failure); it is idempotent so defensive double-calls are harmless.
func (g *Governor) ReleasePool() {
	if g == nil || g.pool == nil {
		return
	}
	if held := g.pooled.Swap(0); held > 0 {
		g.pool.Release(held)
	}
}

// CtxError maps a context's termination cause to the typed taxonomy:
// ErrDeadlineExceeded for an expired deadline, ErrCanceled otherwise.
func CtxError(ctx context.Context) error {
	if errors.Is(ctx.Err(), context.DeadlineExceeded) {
		return ErrDeadlineExceeded
	}
	return ErrCanceled
}

// IntervalForEstimate suggests a governance check interval from the
// optimizer's estimated result cardinality: plans expected to produce
// millions of rows get checked four times as often, tightening reaction to
// deadlines exactly where queries run long. Estimates within the default
// interval keep the default (the query may finish before a single check).
func IntervalForEstimate(estRows float64) int {
	if estRows >= 1e6 {
		return DefaultCheckInterval / 4
	}
	return DefaultCheckInterval
}

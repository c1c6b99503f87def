package governance

// admission.go — admission control and the store-wide memory pool.
//
// A fixed-wait queue is blind: under a sustained overload storm every
// queued query waits the full configured wait and then sheds, so the queue
// delay of admitted queries grows to the configured wait and p99 collapses
// for everyone. The AdaptiveLimiter is a CoDel-style controller
// (Nichols & Jacobson, "Controlling Queue Delay"): it tracks the *sojourn
// time* — how long an admitted query sat in the admission queue — and once
// sojourn has stayed above a small target for a full control interval it
// flips into shedding mode, where over-admission arrivals queue only for
// the target instead of the full wait (a Target at or above MaxWait never
// shortens the wait: that configuration is the plain fixed-wait queue).
// Standing queues drain, admitted queries keep a bounded p99, and shed
// queries get a typed ErrOverloaded with a Retry-After hint instead of
// burning their whole client budget in a queue they were never going to
// clear.
//
// Deadline propagation composes here: Acquire clamps its queue wait to the
// caller's remaining context budget, refuses work whose budget is already
// below the current queue-delay estimate (it would expire in the queue),
// and reports ErrDeadlineExceeded — not ErrOverloaded — whenever the
// deadline, rather than the admission policy, was the binding constraint.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"parj/internal/resilience"
)

// OverloadError is a load-shedding rejection carrying a Retry-After hint:
// how long the shedding controller estimates the caller should wait before
// the queue has drained enough to be worth another attempt. It unwraps to
// ErrOverloaded, so errors.Is dispatch is unchanged.
type OverloadError struct {
	// RetryAfter is the suggested client backoff (always > 0).
	RetryAfter time.Duration
}

func (e *OverloadError) Error() string {
	return fmt.Sprintf("store overloaded: admission queue delay above target (retry after %v)", e.RetryAfter)
}

func (e *OverloadError) Unwrap() error { return ErrOverloaded }

// RetryAfterHint extracts the Retry-After hint from an overload error
// chain, or def when the error carries none.
func RetryAfterHint(err error, def time.Duration) time.Duration {
	var oe *OverloadError
	if errors.As(err, &oe) && oe.RetryAfter > 0 {
		return oe.RetryAfter
	}
	return def
}

// AdmissionOptions configures an AdaptiveLimiter.
type AdmissionOptions struct {
	// MaxConcurrent caps concurrently admitted queries; <= 0 disables the
	// limiter entirely (NewAdaptiveLimiter returns nil).
	MaxConcurrent int
	// MaxWait bounds how long an over-admission query queues while the
	// controller is healthy; <= 0 means "do not queue": a saturated store
	// sheds at once. In shedding mode the bound is min(MaxWait, Target).
	MaxWait time.Duration
	// Target is the acceptable admission-queue sojourn time (default 5ms).
	// Sojourn above it signals a standing queue.
	Target time.Duration
	// Interval is the control window (default 100ms): sojourn must stay
	// above Target for a full interval before shedding starts, so a single
	// burst does not flip the controller.
	Interval time.Duration
	// Clock injects time (nil = wall clock); tests drive a FakeClock.
	Clock resilience.Clock
}

func (o AdmissionOptions) fill() AdmissionOptions {
	if o.Target <= 0 {
		o.Target = 5 * time.Millisecond
	}
	if o.Interval <= 0 {
		o.Interval = 100 * time.Millisecond
	}
	if o.Clock == nil {
		o.Clock = resilience.RealClock{}
	}
	return o
}

// AdmissionStats is a snapshot of the controller's counters — the load
// signal surfaced through /statz so the routing layer's view is also
// operator-visible.
type AdmissionStats struct {
	// InFlight is the number of currently admitted queries.
	InFlight int `json:"in_flight"`
	// Admitted counts queries admitted since start.
	Admitted int64 `json:"admitted"`
	// Sheds counts queries rejected with ErrOverloaded.
	Sheds int64 `json:"sheds"`
	// Expired counts queries refused because their deadline budget was
	// already spent (or below the queue-delay estimate) on arrival.
	Expired int64 `json:"expired"`
	// QueueDelay is the current sojourn-time estimate.
	QueueDelay time.Duration `json:"queue_delay_ns"`
	// Shedding reports whether the controller is currently in shed mode.
	Shedding bool `json:"shedding"`
}

// AdaptiveLimiter is the CoDel-style admission controller. A nil
// *AdaptiveLimiter admits everything. Safe for concurrent use.
type AdaptiveLimiter struct {
	slots chan struct{}
	opts  AdmissionOptions
	clock resilience.Clock

	admitted atomic.Int64
	sheds    atomic.Int64
	expired  atomic.Int64

	mu         sync.Mutex
	ewma       time.Duration // smoothed sojourn estimate
	ewmaSeeded bool
	firstAbove time.Time // when sojourn first exceeded Target (zero = below)
	shedding   bool
}

// NewAdaptiveLimiter builds the controller; MaxConcurrent <= 0 returns nil
// (unlimited admission).
func NewAdaptiveLimiter(opts AdmissionOptions) *AdaptiveLimiter {
	if opts.MaxConcurrent <= 0 {
		return nil
	}
	opts = opts.fill()
	return &AdaptiveLimiter{
		slots: make(chan struct{}, opts.MaxConcurrent),
		opts:  opts,
		clock: opts.Clock,
	}
}

// Acquire admits the caller or sheds it with a typed error: ErrOverloaded
// (wrapped in an OverloadError with a Retry-After hint) when the admission
// policy was the binding constraint, ErrDeadlineExceeded when the caller's
// own remaining budget was — including budgets already below the current
// queue-delay estimate, which are refused on arrival rather than queued to
// certain death. On success the caller must Release exactly once.
func (l *AdaptiveLimiter) Acquire(ctx context.Context) error {
	if l == nil {
		return nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if ctx.Err() != nil {
		l.expired.Add(1)
		return CtxError(ctx)
	}
	now := l.clock.Now()

	// Fast path before any estimate check: a free slot is a zero-sojourn
	// admission no matter what the queue looked like a moment ago, and the
	// observe(0) it feeds is what decays a stale estimate. Checking the
	// estimate first would latch the controller shut — once the estimate
	// exceeded every client's budget, arrivals would be refused while
	// capacity sat idle, no admission would ever update the estimate, and
	// the store would starve until restart.
	select {
	case l.slots <- struct{}{}:
		l.observe(0)
		l.admitted.Add(1)
		return nil
	default:
	}

	remaining := time.Duration(-1) // -1 = no deadline
	if dl, ok := ctx.Deadline(); ok {
		remaining = dl.Sub(now)
		if est := l.QueueDelayEstimate(); remaining <= 0 || remaining < est {
			l.expired.Add(1)
			return fmt.Errorf("%w: remaining budget %v below queue-delay estimate %v",
				ErrDeadlineExceeded, remaining, est)
		}
	}

	// Queue, bounded by the controller state and the caller's budget.
	wait := l.opts.MaxWait
	if l.sheddingNow() {
		wait = min(wait, l.opts.Target)
	}
	if wait <= 0 {
		l.sheds.Add(1)
		return &OverloadError{RetryAfter: l.retryAfter()}
	}
	deadlineBound := false
	if remaining >= 0 && remaining < wait {
		wait = remaining
		deadlineBound = true
	}
	timer := l.clock.After(wait)
	select {
	case l.slots <- struct{}{}:
		l.observe(l.clock.Now().Sub(now))
		l.admitted.Add(1)
		return nil
	case <-ctx.Done():
		l.observe(l.clock.Now().Sub(now))
		l.expired.Add(1)
		return CtxError(ctx)
	case <-timer:
		l.observe(l.clock.Now().Sub(now))
		if deadlineBound {
			l.expired.Add(1)
			return fmt.Errorf("%w: deadline expired in admission queue", ErrDeadlineExceeded)
		}
		l.sheds.Add(1)
		return &OverloadError{RetryAfter: l.retryAfter()}
	}
}

// Release returns a slot taken by a successful Acquire.
func (l *AdaptiveLimiter) Release() {
	if l == nil {
		return
	}
	select {
	case <-l.slots:
	default:
		panic("governance: Release without Acquire")
	}
}

// InFlight reports the number of currently admitted queries.
func (l *AdaptiveLimiter) InFlight() int {
	if l == nil {
		return 0
	}
	return len(l.slots)
}

// Saturated reports whether every slot is taken right now — the
// precondition for refusing work on the queue-delay estimate. While a
// slot is free the estimate is stale by definition (an arrival would be
// admitted with zero sojourn), so estimate-based refusals must not fire.
func (l *AdaptiveLimiter) Saturated() bool {
	if l == nil {
		return false
	}
	return len(l.slots) == cap(l.slots)
}

// QueueDelayEstimate reports the smoothed admission-queue sojourn time —
// the signal deadline refusal and load-aware routing read.
func (l *AdaptiveLimiter) QueueDelayEstimate() time.Duration {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ewma
}

// Stats snapshots the controller's counters.
func (l *AdaptiveLimiter) Stats() AdmissionStats {
	if l == nil {
		return AdmissionStats{}
	}
	l.mu.Lock()
	ewma, shedding := l.ewma, l.shedding
	l.mu.Unlock()
	return AdmissionStats{
		InFlight:   len(l.slots),
		Admitted:   l.admitted.Load(),
		Sheds:      l.sheds.Load(),
		Expired:    l.expired.Load(),
		QueueDelay: ewma,
		Shedding:   shedding,
	}
}

// observe feeds one measured sojourn into the controller. Below-target
// sojourn exits shedding immediately (the queue drained); above-target
// sojourn must persist for a full Interval before shedding starts — the
// hysteresis that keeps one slow query from flipping the mode.
func (l *AdaptiveLimiter) observe(sojourn time.Duration) {
	now := l.clock.Now()
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.ewmaSeeded {
		l.ewma, l.ewmaSeeded = sojourn, true
	} else {
		// alpha = 0.3: reactive enough to track a building queue within a
		// few admissions, smooth enough to ignore one outlier.
		l.ewma = (3*sojourn + 7*l.ewma) / 10
	}
	if sojourn < l.opts.Target {
		l.firstAbove = time.Time{}
		l.shedding = false
		return
	}
	if l.firstAbove.IsZero() {
		l.firstAbove = now
		return
	}
	if now.Sub(l.firstAbove) >= l.opts.Interval {
		l.shedding = true
	}
}

func (l *AdaptiveLimiter) sheddingNow() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.shedding
}

// retryAfter estimates how long a shed caller should back off: at least a
// control interval (time for the standing queue to register as drained),
// stretched by the current delay estimate when the queue is deep.
func (l *AdaptiveLimiter) retryAfter() time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.ewma > l.opts.Interval {
		return l.ewma
	}
	return l.opts.Interval
}

// Pool is a store-wide shared memory budget: the bytes of materialized
// result rows across *all* concurrently executing queries, as opposed to
// the per-query MemoryBudget. N concurrent queries race one budget, so a
// burst of medium-sized queries cannot multiply the per-query bound into an
// OOM — the query that would tip the store over fails with
// ErrBudgetExceeded while its winners complete exactly. A nil *Pool admits
// every charge.
type Pool struct {
	capacity int64
	used     atomic.Int64
}

// NewPool builds a shared pool of capacity bytes; capacity <= 0 returns nil
// (unlimited).
func NewPool(capacity int64) *Pool {
	if capacity <= 0 {
		return nil
	}
	return &Pool{capacity: capacity}
}

// TryCharge reserves n bytes, reporting false (and reserving nothing) when
// the pool would overflow.
func (p *Pool) TryCharge(n int64) bool {
	if p == nil || n <= 0 {
		return true
	}
	if p.used.Add(n) > p.capacity {
		p.used.Add(-n)
		return false
	}
	return true
}

// Release returns n reserved bytes.
func (p *Pool) Release(n int64) {
	if p == nil || n <= 0 {
		return
	}
	p.used.Add(-n)
}

// Used reports the currently reserved bytes.
func (p *Pool) Used() int64 {
	if p == nil {
		return 0
	}
	return p.used.Load()
}

// Capacity reports the pool's byte capacity (0 when unlimited).
func (p *Pool) Capacity() int64 {
	if p == nil {
		return 0
	}
	return p.capacity
}

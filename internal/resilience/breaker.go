package resilience

import (
	"sync"
	"time"
)

// BreakerState is the circuit breaker's current mode.
type BreakerState int

const (
	// Closed passes requests through and counts consecutive failures.
	Closed BreakerState = iota
	// Open rejects requests until the open interval elapses.
	Open
	// HalfOpen admits one probe request at a time; its success closes the
	// breaker, its failure reopens it.
	HalfOpen
)

func (s BreakerState) String() string {
	switch s {
	case Closed:
		return "closed"
	case Open:
		return "open"
	default:
		return "half-open"
	}
}

// BreakerOptions configures a circuit breaker.
type BreakerOptions struct {
	// FailureThreshold is the number of consecutive failures that opens
	// the breaker (default 5).
	FailureThreshold int
	// OpenFor is how long the breaker rejects before moving to half-open
	// (default 5s).
	OpenFor time.Duration
}

func (o BreakerOptions) fill() BreakerOptions {
	if o.FailureThreshold <= 0 {
		o.FailureThreshold = 5
	}
	if o.OpenFor <= 0 {
		o.OpenFor = 5 * time.Second
	}
	return o
}

// Breaker is a per-node circuit breaker. The coordinator keeps one per
// replica endpoint: transport-level failures trip it, an open breaker
// routes requests to the node's peers, and a half-open probe detects
// recovery: one at a time, so a recovering node sees no thundering herd.
// Safe for concurrent use.
type Breaker struct {
	mu    sync.Mutex
	clock Clock
	opt   BreakerOptions

	state   BreakerState
	fails   int       // consecutive failures while closed
	until   time.Time // when the open interval ends
	probing bool      // a half-open probe is outstanding
}

// NewBreaker returns a closed breaker on the given clock (nil = RealClock).
func NewBreaker(clock Clock, opt BreakerOptions) *Breaker {
	if clock == nil {
		clock = RealClock{}
	}
	return &Breaker{clock: clock, opt: opt.fill()}
}

// Allow reports whether a request may be sent to the node now. In half-open
// it also reserves a probe slot; the caller must report the outcome with
// Success or Failure (which releases the slot).
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case Closed:
		return true
	case Open:
		if b.clock.Now().Before(b.until) {
			return false
		}
		b.state = HalfOpen
		b.probing = false
		fallthrough
	default: // HalfOpen
		if b.probing {
			return false
		}
		b.probing = true
		return true
	}
}

// Success reports a completed request: it closes a half-open breaker and
// resets the failure streak.
func (b *Breaker) Success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.probing = false
	b.state = Closed
	b.fails = 0
}

// Failure reports a failed request: it advances the streak in closed state
// (opening at the threshold) and reopens a half-open breaker immediately.
func (b *Breaker) Failure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case Closed:
		b.fails++
		if b.fails >= b.opt.FailureThreshold {
			b.open()
		}
	case HalfOpen:
		b.probing = false
		b.open()
	case Open:
		// A straggler from before the trip; the breaker is already open.
	}
}

// Abandon releases a probe slot reserved by Allow when the request was
// canceled before producing a meaningful outcome (e.g. a hedged attempt
// whose sibling won). It never changes state or the failure streak.
func (b *Breaker) Abandon() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.probing = false
}

// open transitions to Open. Callers hold b.mu.
func (b *Breaker) open() {
	b.state = Open
	b.fails = 0
	b.until = b.clock.Now().Add(b.opt.OpenFor)
}

// State reports the current mode (Open flips to HalfOpen lazily in Allow,
// so an expired Open still reads Open here until the next request).
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

package resilience

import (
	"sync/atomic"
	"time"
)

// LoadSignal is the per-endpoint load estimate the coordinator's routing
// layer reads: how many attempts are in flight against the endpoint right
// now, a smoothed latency of its recent successes and timeouts, and a shed
// marker set when the endpoint rejected work with an overload (503 +
// Retry-After).
//
// Overload is deliberately kept apart from the circuit breaker: a breaker
// models "this endpoint is broken, stop sending", while a load signal
// models "this endpoint is healthy but busy, prefer its peers until
// Retry-After passes". Conflating them turns one busy replica into a
// removed replica and dumps its traffic on the rest — the exact
// amplification an overload storm feeds on.
//
// All methods are nil-safe and safe for concurrent use.
type LoadSignal struct {
	clock Clock

	inflight atomic.Int64
	ewmaNS   atomic.Int64 // smoothed success latency; 0 = no samples yet
	shedNS   atomic.Int64 // UnixNano until which the endpoint is backing off
}

// NewLoadSignal builds a signal on clock (nil = wall clock).
func NewLoadSignal(clock Clock) *LoadSignal {
	if clock == nil {
		clock = RealClock{}
	}
	return &LoadSignal{clock: clock}
}

// Start records an attempt launched against the endpoint.
func (s *LoadSignal) Start() {
	if s == nil {
		return
	}
	s.inflight.Add(1)
}

// Finish records a completed attempt whose elapsed time says how fast the
// endpoint is — a success, or a per-attempt timeout (a lower bound, and the
// only sample a hung endpoint ever gives) — and folds it into the smoothed
// estimate.
func (s *LoadSignal) Finish(elapsed time.Duration) {
	if s == nil {
		return
	}
	s.inflight.Add(-1)
	if elapsed <= 0 {
		return
	}
	for {
		old := s.ewmaNS.Load()
		var next int64
		if old == 0 {
			next = int64(elapsed)
		} else {
			// alpha = 0.25 — a few samples move the estimate, one does not.
			next = old + (int64(elapsed)-old)/4
		}
		if s.ewmaNS.CompareAndSwap(old, next) {
			return
		}
	}
}

// Abort records a completed attempt whose latency should not feed the
// estimate (a failure other than a timeout, a cancellation, or an overload
// rejection).
func (s *LoadSignal) Abort() {
	if s == nil {
		return
	}
	s.inflight.Add(-1)
}

// MarkOverloaded records that the endpoint shed work, backing it off for d
// (the node's Retry-After hint). Routing deprioritizes the endpoint until
// the window passes; it is never excluded outright — when every peer is
// also shedding, a busy replica still beats no replica.
func (s *LoadSignal) MarkOverloaded(d time.Duration) {
	if s == nil || d <= 0 {
		return
	}
	until := s.clock.Now().Add(d).UnixNano()
	for {
		old := s.shedNS.Load()
		if old >= until || s.shedNS.CompareAndSwap(old, until) {
			return
		}
	}
}

// Overloaded reports whether the endpoint is inside a shed backoff window.
func (s *LoadSignal) Overloaded() bool {
	if s == nil {
		return false
	}
	until := s.shedNS.Load()
	return until != 0 && s.clock.Now().UnixNano() < until
}

// InFlight reports the attempts currently running against the endpoint.
func (s *LoadSignal) InFlight() int64 {
	if s == nil {
		return 0
	}
	return s.inflight.Load()
}

// Latency reports the smoothed latency (0 = no samples yet).
func (s *LoadSignal) Latency() time.Duration {
	if s == nil {
		return 0
	}
	return time.Duration(s.ewmaNS.Load())
}

// Less reports whether s is the better routing choice than t: fewer
// attempts in flight, with smoothed latency as the tiebreak. This is the
// comparison power-of-two-choices runs on its two sampled candidates.
func (s *LoadSignal) Less(t *LoadSignal) bool {
	si, ti := s.InFlight(), t.InFlight()
	if si != ti {
		return si < ti
	}
	return s.Latency() < t.Latency()
}

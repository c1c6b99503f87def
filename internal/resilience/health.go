package resilience

import (
	"context"
	"sync"
	"time"
)

// HealthChecker polls a set of targets in the background and exposes an
// up/down verdict per target. The coordinator orders replicas healthy-first,
// so a node that stops answering its health endpoint is routed around even
// before its circuit breaker trips — and a recovered node is routed back to
// without waiting for a live request to probe it. The target set is fixed
// at construction.
type HealthChecker struct {
	probe    func(ctx context.Context, target string) error
	interval time.Duration
	timeout  time.Duration
	clock    Clock
	targets  []string

	mu   sync.Mutex
	down map[string]bool

	stop chan struct{}
	done chan struct{}
	wake chan struct{} // CheckNow pokes this to trigger a sweep
}

// NewHealthChecker starts a checker over targets, probing each one every
// interval (per-probe timeout interval/2, floor 50ms). The first sweep runs
// immediately — a just-constructed checker must not report a dead endpoint
// healthy for a whole interval just because no tick has fired yet. Close
// must be called to stop the background goroutine. A nil clock uses the
// wall clock.
func NewHealthChecker(clock Clock, interval time.Duration, targets []string, probe func(ctx context.Context, target string) error) *HealthChecker {
	if clock == nil {
		clock = RealClock{}
	}
	if interval <= 0 {
		interval = time.Second
	}
	timeout := interval / 2
	if timeout < 50*time.Millisecond {
		timeout = 50 * time.Millisecond
	}
	h := &HealthChecker{
		probe:    probe,
		interval: interval,
		timeout:  timeout,
		clock:    clock,
		targets:  append([]string(nil), targets...),
		down:     make(map[string]bool, len(targets)),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
		wake:     make(chan struct{}, 1),
	}
	go h.run()
	return h
}

func (h *HealthChecker) run() {
	defer close(h.done)
	for {
		h.sweep()
		select {
		case <-h.stop:
			return
		case <-h.clock.After(h.interval):
		case <-h.wake:
		}
	}
}

// sweep probes every target once.
func (h *HealthChecker) sweep() {
	for _, t := range h.targets {
		select {
		case <-h.stop:
			return
		default:
		}
		ctx, cancel := context.WithTimeout(context.Background(), h.timeout)
		err := h.probe(ctx, t)
		cancel()
		h.mu.Lock()
		h.down[t] = err != nil
		h.mu.Unlock()
	}
}

// Healthy reports the last verdict for target (unknown targets read
// healthy, keeping the checker advisory rather than a gate).
func (h *HealthChecker) Healthy(target string) bool {
	if h == nil {
		return true
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return !h.down[target]
}

// CheckNow triggers an immediate sweep (without waiting for the interval)
// and is safe to call concurrently; a sweep already pending is not doubled.
func (h *HealthChecker) CheckNow() {
	select {
	case h.wake <- struct{}{}:
	default:
	}
}

// Close stops the background goroutine and waits for it to exit, so tests
// can assert zero goroutine leaks.
func (h *HealthChecker) Close() {
	if h == nil {
		return
	}
	select {
	case <-h.stop:
	default:
		close(h.stop)
	}
	<-h.done
}

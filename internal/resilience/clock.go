// Package resilience provides the fault-tolerance primitives of the
// distributed serving tier: an injectable clock (so every time-based
// behavior is unit-testable without wall-clock sleeps), exponential backoff
// with deterministic jitter, per-node circuit breakers with half-open
// probing, and the per-endpoint load signal replica routing reads.
//
// The package is engine-agnostic: it never imports the query engine or the
// wire protocol. The coordinator in internal/cluster composes these
// primitives around internal/remote's shard clients.
package resilience

import (
	"context"
	"sync"
	"time"
)

// Clock abstracts time for everything in this package. Production code uses
// RealClock; tests inject a FakeClock and advance it manually, which makes
// breaker expiry, backoff waits and hedge delays deterministic and instant.
type Clock interface {
	Now() time.Time
	// After behaves like time.After against this clock.
	After(d time.Duration) <-chan time.Time
}

// RealClock is the wall clock.
type RealClock struct{}

// Now returns time.Now().
func (RealClock) Now() time.Time { return time.Now() }

// After returns time.After(d).
func (RealClock) After(d time.Duration) <-chan time.Time { return time.After(d) }

// Sleep waits for d on c, returning early with the context's typed error
// when ctx is done first. A non-positive d returns immediately (after a
// context check), without touching the clock.
func Sleep(ctx context.Context, c Clock, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	select {
	case <-c.After(d):
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// FakeClock is a manually advanced Clock for tests. The zero value starts
// at an arbitrary fixed epoch; use NewFakeClock to pick one.
type FakeClock struct {
	mu      sync.Mutex
	now     time.Time
	waiters []fakeWaiter
}

type fakeWaiter struct {
	at time.Time
	ch chan time.Time
}

// NewFakeClock returns a FakeClock reading start.
func NewFakeClock(start time.Time) *FakeClock {
	return &FakeClock{now: start}
}

// Now returns the fake time.
func (c *FakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.now.IsZero() {
		c.now = time.Unix(1_000_000, 0)
	}
	return c.now
}

// After returns a channel that fires once Advance moves the clock past d
// from now. A non-positive d fires immediately.
func (c *FakeClock) After(d time.Duration) <-chan time.Time {
	ch := make(chan time.Time, 1)
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.now.IsZero() {
		c.now = time.Unix(1_000_000, 0)
	}
	if d <= 0 {
		ch <- c.now
		return ch
	}
	c.waiters = append(c.waiters, fakeWaiter{at: c.now.Add(d), ch: ch})
	return ch
}

// Advance moves the clock forward and fires every timer that became due.
func (c *FakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.now.IsZero() {
		c.now = time.Unix(1_000_000, 0)
	}
	c.now = c.now.Add(d)
	var keep []fakeWaiter
	for _, w := range c.waiters {
		if !w.at.After(c.now) {
			w.ch <- c.now
		} else {
			keep = append(keep, w)
		}
	}
	c.waiters = keep
}

// Waiters reports how many timers are pending — tests use it to wait until
// a goroutine has parked on After before advancing.
func (c *FakeClock) Waiters() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.waiters)
}

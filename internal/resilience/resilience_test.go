package resilience

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"parj/internal/testutil"
)

func TestBreakerOpensAtThreshold(t *testing.T) {
	clk := NewFakeClock(time.Unix(0, 0))
	b := NewBreaker(clk, BreakerOptions{FailureThreshold: 3, OpenFor: time.Second})

	for i := 0; i < 2; i++ {
		if !b.Allow() {
			t.Fatalf("closed breaker rejected request %d", i)
		}
		b.Failure()
	}
	if b.State() != Closed {
		t.Fatalf("state %v after 2 failures, want closed", b.State())
	}
	b.Allow()
	b.Failure() // third consecutive failure trips it
	if b.State() != Open {
		t.Fatalf("state %v after threshold, want open", b.State())
	}
	if b.Allow() {
		t.Fatal("open breaker allowed a request")
	}
}

func TestBreakerSuccessResetsStreak(t *testing.T) {
	clk := NewFakeClock(time.Unix(0, 0))
	b := NewBreaker(clk, BreakerOptions{FailureThreshold: 2, OpenFor: time.Second})
	b.Failure()
	b.Success()
	b.Failure()
	if b.State() != Closed {
		t.Fatalf("state %v, want closed (success must reset the streak)", b.State())
	}
}

func TestBreakerHalfOpenRecovery(t *testing.T) {
	clk := NewFakeClock(time.Unix(0, 0))
	b := NewBreaker(clk, BreakerOptions{FailureThreshold: 1, OpenFor: time.Second, HalfOpenProbes: 1})
	b.Failure()
	if b.State() != Open {
		t.Fatal("want open")
	}
	clk.Advance(999 * time.Millisecond)
	if b.Allow() {
		t.Fatal("allowed before the open interval elapsed")
	}
	clk.Advance(time.Millisecond)
	if !b.Allow() {
		t.Fatal("half-open probe rejected after the interval")
	}
	// Only one probe at a time.
	if b.Allow() {
		t.Fatal("second concurrent half-open probe allowed")
	}
	b.Success()
	if b.State() != Closed {
		t.Fatalf("state %v after probe success, want closed", b.State())
	}
	if !b.Allow() {
		t.Fatal("closed breaker rejected")
	}
}

func TestBreakerHalfOpenFailureReopens(t *testing.T) {
	clk := NewFakeClock(time.Unix(0, 0))
	b := NewBreaker(clk, BreakerOptions{FailureThreshold: 1, OpenFor: time.Second})
	b.Failure()
	clk.Advance(time.Second)
	if !b.Allow() {
		t.Fatal("half-open probe rejected")
	}
	b.Failure()
	if b.State() != Open {
		t.Fatalf("state %v after probe failure, want open again", b.State())
	}
	if b.Allow() {
		t.Fatal("reopened breaker allowed a request")
	}
	// And it recovers a second time.
	clk.Advance(time.Second)
	if !b.Allow() {
		t.Fatal("second half-open probe rejected")
	}
	b.Success()
	if b.State() != Closed {
		t.Fatal("want closed after recovery")
	}
}

// TestBreakerHalfOpenProbeContention races N callers for the single
// half-open probe slot: exactly one must be admitted, and the breaker must
// converge open (probe failed) or closed (probe succeeded) regardless of
// how the losers interleave. Run under -race, this also proves the slot
// accounting is data-race-free.
func TestBreakerHalfOpenProbeContention(t *testing.T) {
	for _, probeOK := range []bool{true, false} {
		clk := NewFakeClock(time.Unix(0, 0))
		b := NewBreaker(clk, BreakerOptions{FailureThreshold: 1, OpenFor: time.Second, HalfOpenProbes: 1})
		b.Failure() // trip it
		clk.Advance(time.Second)

		const N = 32
		var admitted atomic.Int64
		var start, done sync.WaitGroup
		start.Add(1)
		done.Add(N)
		for i := 0; i < N; i++ {
			go func() {
				defer done.Done()
				start.Wait()
				if b.Allow() {
					admitted.Add(1)
				}
			}()
		}
		start.Done()
		done.Wait()
		if got := admitted.Load(); got != 1 {
			t.Fatalf("probeOK=%v: %d concurrent probes admitted, want exactly 1", probeOK, got)
		}
		if probeOK {
			b.Success()
			if b.State() != Closed {
				t.Fatalf("state %v after probe success, want closed", b.State())
			}
			if !b.Allow() {
				t.Fatal("closed breaker rejected")
			}
		} else {
			b.Failure()
			if b.State() != Open {
				t.Fatalf("state %v after probe failure, want open", b.State())
			}
			if b.Allow() {
				t.Fatal("reopened breaker admitted a request")
			}
		}
	}
}

func TestBackoffDeterministicAndBounded(t *testing.T) {
	b := Backoff{Base: 10 * time.Millisecond, Max: 80 * time.Millisecond, Factor: 2}
	d1 := make([]time.Duration, 6)
	for i := range d1 {
		d1[i] = b.Delay(i, NewJitter(42+int64(i)))
	}
	for i := range d1 {
		if got := b.Delay(i, NewJitter(42+int64(i))); got != d1[i] {
			t.Fatalf("attempt %d: %v then %v — not deterministic for a fixed seed", i, d1[i], got)
		}
		cap := 10 * time.Millisecond << i
		if cap > 80*time.Millisecond {
			cap = 80 * time.Millisecond
		}
		if d1[i] < 0 || d1[i] >= cap {
			t.Fatalf("attempt %d: delay %v outside [0, %v)", i, d1[i], cap)
		}
	}
}

func TestSleepRespectsContext(t *testing.T) {
	clk := NewFakeClock(time.Unix(0, 0))
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- Sleep(ctx, clk, time.Hour) }()
	for clk.Waiters() == 0 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("Sleep returned %v, want context.Canceled", err)
	}

	// And the clock path. The canceled Sleep's waiter is still registered
	// (FakeClock never reaps abandoned timers, like time.After), so wait
	// for the count to grow past that baseline.
	base := clk.Waiters()
	done2 := make(chan error, 1)
	go func() { done2 <- Sleep(context.Background(), clk, time.Minute) }()
	for clk.Waiters() == base {
		time.Sleep(time.Millisecond)
	}
	clk.Advance(time.Minute)
	if err := <-done2; err != nil {
		t.Fatalf("Sleep returned %v after Advance", err)
	}
}

func TestHealthCheckerFailover(t *testing.T) {
	defer testutil.LeakCheck(t)()
	var mu sync.Mutex
	dead := map[string]bool{"b": true}
	h := NewHealthChecker(RealClock{}, time.Hour, []string{"a", "b"},
		func(ctx context.Context, target string) error {
			mu.Lock()
			defer mu.Unlock()
			if dead[target] {
				return errors.New("down")
			}
			return nil
		})
	defer h.Close()

	// The immediate start-up sweep demotes b without CheckNow and without
	// waiting out the one-hour interval.
	waitFor(t, func() bool { return !h.Healthy("b") })
	if !h.Healthy("a") {
		t.Fatal("a demoted incorrectly")
	}
	// b recovers.
	mu.Lock()
	dead["b"] = false
	mu.Unlock()
	h.CheckNow()
	waitFor(t, func() bool { return h.Healthy("b") })
}

// TestHealthCheckerProbesImmediately is the regression test for the
// start-up gap: a just-constructed checker used to report every endpoint
// healthy until the first interval tick. With a FakeClock that is never
// advanced, the only way the dead target can be demoted is the immediate
// first sweep.
func TestHealthCheckerProbesImmediately(t *testing.T) {
	defer testutil.LeakCheck(t)()
	clk := NewFakeClock(time.Unix(0, 0))
	h := NewHealthChecker(clk, time.Hour, []string{"dead"},
		func(ctx context.Context, target string) error { return errors.New("down") })
	defer h.Close()
	waitFor(t, func() bool { return !h.Healthy("dead") })
}

func TestHealthCheckerCloseStopsGoroutine(t *testing.T) {
	defer testutil.LeakCheck(t)()
	h := NewHealthChecker(nil, time.Millisecond, []string{"x"},
		func(ctx context.Context, target string) error { return nil })
	h.Close()
	h.Close() // idempotent
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never became true")
		}
		time.Sleep(time.Millisecond)
	}
}

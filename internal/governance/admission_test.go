package governance

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"parj/internal/resilience"
)

// fakeDeadlineCtx carries a deadline for the limiter to read without the
// stdlib's wall-clock auto-cancellation — the deadline is interpreted
// against the injected FakeClock, which the real context package knows
// nothing about.
type fakeDeadlineCtx struct {
	context.Context
	dl time.Time
}

func (c fakeDeadlineCtx) Deadline() (time.Time, bool) { return c.dl, true }

// waitForWaiters polls until n timers are registered on the fake clock.
// Abandoned timers stay registered until they fire, so callers pass a
// cumulative count (clk.Waiters() before spawning, plus one).
func waitForWaiters(t *testing.T, clk *resilience.FakeClock, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for clk.Waiters() < n {
		if time.Now().After(deadline) {
			t.Fatalf("never saw %d clock waiters", n)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestAdaptiveLimiterSheddingHysteresis drives the CoDel state machine on
// a FakeClock: one above-target sojourn must not flip shedding, sojourn
// sustained above target for a full interval must, and a single
// below-target admission must flip it back.
func TestAdaptiveLimiterSheddingHysteresis(t *testing.T) {
	clk := resilience.NewFakeClock(time.Unix(0, 0))
	l := NewAdaptiveLimiter(AdmissionOptions{
		MaxConcurrent: 1,
		MaxWait:       time.Second,
		Target:        5 * time.Millisecond,
		Interval:      100 * time.Millisecond,
		Clock:         clk,
	})

	// Seed: fast-path admission, zero sojourn.
	if err := l.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}

	// queued parks one more Acquire behind the held slot.
	queued := func(ctx context.Context) chan error {
		base := clk.Waiters()
		ch := make(chan error, 1)
		go func() { ch <- l.Acquire(ctx) }()
		waitForWaiters(t, clk, base+1)
		return ch
	}

	// Sojourn above target but shorter than an interval: admitted, and the
	// controller must only note the excursion.
	ch := queued(context.Background())
	clk.Advance(10 * time.Millisecond)
	l.Release()
	if err := <-ch; err != nil {
		t.Fatal(err)
	}
	if l.Stats().Shedding {
		t.Fatal("one above-target sojourn flipped shedding — hysteresis lost")
	}

	// A second above-target sojourn lands a full interval after the first
	// excursion began: now shedding starts.
	ch = queued(context.Background())
	clk.Advance(110 * time.Millisecond)
	l.Release()
	if err := <-ch; err != nil {
		t.Fatal(err)
	}
	if !l.Stats().Shedding {
		t.Fatal("sojourn above target across a full interval did not start shedding")
	}

	// In shedding mode a queued arrival waits only Target before it is
	// refused with a typed, hinted overload.
	ch = queued(context.Background())
	clk.Advance(5 * time.Millisecond)
	err := <-ch
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("shed error = %v, want ErrOverloaded", err)
	}
	if hint := RetryAfterHint(err, 0); hint < 100*time.Millisecond {
		t.Fatalf("Retry-After hint = %v, want at least the control interval", hint)
	}
	if st := l.Stats(); st.Sheds != 1 {
		t.Fatalf("sheds = %d, want 1", st.Sheds)
	}

	// One below-target admission (free slot, zero sojourn) exits shedding.
	l.Release()
	if err := l.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	if l.Stats().Shedding {
		t.Fatal("below-target admission did not exit shedding")
	}
	l.Release()
}

// TestAdaptiveLimiterDeadlineRefusal: while saturated, an arrival whose
// remaining budget is below the queue-delay estimate is refused on arrival
// as a deadline error (never an overload), and a deadline that binds the
// queue wait expires as a deadline error too.
func TestAdaptiveLimiterDeadlineRefusal(t *testing.T) {
	clk := resilience.NewFakeClock(time.Unix(0, 0))
	l := NewAdaptiveLimiter(AdmissionOptions{
		MaxConcurrent: 1,
		MaxWait:       time.Second,
		Target:        time.Millisecond,
		Interval:      10 * time.Millisecond,
		Clock:         clk,
	})
	if err := l.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Build a 50ms sojourn so the estimate rises well above small budgets.
	ch := make(chan error, 1)
	base := clk.Waiters()
	go func() { ch <- l.Acquire(context.Background()) }()
	waitForWaiters(t, clk, base+1)
	clk.Advance(50 * time.Millisecond)
	l.Release()
	if err := <-ch; err != nil {
		t.Fatal(err)
	}
	if est := l.QueueDelayEstimate(); est < 5*time.Millisecond {
		t.Fatalf("estimate = %v after a 50ms sojourn, want a two-digit-ms figure", est)
	}
	if !l.Saturated() {
		t.Fatal("slot is held, limiter should report saturated")
	}

	// Saturated + budget below estimate: refused on arrival.
	small := fakeDeadlineCtx{context.Background(), clk.Now().Add(2 * time.Millisecond)}
	err := l.Acquire(small)
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("expired-on-arrival err = %v, want ErrDeadlineExceeded", err)
	}
	if errors.Is(err, ErrOverloaded) {
		t.Fatal("deadline refusal must not also be typed ErrOverloaded")
	}
	if st := l.Stats(); st.Expired != 1 {
		t.Fatalf("expired = %d, want 1", st.Expired)
	}

	// Budget above the estimate queues; when the deadline binds the wait,
	// expiry is a deadline error, not a shed.
	bigger := fakeDeadlineCtx{context.Background(), clk.Now().Add(70 * time.Millisecond)}
	base = clk.Waiters()
	go func() { ch <- l.Acquire(bigger) }()
	waitForWaiters(t, clk, base+1)
	clk.Advance(70 * time.Millisecond)
	err = <-ch
	if !errors.Is(err, ErrDeadlineExceeded) || errors.Is(err, ErrOverloaded) {
		t.Fatalf("deadline-bound queue expiry = %v, want pure ErrDeadlineExceeded", err)
	}
}

// TestAdaptiveLimiterEstimateCannotLatch is the regression for a starvation
// mode: when the sojourn estimate exceeds every client's budget but a slot
// is FREE, the arrival must be admitted (the estimate is stale by
// definition) — and that admission is what decays the estimate. Refusing
// before trying the fast path would lock every small-budget client out of
// an idle store forever.
func TestAdaptiveLimiterEstimateCannotLatch(t *testing.T) {
	clk := resilience.NewFakeClock(time.Unix(0, 0))
	l := NewAdaptiveLimiter(AdmissionOptions{
		MaxConcurrent: 1,
		MaxWait:       time.Second,
		Target:        time.Millisecond,
		Interval:      10 * time.Millisecond,
		Clock:         clk,
	})

	// Latch the estimate high: hold the slot, park a waiter 500ms.
	if err := l.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	ch := make(chan error, 1)
	base := clk.Waiters()
	go func() { ch <- l.Acquire(context.Background()) }()
	waitForWaiters(t, clk, base+1)
	clk.Advance(500 * time.Millisecond)
	l.Release()
	if err := <-ch; err != nil {
		t.Fatal(err)
	}
	l.Release() // both slots back; limiter idle, estimate ~150ms

	if l.Saturated() {
		t.Fatal("limiter is idle, must not report saturated")
	}
	est := l.QueueDelayEstimate()
	if est <= 10*time.Millisecond {
		t.Fatalf("estimate = %v, expected it latched high for this test", est)
	}

	// An idle limiter must admit a budget far below the stale estimate.
	small := fakeDeadlineCtx{context.Background(), clk.Now().Add(est / 10)}
	if err := l.Acquire(small); err != nil {
		t.Fatalf("free slot refused a small-budget arrival on a stale estimate: %v", err)
	}
	l.Release()
	if now := l.QueueDelayEstimate(); now >= est {
		t.Fatalf("fast-path admission did not decay the estimate: %v -> %v", est, now)
	}
}

// TestLimiter is the admission contract of the one controller, one case per
// row: slots held before the probe, the probe's context, whether a slot
// frees while it queues, and the typed outcome. No case may queue anywhere
// near the configured wait when something else binds first.
func TestLimiter(t *testing.T) {
	timeout := func(d time.Duration) func() (context.Context, context.CancelFunc) {
		return func() (context.Context, context.CancelFunc) {
			return context.WithTimeout(context.Background(), d)
		}
	}
	canceled := func() (context.Context, context.CancelFunc) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		return ctx, cancel
	}
	cases := []struct {
		name      string
		max       int
		wait      time.Duration
		held      int                                          // slots taken before the probe
		ctx       func() (context.Context, context.CancelFunc) // nil = nil context
		freeAfter time.Duration                                // release one held slot after this long (0 = never)
		want, not error                                        // want nil = admitted
	}{
		{name: "nil admits all", max: 0},
		{name: "free slot admits", max: 2, held: 1},
		{name: "wait 0 sheds at once", max: 2, held: 2, want: ErrOverloaded},
		{name: "queued until a slot frees", max: 1, wait: 2 * time.Second, held: 1, freeAfter: 20 * time.Millisecond},
		{name: "wait expires", max: 1, wait: 10 * time.Millisecond, held: 1, want: ErrOverloaded},
		{name: "context dies while queued", max: 1, wait: time.Minute, held: 1,
			ctx: timeout(15 * time.Millisecond), want: ErrDeadlineExceeded},
		// The store was not necessarily overloaded; the caller ran out of budget.
		{name: "deadline clamps the wait", max: 1, wait: 10 * time.Second, held: 1,
			ctx: timeout(30 * time.Millisecond), want: ErrDeadlineExceeded, not: ErrOverloaded},
		{name: "dead on arrival takes no slot", max: 1, ctx: canceled, want: ErrCanceled},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			l := NewAdaptiveLimiter(AdmissionOptions{MaxConcurrent: c.max, MaxWait: c.wait})
			if (l == nil) != (c.max <= 0) {
				t.Fatalf("NewAdaptiveLimiter(max=%d) = %v", c.max, l)
			}
			for i := 0; i < c.held; i++ {
				if err := l.Acquire(nil); err != nil {
					t.Fatal(err)
				}
			}
			var ctx context.Context
			if c.ctx != nil {
				var cancel context.CancelFunc
				ctx, cancel = c.ctx()
				defer cancel()
			}
			if c.freeAfter > 0 {
				time.AfterFunc(c.freeAfter, l.Release)
			}
			start := time.Now()
			err := l.Acquire(ctx)
			if elapsed := time.Since(start); elapsed > 2*time.Second {
				t.Errorf("Acquire took %v", elapsed)
			}
			held := c.held
			switch {
			case c.want == nil && err != nil:
				t.Fatalf("Acquire = %v, want admission", err)
			case c.want == nil:
				held++
			case !errors.Is(err, c.want) || (c.not != nil && errors.Is(err, c.not)):
				t.Fatalf("Acquire = %v, want %v and not %v", err, c.want, c.not)
			}
			if c.freeAfter > 0 {
				held--
			}
			if c.max <= 0 {
				held = 0
			}
			if got := l.InFlight(); got != held {
				t.Errorf("InFlight = %d, want %d", got, held)
			}
			for i := 0; i < held; i++ {
				l.Release()
			}
		})
	}
}

func TestReleaseWithoutAcquirePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Release without Acquire did not panic")
		}
	}()
	NewAdaptiveLimiter(AdmissionOptions{MaxConcurrent: 1}).Release()
}

// TestAdaptiveLimiterShedWaitNeverGrows: shedding may shorten the queue
// wait to Target, never lengthen it — a 1ms MaxWait under a 5ms Target
// still sheds after 1ms once the controller is in shed mode.
func TestAdaptiveLimiterShedWaitNeverGrows(t *testing.T) {
	clk := resilience.NewFakeClock(time.Unix(0, 0))
	l := NewAdaptiveLimiter(AdmissionOptions{
		MaxConcurrent: 1,
		MaxWait:       time.Millisecond,
		Target:        5 * time.Millisecond,
		Interval:      10 * time.Millisecond,
		Clock:         clk,
	})
	if err := l.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer l.Release()
	l.observe(5 * time.Millisecond)
	clk.Advance(10 * time.Millisecond)
	l.observe(5 * time.Millisecond)
	if !l.Stats().Shedding {
		t.Fatal("sojourn at target across a full interval did not start shedding")
	}

	ch := make(chan error, 1)
	base := clk.Waiters()
	go func() { ch <- l.Acquire(context.Background()) }()
	waitForWaiters(t, clk, base+1)
	clk.Advance(time.Millisecond)
	select {
	case err := <-ch:
		if !errors.Is(err, ErrOverloaded) {
			t.Fatalf("shed error = %v, want ErrOverloaded", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a 1ms MaxWait still queued after 1ms in shed mode: the wait grew to Target")
	}
}

// TestPoolConcurrentCharges: racing charges against one pool admit exactly
// capacity/size winners, losers reserve nothing, and releases restore the
// pool fully.
func TestPoolConcurrentCharges(t *testing.T) {
	p := NewPool(1000)
	var wg sync.WaitGroup
	var won atomic.Int64
	for i := 0; i < 150; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if p.TryCharge(10) {
				won.Add(1)
			}
		}()
	}
	wg.Wait()
	if won.Load() != 100 {
		t.Fatalf("%d charges won, want exactly 100", won.Load())
	}
	if p.Used() != 1000 {
		t.Fatalf("used = %d, want 1000", p.Used())
	}
	if p.TryCharge(1) {
		t.Fatal("full pool admitted another charge")
	}
	p.Release(1000)
	if p.Used() != 0 {
		t.Fatalf("used after full release = %d, want 0", p.Used())
	}
	if !p.TryCharge(1000) {
		t.Fatal("drained pool refused a full-capacity charge")
	}
}

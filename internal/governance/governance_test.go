package governance

import (
	"context"
	"errors"
	"testing"
	"time"
)

func TestErrorTaxonomy(t *testing.T) {
	if !errors.Is(ErrCanceled, context.Canceled) {
		t.Error("ErrCanceled does not match context.Canceled")
	}
	if !errors.Is(ErrDeadlineExceeded, context.DeadlineExceeded) {
		t.Error("ErrDeadlineExceeded does not match context.DeadlineExceeded")
	}
	if errors.Is(ErrCanceled, context.DeadlineExceeded) || errors.Is(ErrDeadlineExceeded, context.Canceled) {
		t.Error("cancel/deadline aliases cross-match")
	}
	for _, err := range []error{ErrCanceled, ErrDeadlineExceeded, ErrBudgetExceeded, ErrOverloaded} {
		if !IsPolicy(err) {
			t.Errorf("IsPolicy(%v) = false", err)
		}
	}
	if IsPolicy(errors.New("disk on fire")) {
		t.Error("IsPolicy claims an arbitrary error")
	}
	if IsPolicy(&PanicError{Value: "boom"}) {
		t.Error("a contained panic is an engine failure, not a policy outcome")
	}
	if IsPolicy(nil) {
		t.Error("IsPolicy(nil)")
	}
}

func TestCtxError(t *testing.T) {
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if err := CtxError(canceled); !errors.Is(err, ErrCanceled) {
		t.Errorf("canceled ctx mapped to %v", err)
	}
	expired, cancel2 := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel2()
	if err := CtxError(expired); !errors.Is(err, ErrDeadlineExceeded) {
		t.Errorf("expired ctx mapped to %v", err)
	}
}

func TestConfigEnabled(t *testing.T) {
	if (Config{}).Enabled() {
		t.Error("zero config reports enabled")
	}
	if (Config{Context: context.Background()}).Enabled() {
		t.Error("Background (non-cancelable) context reports enabled")
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, c := range []Config{{Context: ctx}, {MaxResultRows: 1}, {MemoryBudget: 1}} {
		if !c.Enabled() {
			t.Errorf("%+v reports disabled", c)
		}
	}
}

func TestGovernorFailFirstWins(t *testing.T) {
	g := New(Config{})
	first := errors.New("first")
	g.Fail(first)
	g.Fail(errors.New("second"))
	if !errors.Is(g.Err(), first) {
		t.Errorf("Err = %v, want the first failure", g.Err())
	}
	if !g.Stopped() {
		t.Error("failed governor not stopped")
	}
	if g.Check() {
		t.Error("Check passes after Fail")
	}
}

func TestGovernorCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	g := New(Config{Context: ctx})
	if !g.Check() {
		t.Fatal("healthy governor failed Check")
	}
	cancel()
	if g.Check() {
		t.Fatal("Check passes with canceled context")
	}
	if !errors.Is(g.Err(), ErrCanceled) {
		t.Errorf("Err = %v, want ErrCanceled", g.Err())
	}
}

// drive runs a worker's amortized loop the way core does: one step per
// emitted row, charging the rows produced since the last check each time the
// worker-local countdown (refilled from Interval) expires.
func drive(g *Governor, rows int) bool {
	tick, pending := g.Interval(), int64(0)
	for i := 0; i < rows; i++ {
		pending++
		if tick--; tick > 0 {
			continue
		}
		tick = g.Interval()
		if !g.Produced(pending, 0) {
			return false
		}
		pending = 0
	}
	return g.Produced(pending, 0)
}

func TestGateRowBudget(t *testing.T) {
	g := New(Config{MaxResultRows: 10, CheckInterval: 4})
	if !drive(g, 10) {
		t.Fatal("budget tripped within budget")
	}
	// The 11th row exceeds the budget at the next charge.
	if g.Produced(1, 0) {
		t.Fatal("Produced passed with budget exceeded")
	}
	if !errors.Is(g.Err(), ErrBudgetExceeded) {
		t.Errorf("Err = %v, want ErrBudgetExceeded", g.Err())
	}
}

func TestGateMemoryBudget(t *testing.T) {
	g := New(Config{MemoryBudget: 100, CheckInterval: 1 << 20})
	if !g.Produced(1, 64) {
		t.Fatal("within-budget charge failed")
	}
	// A second worker's charge brings the shared total to 128 > 100.
	if g.Produced(1, 64) {
		t.Fatal("over-budget charge passed")
	}
	if !errors.Is(g.Err(), ErrBudgetExceeded) {
		t.Errorf("Err = %v, want ErrBudgetExceeded", g.Err())
	}
}

func TestIntervalForEstimate(t *testing.T) {
	if got := IntervalForEstimate(0); got != DefaultCheckInterval {
		t.Errorf("small estimate interval = %d", got)
	}
	if got := IntervalForEstimate(1e9); got >= DefaultCheckInterval {
		t.Errorf("huge estimate interval = %d, want tighter than default", got)
	}
}

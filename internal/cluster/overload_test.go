package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"parj/internal/governance"
	"parj/internal/live"
	"parj/internal/lubm"
	"parj/internal/remote"
	"parj/internal/resilience"
	"parj/internal/resilience/chaos"
	"parj/internal/store"
	"parj/internal/testutil"
)

// startTunedNode is startNode with admission knobs: a tiny concurrency cap
// plus the adaptive controller, so a handful of concurrent coordinator
// queries is already an overload storm.
func startTunedNode(t *testing.T, f *fixture, gov live.Options) (*remote.Node, *httptest.Server) {
	t.Helper()
	h := live.New(f.st, f.ss, store.InferBuildOptions(f.st))
	h.SetOptions(gov)
	n := remote.NewNodeHandle(h, remote.NodeOptions{})
	return n, httptest.NewServer(n.Handler())
}

// breakerAllows reads one endpoint's breaker from the routing table;
// in-package tests use it to pin "overload never tripped the breaker"
// directly rather than only through routing behavior.
func breakerAllows(t *testing.T, r *Remote, endpoint string) bool {
	t.Helper()
	st := r.endpoint(endpoint)
	if st == nil {
		t.Fatalf("endpoint %s not in the routing table", endpoint)
	}
	return st.breaker.Allow()
}

// TestReplicaOrderPrefersLighterReplica: with both replicas healthy, the
// power-of-two-choices order must lead with whichever endpoint carries
// fewer in-flight attempts — in both directions.
func TestReplicaOrderPrefersLighterReplica(t *testing.T) {
	r, err := NewRemote(RemoteOptions{Replicas: [][]string{{"http://a", "http://b"}}})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	a, b := r.groups[0][0].load, r.groups[0][1].load

	// Two in-flight attempts on replica 0: every order must lead with 1.
	a.Start()
	a.Start()
	for i := 0; i < 32; i++ {
		if order := r.replicaOrder(0); order[0] != 1 {
			t.Fatalf("iteration %d: order %v leads with the loaded replica", i, order)
		}
	}

	// Tip the balance the other way: now replica 0 is the lighter one.
	for j := 0; j < 3; j++ {
		b.Start()
	}
	a.Finish(time.Millisecond)
	a.Finish(time.Millisecond)
	for i := 0; i < 32; i++ {
		if order := r.replicaOrder(0); order[0] != 0 {
			t.Fatalf("iteration %d: order %v ignores the load flip", i, order)
		}
	}
}

// TestReplicaOrderSheddingTier: a replica inside its shed-backoff window
// drops to the shedding tier (tried only after every ready replica) but is
// never treated as down; the window expiring restores it. The same signal
// feeds tier saturation, which is what suppresses hedging.
func TestReplicaOrderSheddingTier(t *testing.T) {
	clk := resilience.NewFakeClock(time.Unix(0, 0))
	r, err := NewRemote(RemoteOptions{
		Replicas: [][]string{{"http://a", "http://b"}},
		Clock:    clk,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	a := r.groups[0][0].load

	if r.saturated() {
		t.Fatal("fresh tier reports saturated")
	}
	a.MarkOverloaded(time.Second)
	for i := 0; i < 32; i++ {
		order := r.replicaOrder(0)
		if len(order) != 2 || order[0] != 1 || order[1] != 0 {
			t.Fatalf("order %v — overloaded replica must trail, not vanish", order)
		}
	}
	// 1 of 2 distinct endpoints shedding: half the tier, so saturated.
	if !r.saturated() {
		t.Fatal("half the endpoints in shed backoff, tier not saturated")
	}

	clk.Advance(2 * time.Second)
	if r.saturated() {
		t.Fatal("shed backoff expired but the tier still reads saturated")
	}
	if a.Overloaded() {
		t.Fatal("shed backoff did not expire with the clock")
	}
}

// TestBreakerClosedThroughRejectionBurst is the satellite regression: a
// node shedding under admission control returns typed overloads, and a
// burst of them must NOT trip the endpoint's circuit breaker — overload is
// backpressure, not failure. A hair-trigger breaker (threshold 1, open for
// an hour) makes any miscount immediately visible.
func TestBreakerClosedThroughRejectionBurst(t *testing.T) {
	defer testutil.LeakCheck(t)()
	f := lubmFixture(t)
	node, srv := startTunedNode(t, f, live.Options{
		MaxConcurrentQueries: 1,
		AdmissionWait:        time.Millisecond,
	})
	defer srv.Close()

	r, err := NewRemote(RemoteOptions{
		Replicas:    [][]string{{srv.URL}},
		MaxAttempts: 2,
		Backoff:     resilience.Backoff{Base: time.Millisecond, Max: 2 * time.Millisecond},
		Seed:        7,
		Breaker:     resilience.BreakerOptions{FailureThreshold: 1, OpenFor: time.Hour},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	// The storm: 8 concurrent workers against a MaxConcurrent=1 node with
	// a 1ms queue — most arrivals shed with 503.
	var wg sync.WaitGroup
	var failures []error
	var mu sync.Mutex
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				q := remoteQueries[(i+w)%len(remoteQueries)]
				if _, err := r.Execute(context.Background(), q.src, true); err != nil {
					mu.Lock()
					failures = append(failures, err)
					mu.Unlock()
				}
			}
		}(w)
	}
	wg.Wait()

	if node.Statz().Sheds == 0 {
		t.Fatal("storm produced zero sheds — the burst never exercised admission control")
	}
	for _, err := range failures {
		if !errors.Is(err, governance.ErrOverloaded) {
			t.Fatalf("storm failure %v is not typed ErrOverloaded", err)
		}
		var ne *remote.NodeError
		if errors.As(err, &ne) && ne.RetryAfter <= 0 {
			t.Fatalf("node overload carried no Retry-After hint: %v", err)
		}
	}

	// The breaker must still admit: directly, and behaviorally — a
	// post-storm query succeeds on its first attempt.
	if !breakerAllows(t, r, srv.URL) {
		t.Fatal("rejection burst tripped the breaker — overload was counted as failure")
	}
	res, err := r.Execute(context.Background(), remoteQueries[1].src, false)
	if err != nil {
		t.Fatalf("post-storm query failed: %v", err)
	}
	if res.Attempts != 1 {
		t.Fatalf("post-storm query took %d attempts, want 1 (breaker closed, node idle)", res.Attempts)
	}
	checkAgainstOracle(t, f, remoteQueries[1], res.Count, res.Rows)
}

// TestOverloadStormChaos is the tentpole acceptance scenario: a replica
// tier driven well past its admission capacity, with a slow-loris proxy
// degrading one path and another replica killed mid-storm. Every query
// that the cluster admits must return oracle-exact rows; every query it
// refuses must carry a typed, retryable overload or deadline error; the
// live endpoints' breakers stay closed through the whole storm; and no
// goroutine survives the test.
func TestOverloadStormChaos(t *testing.T) {
	defer testutil.LeakCheck(t)()
	f := lubmFixture(t)

	tuned := live.Options{
		MaxConcurrentQueries: 1,
		AdmissionWait:        20 * time.Millisecond,
		AdmissionTarget:      2 * time.Millisecond,
		AdmissionInterval:    20 * time.Millisecond,
	}
	n0, s0 := startTunedNode(t, f, tuned)
	defer s0.Close()
	n1, s1 := startTunedNode(t, f, tuned)
	defer s1.Close()
	n2, s2 := startTunedNode(t, f, tuned)
	defer s2.Close()

	// victim fronts s2 and is killed mid-storm; loris drips bytes from s0
	// so one of the four paths is pathologically slow the whole time.
	victim, err := chaos.New(hostport(s2), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer victim.Close()
	loris, err := chaos.New(hostport(s0), chaos.SlowLoris(1, 50*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer loris.Close()

	// qHeavy's two-scan cross product holds a node's single admission slot
	// for long enough that concurrent arrivals genuinely queue — the storm
	// needs work, not just requests. Checked by count against the oracle.
	qHeavy := `SELECT ?x ?y ?a ?b WHERE {
		?x ` + lubm.PredTakesCourse + ` ?y .
		?a ` + lubm.PredMemberOf + ` ?b }`
	heavyCount := oracle(t, f, qHeavy, 4, true).Count

	clk := resilience.NewFakeClock(time.Unix(0, 0))
	stopClock := driveClock(clk)
	defer stopClock()

	r, err := NewRemote(RemoteOptions{
		Replicas:     [][]string{{s0.URL, s1.URL, victim.URL(), loris.URL()}},
		ShardTimeout: 500 * time.Millisecond,
		MaxAttempts:  6,
		Backoff:      resilience.Backoff{Base: time.Millisecond, Max: 5 * time.Millisecond},
		Seed:         42,
		HedgeAfter:   10 * time.Millisecond,
		Breaker:      resilience.BreakerOptions{FailureThreshold: 3, OpenFor: time.Hour},
		Clock:        clk,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	// The storm: 6 workers × 8 queries, every one under a client deadline
	// so DeadlineBudgetMS propagates to the nodes. Admitted queries are
	// oracle-checked; refused queries must be typed.
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		admitted int
		refused  []error
		done     atomic.Int64
	)
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
				if i%2 == 0 {
					res, err := r.Execute(ctx, qHeavy, true)
					mu.Lock()
					switch {
					case err != nil:
						refused = append(refused, fmt.Errorf("heavy: %w", err))
					case res.Count != heavyCount:
						t.Errorf("heavy count %d, oracle %d", res.Count, heavyCount)
					default:
						admitted++
					}
					mu.Unlock()
				} else {
					q := remoteQueries[(i+w)%len(remoteQueries)]
					res, err := r.Execute(ctx, q.src, false)
					mu.Lock()
					if err != nil {
						refused = append(refused, fmt.Errorf("%s: %w", q.src, err))
					} else {
						checkAgainstOracle(t, f, q, res.Count, res.Rows)
						admitted++
					}
					mu.Unlock()
				}
				cancel()
				done.Add(1)
			}
		}(w)
	}

	// Kill the victim replica mid-storm.
	waitForCond(t, func() bool { return done.Load() >= 8 })
	victim.Kill()
	wg.Wait()

	if admitted == 0 {
		t.Fatal("storm admitted zero queries — the tier collapsed instead of shedding")
	}
	for _, err := range refused {
		if !errors.Is(err, governance.ErrOverloaded) && !errors.Is(err, governance.ErrDeadlineExceeded) {
			t.Fatalf("refused query error is untyped: %v", err)
		}
	}

	// The storm must actually have exercised admission control somewhere.
	sheds := int64(0)
	for _, n := range []*remote.Node{n0, n1, n2} {
		sz := n.Statz()
		sheds += sz.Sheds + sz.Expired
	}
	if sheds == 0 {
		t.Fatal("no node shed or expired a single request at 6× a node's concurrency")
	}

	// Overload and the victim kill must not have opened the live direct
	// endpoints' breakers: shedding is backpressure, only the dead proxy
	// may trip.
	for _, ep := range []string{s0.URL, s1.URL} {
		if !breakerAllows(t, r, ep) {
			t.Fatalf("storm opened the breaker for live endpoint %s", ep)
		}
	}

	// The tier drains: with the storm over, a fresh query succeeds.
	res, err := r.Execute(context.Background(), remoteQueries[0].src, false)
	if err != nil {
		t.Fatalf("post-storm query failed: %v", err)
	}
	checkAgainstOracle(t, f, remoteQueries[0], res.Count, res.Rows)
}

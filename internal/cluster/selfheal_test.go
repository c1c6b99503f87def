package cluster

import (
	"context"
	"fmt"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"parj/internal/lubm"
	"parj/internal/remote"
	"parj/internal/resilience"
	"parj/internal/resilience/chaos"
	"parj/internal/testutil"
)

// driveClock runs a FakeClock forward whenever any coordinator timer
// (backoff sleep, hedge delay) is parked on it, so every
// time-based decision in a chaos test is driven by the deterministic fake
// schedule instead of the wall clock. Returns a stop function.
func driveClock(clk *resilience.FakeClock) func() {
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if clk.Waiters() > 0 {
				clk.Advance(50 * time.Millisecond)
			} else {
				time.Sleep(200 * time.Microsecond)
			}
		}
	}()
	return func() { close(stop); <-done }
}

// TestRemoteSlowLoris: a replica that trickles response bytes forever is
// only recoverable through the per-attempt deadline — and, with hedging
// on, through a hedge racing past it. Both paths must converge on the
// healthy replica's oracle-exact answer.
func TestRemoteSlowLoris(t *testing.T) {
	defer testutil.LeakCheck(t)()
	f := lubmFixture(t)
	_, live := startNode(t, f)
	defer live.Close()
	src := `SELECT ?x ?y WHERE { ?x ` + lubm.PredTakesCourse + ` ?y }`
	want := oracle(t, f, src, 2, true)

	mk := func(hedge time.Duration) (*Remote, *chaos.Proxy) {
		loris, err := chaos.New(hostport(live), chaos.SlowLoris(1, 50*time.Millisecond))
		if err != nil {
			t.Fatal(err)
		}
		r, err := NewRemote(RemoteOptions{
			Replicas:     [][]string{{loris.URL(), live.URL}},
			ShardTimeout: 100 * time.Millisecond,
			MaxAttempts:  3,
			Backoff:      resilience.Backoff{Base: time.Millisecond, Max: 2 * time.Millisecond},
			HedgeAfter:   hedge,
		})
		if err != nil {
			t.Fatal(err)
		}
		return r, loris
	}

	// No hedging: the slow-loris attempt must die at ShardTimeout and the
	// retry must recover the query on the live replica.
	r, loris := mk(0)
	res, err := r.Execute(context.Background(), src, true)
	if err != nil {
		t.Fatalf("slow-loris without hedging: %v", err)
	}
	if res.Count != want.Count {
		t.Fatalf("count %d, oracle %d", res.Count, want.Count)
	}
	if res.Attempts != 2 {
		t.Fatalf("attempts = %d, want 2 (loris timed out, live served)", res.Attempts)
	}
	r.Close()
	loris.Close()

	// Hedging: the hedge fires long before the per-attempt deadline and
	// wins without waiting for the loris attempt to die.
	r, loris = mk(20 * time.Millisecond)
	start := time.Now()
	res, err = r.Execute(context.Background(), src, true)
	if err != nil {
		t.Fatalf("slow-loris with hedging: %v", err)
	}
	if res.Count != want.Count {
		t.Fatalf("count %d, oracle %d", res.Count, want.Count)
	}
	if res.Attempts != 2 {
		t.Fatalf("attempts = %d, want 2 (primary + hedge)", res.Attempts)
	}
	if elapsed := time.Since(start); elapsed >= 100*time.Millisecond {
		t.Errorf("hedged query took %v — it waited for the loris deadline instead of hedging", elapsed)
	}
	r.Close()
	loris.Close()
}

// TestRemoteHungReplicaLosesTiebreak: a replica whose every attempt hangs
// until ShardTimeout must not keep winning power-of-two-choices. Sequential
// queries leave both replicas with nothing in flight, so the smoothed
// latency decides; a timed-out attempt feeds its elapsed time into it, so
// after one query has met the loris it ranks behind the live replica and
// every later query is served by a single attempt.
func TestRemoteHungReplicaLosesTiebreak(t *testing.T) {
	defer testutil.LeakCheck(t)()
	f := lubmFixture(t)
	_, live := startNode(t, f)
	defer live.Close()
	loris, err := chaos.New(hostport(live), chaos.SlowLoris(1, 50*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer loris.Close()
	const timeout = 100 * time.Millisecond
	r, err := NewRemote(RemoteOptions{
		Replicas:     [][]string{{loris.URL(), live.URL}},
		ShardTimeout: timeout,
		Backoff:      resilience.Backoff{Base: time.Millisecond, Max: 2 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	src := `SELECT ?x ?y WHERE { ?x ` + lubm.PredTakesCourse + ` ?y }`
	want := oracle(t, f, src, 1, true)
	attempts := make([]int64, 8)
	met := 0 // queries whose first attempt went to the loris
	for i := range attempts {
		res, err := r.Execute(context.Background(), src, true)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if res.Count != want.Count {
			t.Fatalf("query %d: count %d, oracle %d", i, res.Count, want.Count)
		}
		attempts[i] = res.Attempts
		if res.Attempts > 1 {
			met++
		}
	}
	if met > 1 {
		t.Errorf("attempts per query %v: the hung replica led %d queries, want at most 1", attempts, met)
	}
	if lat := r.endpoint(loris.URL()).load.Latency(); lat < timeout {
		t.Errorf("hung replica's latency reads %v, want at least its %v timeout", lat, timeout)
	}
}

// TestRemoteChaosMigration is the acceptance scenario for replica death
// under load: while a stream of queries runs under FailFast, one replica
// per shard group is killed, and every single query in the stream returns
// oracle-exact rows. The fixed table lists three replicas per group — the
// third a node warmed from a peer's CRC-checked snapshot stream, shared by
// both groups. Coordinator timers run on a FakeClock driven
// deterministically; the leak check covers the whole run.
func TestRemoteChaosMigration(t *testing.T) {
	defer testutil.LeakCheck(t)()
	f := lubmFixture(t)
	_, n0 := startNode(t, f)
	defer n0.Close()
	_, n1 := startNode(t, f)
	defer n1.Close()

	// One killable proxy per shard group, fronting the direct nodes.
	p0, err := chaos.New(hostport(n0), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer p0.Close()
	p1, err := chaos.New(hostport(n1), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer p1.Close()

	// The third replica warms from n0's snapshot stream.
	src := remote.NewClient(n0.URL, 0)
	st, err := src.Snapshot(context.Background())
	src.Close()
	if err != nil {
		t.Fatalf("snapshot warmup: %v", err)
	}
	warmed := remote.NewNode(st, nil, remote.NodeOptions{})
	srvW := httptest.NewServer(warmed.Handler())
	defer srvW.Close()

	clk := resilience.NewFakeClock(time.Unix(0, 0))
	stopClock := driveClock(clk)
	defer stopClock()

	r, err := NewRemote(RemoteOptions{
		Replicas: [][]string{
			{p0.URL(), n0.URL, srvW.URL},
			{n1.URL, p1.URL(), srvW.URL},
		},
		ThreadsPerShard: 2,
		MaxAttempts:     6,
		Backoff:         resilience.Backoff{Base: time.Millisecond, Max: 10 * time.Millisecond},
		Seed:            42,
		Clock:           clk,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	// The query stream: spin until told to stop, recording every failure.
	// FailFast + oracle check per query = exact equivalence under churn.
	var (
		stop    atomic.Bool
		wg      sync.WaitGroup
		mu      sync.Mutex
		served  int
		streamE []error
	)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				q := remoteQueries[(i+w)%len(remoteQueries)]
				res, err := r.Execute(context.Background(), q.src, false)
				mu.Lock()
				if err != nil {
					streamE = append(streamE, fmt.Errorf("%s: %w", q.src, err))
				} else {
					checkAgainstOracle(t, f, q, res.Count, res.Rows)
					served++
				}
				mu.Unlock()
			}
		}(w)
	}

	servedNow := func() int {
		mu.Lock()
		defer mu.Unlock()
		return served
	}
	waitForServed := func(n int) {
		waitForCond(t, func() bool { return servedNow() >= n })
	}
	waitForServed(3)

	// Kill one replica per shard group mid-stream.
	p0.Kill()
	p1.Kill()
	waitForServed(servedNow() + 6)

	stop.Store(true)
	wg.Wait()
	if len(streamE) > 0 {
		t.Fatalf("%d queries failed under FailFast after replica deaths; first: %v", len(streamE), streamE[0])
	}
	if sz := warmed.Statz(); sz.Queries == 0 {
		t.Error("snapshot-warmed replica never served a query")
	}
}

// waitForCond polls cond for up to 10s.
func waitForCond(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never became true")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
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
// (backoff sleep, hedge delay, health tick) is parked on it, so every
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

// TestReconfigureEpochSemantics pins the core contract: a query in flight
// when Reconfigure swaps the table finishes on the epoch it started on
// (routing to a replica the new table no longer lists), new queries route
// on the new table only, and the retired epoch + endpoint are released
// once the straggler drains.
func TestReconfigureEpochSemantics(t *testing.T) {
	defer testutil.LeakCheck(t)()
	f := lubmFixture(t)
	nodeA, srvA := startNode(t, f)
	defer srvA.Close()
	nodeB, srvB := startNode(t, f)
	defer srvB.Close()

	// Gate the first /exec on A so the query is provably mid-flight while
	// the topology changes under it.
	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	nodeA.ExecStarted = func(*remote.ExecRequest) {
		once.Do(func() { close(entered); <-release })
	}

	r, err := NewRemote(RemoteOptions{Replicas: [][]string{{srvA.URL}}})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	q := remoteQueries[0]
	type out struct {
		res *RemoteResult
		err error
	}
	got := make(chan out, 1)
	go func() {
		res, err := r.Execute(context.Background(), q.src, false)
		got <- out{res, err}
	}()
	<-entered

	// Swap A out for B while the query sits inside A's handler.
	v, err := r.Reconfigure(context.Background(), [][]string{{srvB.URL}})
	if err != nil {
		t.Fatal(err)
	}
	if v != 2 {
		t.Fatalf("version after first reconfigure = %d, want 2", v)
	}
	if n := r.DrainingEpochs(); n != 1 {
		t.Fatalf("draining epochs = %d, want 1 (in-flight query pins the old epoch)", n)
	}

	// A new query admitted now must route on the new table — node B only.
	if _, err := r.Execute(context.Background(), q.src, true); err != nil {
		t.Fatal(err)
	}
	if szB := nodeB.Statz(); szB.Queries == 0 {
		t.Fatal("post-swap query did not reach the new replica")
	}

	// Release the straggler: it must complete against A (its epoch) with
	// oracle-exact rows, and its drain must release the retired epoch and
	// close A out of the registry.
	close(release)
	o := <-got
	if o.err != nil {
		t.Fatalf("in-flight query failed across reconfigure: %v", o.err)
	}
	checkAgainstOracle(t, f, q, o.res.Count, o.res.Rows)
	waitForCond(t, func() bool { return r.DrainingEpochs() == 0 })
	if eps := r.Endpoints(); len(eps) != 1 || eps[0] != srvB.URL {
		t.Fatalf("registry after drain = %v, want just %s", eps, srvB.URL)
	}
	if szA := nodeA.Statz(); szA.Queries != 1 {
		t.Fatalf("node A served %d queries, want exactly the pinned one", szA.Queries)
	}
}

// TestConcurrentTopologyMutationsBothSurvive races two admissions derived
// from the same routing-table version. Each joiner's /readyz answers only
// once both admissions are probing, so both edits provably start from one
// Topology read; the loser must notice the table moved and redo its edit on
// the winner's table instead of overwriting it.
func TestConcurrentTopologyMutationsBothSurvive(t *testing.T) {
	defer testutil.LeakCheck(t)()
	f := lubmFixture(t)
	_, srvA := startNode(t, f)
	defer srvA.Close()

	var probing sync.WaitGroup
	probing.Add(2)
	gatedJoiner := func() *httptest.Server {
		h := remote.NewNode(f.st, f.ss, remote.NodeOptions{}).Handler()
		var once sync.Once
		return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
			if req.URL.Path == "/readyz" {
				once.Do(func() { probing.Done(); probing.Wait() })
			}
			h.ServeHTTP(w, req)
		}))
	}
	srvB, srvC := gatedJoiner(), gatedJoiner()
	defer srvB.Close()
	defer srvC.Close()

	r, err := NewRemote(RemoteOptions{Replicas: [][]string{{srvA.URL}, {srvA.URL}}})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	errs := make(chan error, 2)
	go func() { _, err := r.AddReplica(context.Background(), 0, srvB.URL); errs <- err }()
	go func() { _, err := r.AddReplica(context.Background(), 1, srvC.URL); errs <- err }()
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	version, replicas := r.Topology()
	want := [][]string{{srvA.URL, srvB.URL}, {srvA.URL, srvC.URL}}
	if !reflect.DeepEqual(replicas, want) {
		t.Fatalf("topology v%d = %v, want both admissions: %v", version, replicas, want)
	}
	if version != 3 {
		t.Fatalf("topology version = %d, want 3 (two swaps, the loser's stale one refused)", version)
	}
}

// TestReconfigureAdmissionGate: a warming replica cannot enter the routing
// table; once it reports ready it can. A dead endpoint can never be
// (re-)admitted.
func TestReconfigureAdmissionGate(t *testing.T) {
	defer testutil.LeakCheck(t)()
	f := lubmFixture(t)
	_, srvA := startNode(t, f)
	defer srvA.Close()
	warming := remote.NewNode(f.st, f.ss, remote.NodeOptions{NotReady: true})
	srvW := httptest.NewServer(warming.Handler())
	defer srvW.Close()

	r, err := NewRemote(RemoteOptions{Replicas: [][]string{{srvA.URL}}})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	if _, err := r.AddReplica(context.Background(), 0, srvW.URL); !errors.Is(err, remote.ErrNotReady) {
		t.Fatalf("admitting a warming replica returned %v, want ErrNotReady", err)
	}
	if v, replicas := r.Topology(); v != 1 || len(replicas[0]) != 1 {
		t.Fatalf("refused admission must not change the table: v%d %v", v, replicas)
	}
	warming.SetReady(true)
	if _, err := r.AddReplica(context.Background(), 0, srvW.URL); err != nil {
		t.Fatalf("admitting a ready replica: %v", err)
	}
	if _, replicas := r.Topology(); len(replicas[0]) != 2 {
		t.Fatalf("table after admission = %v, want 2 replicas in group 0", replicas)
	}

	// And a dead endpoint is refused outright.
	dead := deadEndpoint(t)
	var te *remote.TransportError
	if _, err := r.AddReplica(context.Background(), 0, dead); !errors.As(err, &te) {
		t.Fatalf("admitting a dead endpoint returned %v, want TransportError", err)
	}
}

// TestReconfigureBreakerCarryOver: an endpoint surviving a reconfiguration
// keeps its tripped breaker — the new epoch must not grant a dead replica
// a fresh reputation.
func TestReconfigureBreakerCarryOver(t *testing.T) {
	defer testutil.LeakCheck(t)()
	f := lubmFixture(t)
	_, live := startNode(t, f)
	defer live.Close()
	dead := deadEndpoint(t)

	r, err := NewRemote(RemoteOptions{
		Replicas:    [][]string{{dead, live.URL}},
		MaxAttempts: 4,
		Backoff:     resilience.Backoff{Base: time.Millisecond, Max: 2 * time.Millisecond},
		Breaker:     resilience.BreakerOptions{FailureThreshold: 1, OpenFor: time.Hour},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	src := `SELECT ?x ?y WHERE { ?x ` + lubm.PredTakesCourse + ` ?y }`
	res, err := r.Execute(context.Background(), src, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.Attempts != 2 {
		t.Fatalf("first query attempts = %d, want 2 (dead fails, breaker trips, live serves)", res.Attempts)
	}

	// Same endpoints, new epoch. The dead endpoint's open breaker must
	// carry over: the next query skips it without spending an attempt.
	if _, err := r.Reconfigure(context.Background(), [][]string{{dead, live.URL}}); err != nil {
		t.Fatal(err)
	}
	res, err = r.Execute(context.Background(), src, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.Attempts != 1 {
		t.Fatalf("post-reconfigure attempts = %d, want 1 (carried-over breaker short-circuits)", res.Attempts)
	}
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

// TestRemotePartialHealsAfterReconfigure: under Partial policy a dead
// shard group degrades Completeness; replacing the dead replica via
// Reconfigure heals the cluster back to Completeness 1 — no restart, no
// new coordinator.
func TestRemotePartialHealsAfterReconfigure(t *testing.T) {
	defer testutil.LeakCheck(t)()
	f := lubmFixture(t)
	_, live := startNode(t, f)
	defer live.Close()
	dead := deadEndpoint(t)
	src := `SELECT ?x ?y WHERE { ?x ` + lubm.PredTakesCourse + ` ?y }`

	r, err := NewRemote(RemoteOptions{
		Replicas:        [][]string{{live.URL}, {dead}},
		ThreadsPerShard: 1,
		MaxAttempts:     2,
		Backoff:         resilience.Backoff{Base: time.Millisecond, Max: 2 * time.Millisecond},
		Policy:          Partial,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	res, err := r.Execute(context.Background(), src, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completeness != 0.5 || res.ShardErrors[1] == nil {
		t.Fatalf("degraded: completeness %v, shard errors %v", res.Completeness, res.ShardErrors)
	}

	// Heal: point shard group 1 at the live replica.
	if _, err := r.Reconfigure(context.Background(), [][]string{{live.URL}, {live.URL}}); err != nil {
		t.Fatal(err)
	}
	res, err = r.Execute(context.Background(), src, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completeness != 1 {
		t.Fatalf("healed completeness %v, want 1", res.Completeness)
	}
	want := oracle(t, f, src, 2, false)
	if res.Count != want.Count {
		t.Fatalf("healed count %d, oracle %d", res.Count, want.Count)
	}
}

// TestRemoteChaosMigration is the acceptance scenario: while a stream of
// queries runs under FailFast, a brand-new replica is warmed from a peer's
// CRC-checked snapshot stream and admitted, one existing replica per shard
// group is killed, and a cold replica is demoted — and every single query
// in the stream returns oracle-exact rows. Coordinator timers run on a
// FakeClock driven deterministically; the leak check covers the whole
// churn.
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

	clk := resilience.NewFakeClock(time.Unix(0, 0))
	stopClock := driveClock(clk)
	defer stopClock()

	r, err := NewRemote(RemoteOptions{
		Replicas: [][]string{
			{p0.URL(), n0.URL},
			{n1.URL, p1.URL()},
		},
		ThreadsPerShard: 2,
		MaxAttempts:     6,
		Backoff:         resilience.Backoff{Base: time.Millisecond, Max: 10 * time.Millisecond},
		Seed:            42,
		HealthInterval:  100 * time.Millisecond,
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

	// (1) Warm a brand-new replica from n0's snapshot stream and admit it
	// to both groups. Admission while warming must be refused.
	src := remote.NewClient(n0.URL, 0)
	st, err := src.Snapshot(context.Background())
	src.Close()
	if err != nil {
		t.Fatalf("snapshot warmup: %v", err)
	}
	joiner := remote.NewNode(st, nil, remote.NodeOptions{NotReady: true})
	srvJ := httptest.NewServer(joiner.Handler())
	defer srvJ.Close()
	if _, err := r.AddReplica(context.Background(), 0, srvJ.URL); !errors.Is(err, remote.ErrNotReady) {
		t.Fatalf("warming joiner admitted: %v", err)
	}
	joiner.SetReady(true)
	if _, err := r.AddReplica(context.Background(), 0, srvJ.URL); err != nil {
		t.Fatal(err)
	}
	if _, err := r.AddReplica(context.Background(), 1, srvJ.URL); err != nil {
		t.Fatal(err)
	}
	waitForServed(servedNow() + 3)

	// (2) Kill one replica per shard group mid-stream.
	p0.Kill()
	p1.Kill()
	waitForServed(servedNow() + 3)

	// (3) Remove the dead proxies and demote a cold replica (n0 from
	// group 0 — the joiner and n1 keep serving).
	if _, err := r.RemoveReplica(context.Background(), 0, p0.URL()); err != nil {
		t.Fatal(err)
	}
	if _, err := r.RemoveReplica(context.Background(), 1, p1.URL()); err != nil {
		t.Fatal(err)
	}
	if _, err := r.RemoveReplica(context.Background(), 0, n0.URL); err != nil {
		t.Fatal(err)
	}
	waitForServed(servedNow() + 3)

	stop.Store(true)
	wg.Wait()
	if len(streamE) > 0 {
		t.Fatalf("%d queries failed under FailFast during migration; first: %v", len(streamE), streamE[0])
	}

	// The joiner actually carries load, topology converged, and every
	// retired epoch drained.
	if sz := joiner.Statz(); sz.Queries == 0 {
		t.Error("warmed joiner never served a query")
	}
	_, replicas := r.Topology()
	if len(replicas[0]) != 1 || replicas[0][0] != srvJ.URL || len(replicas[1]) != 2 {
		t.Fatalf("final table = %v", replicas)
	}
	waitForCond(t, func() bool { return r.DrainingEpochs() == 0 })
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

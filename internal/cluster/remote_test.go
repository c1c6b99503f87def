package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"parj/internal/core"
	"parj/internal/governance"
	"parj/internal/lubm"
	"parj/internal/optimizer"
	"parj/internal/remote"
	"parj/internal/resilience"
	"parj/internal/resilience/chaos"
	"parj/internal/sparql"
	"parj/internal/stats"
	"parj/internal/store"
	"parj/internal/testutil"
)

type fixture struct {
	st *store.Store
	ss *stats.Stats
}

func lubmFixture(t testing.TB) *fixture {
	t.Helper()
	st := store.LoadTriples(lubm.Triples(2, lubm.Config{}), store.BuildOptions{BuildPosIndex: true})
	return &fixture{st: st, ss: stats.New(st)}
}

func (f *fixture) plan(t testing.TB, src string) *optimizer.Plan {
	t.Helper()
	q, err := sparql.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	p, err := optimizer.Optimize(q, f.st, f.ss)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// startNode stands up one replica node over the fixture's store on a
// loopback HTTP server. The caller closes the returned server.
func startNode(t *testing.T, f *fixture) (*remote.Node, *httptest.Server) {
	t.Helper()
	n := remote.NewNode(f.st, f.ss, remote.NodeOptions{})
	return n, httptest.NewServer(n.Handler())
}

// deadEndpoint returns a loopback URL with nothing listening: dials are
// refused immediately, the cleanest "node is down" a test can get.
func deadEndpoint(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	url := "http://" + ln.Addr().String()
	ln.Close()
	return url
}

func hostport(srv *httptest.Server) string { return strings.TrimPrefix(srv.URL, "http://") }

// remoteQuery pairs what the coordinator executes with the LIMIT-free
// query that defines its containment universe (full == src when there is
// no LIMIT).
type remoteQuery struct {
	src   string
	full  string
	limit int // 0 = exact multiset equality against full
}

func limited(full string, n int) remoteQuery {
	return remoteQuery{src: fmt.Sprintf("%s LIMIT %d", full, n), full: full, limit: n}
}

var (
	qTriangle = `SELECT ?x ?y ?z WHERE {
		?x ` + lubm.PredMemberOf + ` ?z .
		?z ` + lubm.PredSubOrgOf + ` ?y .
		?x ` + lubm.PredUndergradFrom + ` ?y }`
	qScanXY    = `SELECT ?x ?y WHERE { ?x ` + lubm.PredTakesCourse + ` ?y }`
	qScanX     = `SELECT ?x WHERE { ?x ` + lubm.PredTakesCourse + ` ?y }`
	qDistinctY = `SELECT DISTINCT ?y WHERE { ?x ` + lubm.PredTakesCourse + ` ?y }`
)

var remoteQueries = []remoteQuery{
	{src: qTriangle, full: qTriangle},
	{src: qScanXY, full: qScanXY},
	{src: qDistinctY, full: qDistinctY},
	limited(qScanX, 5),
	limited(qDistinctY, 7),
}

// oracle runs the query single-machine with the same global thread count
// the coordinator will use.
func oracle(t *testing.T, f *fixture, src string, threads int, silent bool) *core.Result {
	t.Helper()
	res, err := core.Execute(f.st, f.plan(t, src), core.Options{Threads: threads, Silent: silent})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// sortedRows returns rows in lexicographic order. The morsel scheduler
// assigns morsels to workers dynamically, so a multi-worker merge order is
// scheduling-dependent; oracle comparisons are multiset-level.
func sortedRows(rows [][]uint32) [][]uint32 {
	out := append([][]uint32(nil), rows...)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
	return out
}

// checkAgainstOracle compares one coordinator result with the
// single-machine oracle and returns the expected count. Without LIMIT the
// row multisets must match exactly; with LIMIT the engine is free to pick
// which rows survive the cutoff, so the check is containment — exactly
// min(LIMIT, |full|) rows, each drawn (with multiplicity) from the full
// result — the same semantics the differential harness pins.
func checkAgainstOracle(t *testing.T, f *fixture, q remoteQuery, count int64, rows [][]uint32) int64 {
	t.Helper()
	want := oracle(t, f, q.full, 4, false)
	if q.limit == 0 {
		if count != want.Count || !reflect.DeepEqual(sortedRows(rows), sortedRows(want.Rows)) {
			t.Errorf("%s: diverged from oracle (%d vs %d rows)", q.src, len(rows), len(want.Rows))
		}
		return want.Count
	}
	wantN := int64(q.limit)
	if int64(len(want.Rows)) < wantN {
		wantN = int64(len(want.Rows))
	}
	if count != wantN || int64(len(rows)) != wantN {
		t.Errorf("%s: %d rows (count %d), want min(LIMIT, |full|) = %d",
			q.src, len(rows), count, wantN)
	}
	avail := map[string]int{}
	for _, r := range want.Rows {
		avail[fmt.Sprint(r)]++
	}
	for _, r := range rows {
		k := fmt.Sprint(r)
		if avail[k] == 0 {
			t.Errorf("%s: row %v not in the full oracle result (or over-multiplied)", q.src, r)
			continue
		}
		avail[k]--
	}
	return wantN
}

// TestRemoteHealthyEquivalence: 2 shard groups × 2 replicas over loopback
// HTTP, no faults. Every query must match the single-machine oracle:
// counts and row multisets, LIMIT by containment.
func TestRemoteHealthyEquivalence(t *testing.T) {
	defer testutil.LeakCheck(t)()
	f := lubmFixture(t)
	_, n0 := startNode(t, f)
	defer n0.Close()
	_, n1 := startNode(t, f)
	defer n1.Close()

	r, err := NewRemote(RemoteOptions{
		Replicas:        [][]string{{n0.URL, n1.URL}, {n1.URL, n0.URL}},
		ThreadsPerShard: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	for _, q := range remoteQueries {
		got, err := r.Execute(context.Background(), q.src, false)
		if err != nil {
			t.Fatalf("%s: %v", q.src, err)
		}
		wantCount := checkAgainstOracle(t, f, q, got.Count, got.Rows)
		if got.Completeness != 1 {
			t.Errorf("%s: completeness %v on a healthy cluster", q.src, got.Completeness)
		}
		// Silent counting must agree too.
		cnt, err := r.Count(context.Background(), q.src)
		if err != nil || cnt != wantCount {
			t.Errorf("%s: silent count %d err %v, oracle %d", q.src, cnt, err, wantCount)
		}
	}

	// ORDER BY and OFFSET compare whole decoded results; a gather of ID
	// rows refuses them typed instead of answering with every node's LIMIT.
	for _, mod := range []string{" ORDER BY ?x LIMIT 3", " OFFSET 2"} {
		if got, err := r.Execute(context.Background(), remoteQueries[0].src+mod, false); !errors.Is(err, ErrNeedsDecodedRows) {
			t.Errorf("Execute(...%s) = %+v, %v; want ErrNeedsDecodedRows", mod, got, err)
		}
	}
}

// TestRemoteChaosReplicaDeathMidQuery kills one replica per shard group
// mid-response (the response is cut after 16 bytes, then the proxy refuses
// all connections). The coordinator must fail over to the surviving
// replica and still match the oracle exactly, with no goroutine leaks.
func TestRemoteChaosReplicaDeathMidQuery(t *testing.T) {
	defer testutil.LeakCheck(t)()
	f := lubmFixture(t)
	_, live0 := startNode(t, f)
	defer live0.Close()
	_, live1 := startNode(t, f)
	defer live1.Close()

	// One doomed proxy per shard group, placed where replicaOrder tries it
	// first (shard s starts at replica s%R).
	dying0, err := chaos.New(hostport(live0), chaos.CutFirstThenKill(16))
	if err != nil {
		t.Fatal(err)
	}
	defer dying0.Close()
	dying1, err := chaos.New(hostport(live1), chaos.CutFirstThenKill(16))
	if err != nil {
		t.Fatal(err)
	}
	defer dying1.Close()

	r, err := NewRemote(RemoteOptions{
		Replicas: [][]string{
			{dying0.URL(), live0.URL}, // shard 0 tries replica 0 first
			{live1.URL, dying1.URL()}, // shard 1 tries replica 1 first
		},
		ThreadsPerShard: 2,
		Backoff:         resilience.Backoff{Base: time.Millisecond, Max: 5 * time.Millisecond},
		Seed:            7,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	for _, q := range remoteQueries {
		got, err := r.Execute(context.Background(), q.src, false)
		if err != nil {
			t.Fatalf("%s: %v", q.src, err)
		}
		checkAgainstOracle(t, f, q, got.Count, got.Rows)
		if got.Completeness != 1 {
			t.Errorf("%s: completeness %v, want 1 (failover, not degradation)", q.src, got.Completeness)
		}
	}
}

// corruptFrames relays a node's handler but flips one bit inside the row
// frame of every /exec response — in-flight corruption no transport layer
// reports, since the JSON envelope around the frame stays well-formed.
func corruptFrames(h http.Handler, corrupted *atomic.Int64) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != remote.ExecPath {
			h.ServeHTTP(w, r)
			return
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		body := rec.Body.Bytes()
		var resp remote.ExecResponse
		if rec.Code == http.StatusOK && json.Unmarshal(body, &resp) == nil && len(resp.Frame) > 0 {
			resp.Frame[len(resp.Frame)/2] ^= 0x04
			body, _ = json.Marshal(resp)
			corrupted.Add(1)
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(rec.Code)
		w.Write(body)
	})
}

// TestRemoteCorruptFrameFailsOver: one replica of each shard group answers
// with a bit flipped inside its row frame. The frame's checksum turns that
// into a transport fault, so the coordinator retries on the clean replica
// and every result still equals the oracle's — with JSON rows the same flip
// was a wrong ID in the answer, or a parse error, depending on the bit.
func TestRemoteCorruptFrameFailsOver(t *testing.T) {
	defer testutil.LeakCheck(t)()
	f := lubmFixture(t)
	_, clean0 := startNode(t, f)
	defer clean0.Close()
	_, clean1 := startNode(t, f)
	defer clean1.Close()
	var corrupted atomic.Int64
	bad0 := httptest.NewServer(corruptFrames(remote.NewNode(f.st, f.ss, remote.NodeOptions{}).Handler(), &corrupted))
	defer bad0.Close()
	bad1 := httptest.NewServer(corruptFrames(remote.NewNode(f.st, f.ss, remote.NodeOptions{}).Handler(), &corrupted))
	defer bad1.Close()

	r, err := NewRemote(RemoteOptions{
		Replicas:        [][]string{{bad0.URL, clean0.URL}, {clean1.URL, bad1.URL}},
		ThreadsPerShard: 2,
		Backoff:         resilience.Backoff{Base: time.Millisecond, Max: 5 * time.Millisecond},
		// The breaker must count these faults, but never open: the point
		// here is that every corrupted answer is caught, not avoided.
		Breaker: resilience.BreakerOptions{FailureThreshold: 1 << 20},
		Seed:    7,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	var attempts, shards int64
	for round := 0; round < 4; round++ {
		for _, q := range remoteQueries {
			got, err := r.Execute(context.Background(), q.src, false)
			if err != nil {
				t.Fatalf("%s: %v", q.src, err)
			}
			checkAgainstOracle(t, f, q, got.Count, got.Rows)
			if got.Completeness != 1 {
				t.Errorf("%s: completeness %v, want 1 (failover, not degradation)", q.src, got.Completeness)
			}
			attempts, shards = attempts+got.Attempts, shards+2
		}
	}
	if corrupted.Load() == 0 {
		t.Fatal("no response was corrupted: the test exercised nothing")
	}
	if attempts < shards+corrupted.Load() {
		t.Errorf("%d attempts for %d shard requests and %d corrupted answers: some corrupted answer was not retried",
			attempts, shards, corrupted.Load())
	}
}

// TestRemoteDeadShardPolicies: with R=1 and shard 1's only replica down,
// FailFast returns a typed overload error while Partial serves shard 0's
// half with Completeness 0.5.
func TestRemoteDeadShardPolicies(t *testing.T) {
	defer testutil.LeakCheck(t)()
	f := lubmFixture(t)
	_, live := startNode(t, f)
	defer live.Close()
	dead := deadEndpoint(t)
	src := `SELECT ?x ?y WHERE { ?x ` + lubm.PredTakesCourse + ` ?y }`

	mk := func(p Policy) *Remote {
		r, err := NewRemote(RemoteOptions{
			Replicas:        [][]string{{live.URL}, {dead}},
			ThreadsPerShard: 1,
			MaxAttempts:     2,
			Backoff:         resilience.Backoff{Base: time.Millisecond, Max: 2 * time.Millisecond},
			Policy:          p,
		})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}

	ff := mk(FailFast)
	defer ff.Close()
	if _, err := ff.Execute(context.Background(), src, false); !errors.Is(err, governance.ErrOverloaded) {
		t.Fatalf("FailFast with a dead shard returned %v, want ErrOverloaded", err)
	}

	pp := mk(Partial)
	defer pp.Close()
	res, err := pp.Execute(context.Background(), src, false)
	if err != nil {
		t.Fatalf("Partial: %v", err)
	}
	if res.Completeness != 0.5 {
		t.Fatalf("Partial completeness %v, want 0.5", res.Completeness)
	}
	if res.ShardErrors[1] == nil || !errors.Is(res.ShardErrors[1], governance.ErrOverloaded) {
		t.Fatalf("Partial shard error %v, want ErrOverloaded for shard 1", res.ShardErrors[1])
	}
	if res.ShardErrors[0] != nil {
		t.Fatalf("shard 0 should have served: %v", res.ShardErrors[0])
	}
	// The served half matches the oracle's shard-0 range.
	want, err := core.ExecuteShardRange(f.st, f.plan(t, src), core.Options{Threads: 2}, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != want.Count || !reflect.DeepEqual(res.Rows, want.Rows) {
		t.Fatalf("Partial served %d rows, oracle shard 0 has %d", res.Count, want.Count)
	}
}

// TestRemoteBreakerShortCircuits: after the breaker trips on a dead
// replica, the next query is rejected immediately with ErrOverloaded (no
// dial), and the leak check confirms nothing is left running.
func TestRemoteBreakerShortCircuits(t *testing.T) {
	defer testutil.LeakCheck(t)()
	dead := deadEndpoint(t)
	r, err := NewRemote(RemoteOptions{
		Replicas:    [][]string{{dead}},
		MaxAttempts: 2,
		Backoff:     resilience.Backoff{Base: time.Millisecond, Max: 2 * time.Millisecond},
		Breaker:     resilience.BreakerOptions{FailureThreshold: 2, OpenFor: time.Hour},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	src := `SELECT ?x WHERE { ?x <p> ?y }`

	if _, err := r.Execute(context.Background(), src, true); !errors.Is(err, governance.ErrOverloaded) {
		t.Fatalf("dead replica returned %v, want ErrOverloaded", err)
	}
	// Two failed attempts tripped the threshold-2 breaker; now the
	// coordinator must refuse without touching the network.
	_, err = r.Execute(context.Background(), src, true)
	if !errors.Is(err, governance.ErrOverloaded) || !strings.Contains(err.Error(), "breakers open") {
		t.Fatalf("open breaker returned %v, want immediate breakers-open ErrOverloaded", err)
	}
}

// TestRemoteShardTimeout: every replica stalls longer than ShardTimeout;
// the shard must fail with ErrDeadlineExceeded and leave nothing behind.
func TestRemoteShardTimeout(t *testing.T) {
	defer testutil.LeakCheck(t)()
	f := lubmFixture(t)
	_, live := startNode(t, f)
	defer live.Close()
	slow, err := chaos.New(hostport(live), func(int) chaos.Fault {
		return chaos.Fault{Delay: 400 * time.Millisecond}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer slow.Close()

	r, err := NewRemote(RemoteOptions{
		Replicas:     [][]string{{slow.URL()}},
		ShardTimeout: 50 * time.Millisecond,
		MaxAttempts:  2,
		Backoff:      resilience.Backoff{Base: time.Millisecond, Max: 2 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	_, err = r.Execute(context.Background(), `SELECT ?x ?y WHERE { ?x `+lubm.PredTakesCourse+` ?y }`, true)
	if !errors.Is(err, governance.ErrDeadlineExceeded) {
		t.Fatalf("stalled replicas returned %v, want ErrDeadlineExceeded", err)
	}
}

// TestRemoteHedgingWinsOverSlowReplica: the first replica stalls, the
// hedge launched after HedgeAfter reaches the fast replica, and the query
// succeeds quickly with exactly two attempts.
func TestRemoteHedgingWinsOverSlowReplica(t *testing.T) {
	defer testutil.LeakCheck(t)()
	f := lubmFixture(t)
	_, live := startNode(t, f)
	defer live.Close()
	slow, err := chaos.New(hostport(live), func(int) chaos.Fault {
		return chaos.Fault{Delay: 300 * time.Millisecond}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer slow.Close()

	r, err := NewRemote(RemoteOptions{
		Replicas:   [][]string{{slow.URL(), live.URL}},
		HedgeAfter: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	src := `SELECT ?x ?y WHERE { ?x ` + lubm.PredTakesCourse + ` ?y }`
	start := time.Now()
	res, err := r.Execute(context.Background(), src, true)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed >= 300*time.Millisecond {
		t.Errorf("hedged query took %v — the hedge never overtook the stalled replica", elapsed)
	}
	if res.Attempts != 2 {
		t.Errorf("attempts %d, want 2 (primary + hedge)", res.Attempts)
	}
	if want := oracle(t, f, src, 1, true); res.Count != want.Count {
		t.Errorf("count %d, oracle %d", res.Count, want.Count)
	}
}

// TestRemoteBreakerFailover: a dead first replica needs no health probe.
// With MaxAttempts=1 a query that lands on it fails, but each such failure
// counts against its breaker; once the breaker opens, launch skips the
// dead replica and every query succeeds on the live one.
func TestRemoteBreakerFailover(t *testing.T) {
	defer testutil.LeakCheck(t)()
	f := lubmFixture(t)
	_, live := startNode(t, f)
	defer live.Close()
	dead := deadEndpoint(t)

	r, err := NewRemote(RemoteOptions{
		Replicas:    [][]string{{dead, live.URL}},
		MaxAttempts: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	src := `SELECT ?x ?y WHERE { ?x ` + lubm.PredTakesCourse + ` ?y }`
	want := oracle(t, f, src, 1, true)
	breaker := r.endpoint(dead).breaker
	deadline := time.Now().Add(5 * time.Second)
	for served := 0; served < 10; {
		if time.Now().After(deadline) {
			t.Fatalf("breaker failover never kicked in (breaker %v)", breaker.State())
		}
		open := breaker.State() == resilience.Open
		res, err := r.Execute(context.Background(), src, true)
		switch {
		case err == nil:
			if res.Count != want.Count {
				t.Fatalf("count %d, oracle %d", res.Count, want.Count)
			}
			if open {
				served++
			}
		case open:
			t.Fatalf("query failed after the dead replica's breaker opened: %v", err)
		}
	}
}

// TestRemoteCanceledContext: a caller cancel surfaces as ErrCanceled and
// leaves no goroutines behind.
func TestRemoteCanceledContext(t *testing.T) {
	defer testutil.LeakCheck(t)()
	f := lubmFixture(t)
	_, live := startNode(t, f)
	defer live.Close()

	r, err := NewRemote(RemoteOptions{Replicas: [][]string{{live.URL}}})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = r.Execute(ctx, `SELECT ?x ?y WHERE { ?x `+lubm.PredTakesCourse+` ?y }`, true)
	if !errors.Is(err, governance.ErrCanceled) {
		t.Fatalf("canceled context returned %v, want ErrCanceled", err)
	}
}

// benchFixture is a larger store than the test fixture so the benchmark
// query's execution time dominates the loopback HTTP round trip — the
// coordinator's per-query wire cost is fixed, and the overhead criterion
// is that it disappears into noise on realistic work.
func benchFixture(b *testing.B) *fixture {
	b.Helper()
	st := store.LoadTriples(lubm.Triples(48, lubm.Config{}), store.BuildOptions{BuildPosIndex: true})
	return &fixture{st: st, ss: stats.New(st)}
}

var benchQuery = `SELECT ?x ?y ?z WHERE {
	?x ` + lubm.PredMemberOf + ` ?z .
	?z ` + lubm.PredSubOrgOf + ` ?y .
	?x ` + lubm.PredUndergradFrom + ` ?y }`

// BenchmarkRemoteCoordinator measures the 1×1 loopback coordinator against
// BenchmarkDirectExecute below — the coordinator's overhead budget.
func BenchmarkRemoteCoordinator(b *testing.B) {
	f := benchFixture(b)
	n := remote.NewNode(f.st, f.ss, remote.NodeOptions{})
	srv := httptest.NewServer(n.Handler())
	defer srv.Close()
	r, err := NewRemote(RemoteOptions{Replicas: [][]string{{srv.URL}}})
	if err != nil {
		b.Fatal(err)
	}
	defer r.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Execute(context.Background(), benchQuery, true); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDirectExecute is the single-machine baseline for
// BenchmarkRemoteCoordinator: the same query served locally, parse and
// plan included per iteration — the coordinator necessarily re-plans
// each request, so a pre-built plan would understate the baseline.
func BenchmarkDirectExecute(b *testing.B) {
	f := benchFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan := f.plan(b, benchQuery)
		if _, err := core.Execute(f.st, plan, core.Options{Threads: 1, Silent: true}); err != nil {
			b.Fatal(err)
		}
	}
}

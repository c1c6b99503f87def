package cluster

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"parj/internal/core"
	"parj/internal/live"
	"parj/internal/lubm"
	"parj/internal/optimizer"
	"parj/internal/rdf"
	"parj/internal/remote"
	"parj/internal/resilience"
	"parj/internal/resilience/chaos"
	"parj/internal/sparql"
	"parj/internal/stats"
	"parj/internal/store"
	"parj/internal/testutil"
	"parj/internal/wal"
)

// writeNode builds one independent full replica over its own store and
// dictionaries — replicas only stay aligned because they load the same base
// and apply the same sequenced write stream, which is exactly the property
// under test.
func writeNode(t *testing.T, base []rdf.Triple) (*remote.Node, *httptest.Server) {
	t.Helper()
	st := store.LoadTriples(append([]rdf.Triple(nil), base...), store.BuildOptions{BuildPosIndex: true})
	n := remote.NewNode(st, nil, remote.NodeOptions{})
	return n, httptest.NewServer(n.Handler())
}

// rebind serves h on addr, the address a killed replica's listener just
// released, so the replacement answers at the URL the routing table lists.
func rebind(t *testing.T, addr string, h http.Handler) *httptest.Server {
	t.Helper()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("rebind %s: %v", addr, err)
	}
	srv := httptest.NewUnstartedServer(h)
	srv.Listener.Close()
	srv.Listener = ln
	srv.Start()
	return srv
}

// fenced reads an endpoint's stale flag from the routing table.
func fenced(t *testing.T, r *Remote, endpoint string) bool {
	t.Helper()
	st := r.endpoint(endpoint)
	if st == nil {
		t.Fatalf("endpoint %s not in the routing table", endpoint)
	}
	return st.stale.Load()
}

// TestRemoteWriteChaos is the write-path acceptance scenario: a sequenced
// write burst flows through the coordinator while a query stream runs; one
// replica (behind a killable proxy, listed in both shard groups) dies mid-
// burst and is fenced without forking the sequence; a brand-new replica
// warms from a peer snapshot embedding the write-stream position, comes up
// at the dead replica's address, catches up through coordinator log replay
// — which readmits it — and takes the rest of the stream and its share of
// the queries; after ReconcileAll every replica holds exactly the oracle
// triple set. LeakCheck covers the whole churn; coordinator timers run on a
// driven FakeClock.
func TestRemoteWriteChaos(t *testing.T) {
	defer testutil.LeakCheck(t)()
	base := lubm.Triples(2, lubm.Config{})
	f := lubmFixture(t) // identical build: same IDs as every replica's dictionaries
	nodeA, srvA := writeNode(t, base)
	defer srvA.Close()
	_, srvB := writeNode(t, base)
	defer srvB.Close()
	pB, err := chaos.New(hostport(srvB), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer pB.Close()

	clk := resilience.NewFakeClock(time.Unix(0, 0))
	stopClock := driveClock(clk)
	defer stopClock()

	r, err := NewRemote(RemoteOptions{
		Replicas:        [][]string{{srvA.URL, pB.URL()}, {pB.URL(), srvA.URL}},
		ThreadsPerShard: 2,
		MaxAttempts:     4,
		Backoff:         resilience.Backoff{Base: time.Millisecond, Max: 10 * time.Millisecond},
		Seed:            7,
		Clock:           clk,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	// The coordinator-side mirror: a local replica of the write stream used
	// to verify per-replica state and decode distributed rows at the end.
	mst := store.LoadTriples(append([]rdf.Triple(nil), base...), store.BuildOptions{BuildPosIndex: true})
	mirror := live.New(mst, stats.New(mst), store.InferBuildOptions(mst))
	defer mirror.Quiesce()
	oracle := map[rdf.Triple]bool{}

	// All writes come from this one function (the coordinator serializes
	// them; the mirror must observe the same order).
	wi := 0
	write := func(t *testing.T) {
		t.Helper()
		wi++
		ins := []rdf.Triple{{S: fmt.Sprintf("<w-%d>", wi), P: "<wp>", O: fmt.Sprintf("<wo-%d>", wi%7)}}
		var dels []rdf.Triple
		if wi%3 == 0 && wi > 1 {
			// churn: delete an earlier write, and half the time reinsert it
			// in the same batch (deletes apply first).
			victim := rdf.Triple{S: fmt.Sprintf("<w-%d>", wi-1), P: "<wp>", O: fmt.Sprintf("<wo-%d>", (wi-1)%7)}
			dels = append(dels, victim)
			if wi%2 == 0 {
				ins = append(ins, victim)
			}
		}
		seq, err := r.Write(context.Background(), ins, dels)
		if err != nil {
			t.Fatalf("write %d: %v", wi, err)
		}
		if _, err := mirror.Apply(seq, ins, dels); err != nil {
			t.Fatalf("mirror apply %d: %v", seq, err)
		}
		for _, tr := range dels {
			delete(oracle, tr)
		}
		for _, tr := range ins {
			oracle[tr] = true
		}
	}

	// Concurrent query stream under FailFast: every query must return
	// oracle-exact rows no matter what the write path is doing. The queries
	// touch only the immutable LUBM predicates, so their answer is epoch-
	// independent — what's being tested is that the serving path stays
	// exact while a replica is fenced and readmitted under it.
	var (
		stop    atomic.Bool
		wg      sync.WaitGroup
		qmu     sync.Mutex
		served  int
		streamE []error
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; !stop.Load(); i++ {
			q := remoteQueries[i%len(remoteQueries)]
			res, err := r.Execute(context.Background(), q.src, false)
			qmu.Lock()
			if err != nil {
				streamE = append(streamE, fmt.Errorf("%s: %w", q.src, err))
			} else {
				checkAgainstOracle(t, f, q, res.Count, res.Rows)
				served++
			}
			qmu.Unlock()
		}
	}()
	defer func() { stop.Store(true); wg.Wait() }()

	// Phase 1: burst with every replica alive.
	for i := 0; i < 30; i++ {
		write(t)
	}
	if got := r.WriteSeq(); got != 30 {
		t.Fatalf("coordinator write seq = %d, want 30", got)
	}

	// Phase 2: kill the proxied replica mid-burst. The first write to fail
	// against it fences the endpoint in both groups; the sequence keeps
	// advancing on the survivor and never forks.
	pB.Kill()
	for i := 0; i < 30; i++ {
		write(t)
	}
	if !fenced(t, r, pB.URL()) || fenced(t, r, srvA.URL) {
		t.Fatalf("after the kill: dead target fenced=%v, survivor fenced=%v", fenced(t, r, pB.URL()), fenced(t, r, srvA.URL))
	}
	szA := nodeA.Statz()
	if szA.WriteSeq != 60 || szA.PendingWrites == 0 {
		t.Fatalf("survivor at seq %d with %d pending, want 60 with a live delta", szA.WriteSeq, szA.PendingWrites)
	}

	// Phase 3: warm a brand-new replica from the survivor's snapshot — the
	// stream position rides along in the snapshot response header.
	src := remote.NewClient(srvA.URL, 0)
	warmSt, warmSeq, err := src.SnapshotSeq(context.Background())
	src.Close()
	if err != nil {
		t.Fatalf("snapshot warmup: %v", err)
	}
	if warmSeq != 60 {
		t.Fatalf("snapshot stream position = %d, want 60", warmSeq)
	}
	joiner := remote.NewNode(warmSt, nil, remote.NodeOptions{})
	joiner.Live().SeedSeq(warmSeq)
	srvJ := rebind(t, pB.Addr(), joiner.Handler())
	defer srvJ.Close()

	// The stream moves on while the joiner answers at the fenced URL...
	for i := 0; i < 20; i++ {
		write(t)
	}
	if sz := joiner.Statz(); sz.WriteSeq != 60 || sz.Queries != 0 || !fenced(t, r, pB.URL()) {
		t.Fatalf("fenced joiner at seq %d served %d queries (fenced=%v), want seq 60, none, fenced",
			sz.WriteSeq, sz.Queries, fenced(t, r, pB.URL()))
	}
	// ...so readmission is a log replay: Resync brings the joiner from its
	// snapshot position to the coordinator's head and lifts the fence.
	if err := r.Resync(context.Background(), pB.URL()); err != nil {
		t.Fatalf("resync: %v", err)
	}
	if sz := joiner.Statz(); sz.WriteSeq != 80 || fenced(t, r, pB.URL()) {
		t.Fatalf("joiner after resync at seq %d (fenced=%v), want 80, readmitted", sz.WriteSeq, fenced(t, r, pB.URL()))
	}

	// Phase 4: the rest of the burst reaches survivor and joiner alike.
	for i := 0; i < 20; i++ {
		write(t)
	}
	if sz := joiner.Statz(); sz.WriteSeq != 100 {
		t.Fatalf("joiner at seq %d after post-admission burst, want 100", sz.WriteSeq)
	}
	waitForCond(t, func() bool { return joiner.Statz().Queries > 0 })

	// Phase 5: reconcile everywhere and require exact convergence: stream
	// position preserved, no pending deltas, and the effective triple count
	// equal to the oracle's on every replica.
	if err := r.ReconcileAll(context.Background()); err != nil {
		t.Fatalf("reconcile all: %v", err)
	}
	// The mirror replayed the identical stream serially: its reconciled
	// base is the authoritative triple count (len(base) would overcount —
	// the raw LUBM stream contains duplicates the store deduplicates).
	wantTriples := mirror.Reconcile().Base().NumTriples()
	for name, n := range map[string]*remote.Node{"survivor": nodeA, "joiner": joiner} {
		sz := n.Statz()
		if sz.WriteSeq != 100 || sz.PendingWrites != 0 {
			t.Fatalf("%s after reconcile: seq=%d pending=%d", name, sz.WriteSeq, sz.PendingWrites)
		}
		if sz.Triples != wantTriples {
			t.Fatalf("%s holds %d triples after reconcile, oracle %d", name, sz.Triples, wantTriples)
		}
	}

	// Phase 6: oracle equivalence through the full distributed read path —
	// gather dictionary-encoded rows for the written predicate, decode them
	// through the mirror's dictionaries, compare to the oracle set.
	res, err := r.Execute(context.Background(), `SELECT ?s ?o WHERE { ?s <wp> ?o }`, false)
	if err != nil {
		t.Fatal(err)
	}
	got := decodeRows(t, mirror, `SELECT ?s ?o WHERE { ?s <wp> ?o }`, res.Rows)
	var want []string
	for tr := range oracle {
		want = append(want, tr.S+"|"+tr.O)
	}
	sort.Strings(got)
	sort.Strings(want)
	if len(got) != len(want) {
		t.Fatalf("distributed read returned %d written triples, oracle %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("row %d: got %q, oracle %q", i, got[i], want[i])
		}
	}

	stop.Store(true)
	wg.Wait()
	qmu.Lock()
	defer qmu.Unlock()
	if len(streamE) > 0 {
		t.Fatalf("%d queries failed under FailFast during the write churn; first: %v", len(streamE), streamE[0])
	}
	if served == 0 {
		t.Fatal("query stream never completed a query")
	}
}

// decodeRows decodes gathered rows through the mirror replica's current
// dictionaries, returning "s|o" strings.
func decodeRows(t *testing.T, mirror *live.Handle, src string, rows [][]uint32) []string {
	t.Helper()
	v := mirror.View()
	st := v.Store()
	q, err := sparql.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := optimizer.OptimizeExpanded(q, st, v.Stats(), nil)
	if err != nil {
		t.Fatal(err)
	}
	srows := (&core.Result{Plan: plan, Rows: rows}).StringRows(st)
	out := make([]string, len(srows))
	for i, r := range srows {
		out[i] = r[0] + "|" + r[1]
	}
	return out
}

// TestRemoteWriteWALKillRestart: a durable replica killed mid-burst comes
// back from its own write-ahead log. Local replay must restore every batch
// the replica acknowledged before the kill — exactly, no fork, no loss —
// and the coordinator's Resync then ships only the suffix the replica
// missed while it was down, readmitting it at its own URL.
func TestRemoteWriteWALKillRestart(t *testing.T) {
	defer testutil.LeakCheck(t)()
	ctx := context.Background()
	base := lubm.Triples(1, lubm.Config{})
	bo := store.BuildOptions{BuildPosIndex: true}
	_, srvA := writeNode(t, base)
	defer srvA.Close()

	// Replica B journals every applied batch to a crash-injectable
	// filesystem; the seed runs only on its very first boot.
	fs := wal.NewMemFS()
	seed := func() (*store.Store, uint64, error) {
		return store.LoadTriples(append([]rdf.Triple(nil), base...), bo), 0, nil
	}
	h1, err := live.Open(live.Options{Durability: live.Durability{FS: fs}}, seed, bo)
	if err != nil {
		t.Fatal(err)
	}
	nodeB := remote.NewNodeHandle(h1, remote.NodeOptions{})
	srvB := httptest.NewServer(nodeB.Handler())

	r, err := NewRemote(RemoteOptions{Replicas: [][]string{{srvA.URL, srvB.URL}}})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	oracle := map[rdf.Triple]bool{}
	write := func(i int) {
		t.Helper()
		ins := []rdf.Triple{{S: fmt.Sprintf("<w-%d>", i), P: "<wp>", O: fmt.Sprintf("<wo-%d>", i%5)}}
		var dels []rdf.Triple
		if i%4 == 0 {
			victim := rdf.Triple{S: fmt.Sprintf("<w-%d>", i-1), P: "<wp>", O: fmt.Sprintf("<wo-%d>", (i-1)%5)}
			dels = append(dels, victim)
		}
		if _, err := r.Write(ctx, ins, dels); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		for _, tr := range dels {
			delete(oracle, tr)
		}
		for _, tr := range ins {
			oracle[tr] = true
		}
	}

	for i := 1; i <= 25; i++ {
		write(i)
	}
	killSeq := r.WriteSeq()
	if got := h1.Seq(); got != killSeq {
		t.Fatalf("replica B at seq %d before kill, coordinator at %d", got, killSeq)
	}

	// Kill: the listener vanishes and the filesystem drops everything not
	// yet fsynced — the crash a power cut would produce.
	srvB.Close()
	fs.Crash()
	h1.Close() // the error is the crash itself

	// The stream moves on; the first write that fails against B fences it.
	for i := 26; i <= 40; i++ {
		write(i)
	}
	if !fenced(t, r, srvB.URL) {
		t.Fatal("killed replica not fenced")
	}

	// Restart from the crashed filesystem image: recovery is checkpoint +
	// local replay — no peer snapshot, no full reload.
	h2, err := live.Open(live.Options{Durability: live.Durability{FS: fs.Recover()}}, seed, bo)
	if err != nil {
		t.Fatalf("recover replica: %v", err)
	}
	defer h2.Close()
	// Every batch acknowledged before the kill was group-committed, so the
	// local replay must land exactly on the kill position.
	if got := h2.Seq(); got != killSeq {
		t.Fatalf("local replay recovered seq %d, want %d (acked at kill)", got, killSeq)
	}
	node2 := remote.NewNodeHandle(h2, remote.NodeOptions{})
	srv2 := rebind(t, hostport(srvB), node2.Handler())
	defer srv2.Close()

	// Resync ships only the missed suffix (the coordinator reads the
	// replica's recovered position from /statz) and readmits the replica.
	if err := r.Resync(ctx, srvB.URL); err != nil {
		t.Fatalf("resync recovered replica: %v", err)
	}
	if sz := node2.Statz(); sz.WriteSeq != r.WriteSeq() || fenced(t, r, srvB.URL) {
		t.Fatalf("after rejoin: replica at %d, coordinator at %d, fenced=%v", sz.WriteSeq, r.WriteSeq(), fenced(t, r, srvB.URL))
	}
	for i := 41; i <= 50; i++ {
		write(i)
	}
	if err := r.ReconcileAll(ctx); err != nil {
		t.Fatal(err)
	}

	// Oracle equality on the recovered replica: every surviving written
	// triple present, every deleted one absent.
	sz := node2.Statz()
	if sz.WriteSeq != 50 {
		t.Fatalf("recovered replica at seq %d after full burst, want 50", sz.WriteSeq)
	}
	if !sz.WALEnabled || sz.WALDurableSeq < 50 {
		t.Fatalf("statz wal position: enabled=%v durable=%d", sz.WALEnabled, sz.WALDurableSeq)
	}
	st := node2.Store()
	count := 0
	for i := 1; i <= 50; i++ {
		tr := rdf.Triple{S: fmt.Sprintf("<w-%d>", i), P: "<wp>", O: fmt.Sprintf("<wo-%d>", i%5)}
		s, p, o := st.Resources.Lookup(tr.S), st.Predicates.Lookup(tr.P), st.Resources.Lookup(tr.O)
		has := s != 0 && p != 0 && o != 0 && st.HasTriple(s, p, o)
		if oracle[tr] != has {
			t.Fatalf("recovered replica diverged from oracle at %v: present=%v want=%v", tr, has, oracle[tr])
		}
		if has {
			count++
		}
	}
	if count != len(oracle) {
		t.Fatalf("recovered replica holds %d written triples, oracle %d", count, len(oracle))
	}
	servesAgain(t, r, node2, `SELECT ?s ?o WHERE { ?s <wp> ?o }`, int64(len(oracle)))
}

// servesAgain runs src through the coordinator until node has answered a
// query, checking every count against want.
func servesAgain(t *testing.T, r *Remote, node *remote.Node, src string, want int64) {
	t.Helper()
	waitForCond(t, func() bool {
		n, err := r.Count(context.Background(), src)
		if err != nil || n != want {
			t.Fatalf("count %d (%v), want %d", n, err, want)
		}
		return node.Statz().Queries > 0
	})
}

// TestRemoteCoordinatorWALRestart: the coordinator's replay log is a WAL on
// its own filesystem. A restarted (crashed) coordinator resumes the
// sequence where the journal ends, resyncs a replica at seq 0 by replaying
// the journal, and reports ErrLogTruncated only once retention has pruned
// the needed prefix.
func TestRemoteCoordinatorWALRestart(t *testing.T) {
	defer testutil.LeakCheck(t)()
	ctx := context.Background()
	base := lubm.Triples(1, lubm.Config{})
	_, srvA := writeNode(t, base)
	defer srvA.Close()

	fs := wal.NewMemFS()
	r, err := NewRemote(RemoteOptions{
		Replicas: [][]string{{srvA.URL}},
		Write:    WriteOptions{Log: wal.Options{FS: fs}, Retain: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 10; i++ {
		ins := []remote.Triple{{S: fmt.Sprintf("<s%d>", i), P: "<wp>", O: "<o>"}}
		if _, err := r.Write(ctx, ins, nil); err != nil {
			t.Fatal(err)
		}
	}
	// Retain 4 prunes whole segments only: the one default-sized segment
	// still reaches back to batch 1.
	ws := r.WriteLog()
	if ws.LastSeq != 10 || ws.DurableSeq != 10 || ws.FirstSeq != 1 {
		t.Fatalf("write log stats before crash: %+v", ws)
	}
	// The coordinator process dies; only fsynced journal state survives.
	fs.Crash()
	r.Close()

	r2, err := NewRemote(RemoteOptions{
		Replicas: [][]string{{srvA.URL}},
		Write:    WriteOptions{Log: wal.Options{FS: fs.Recover()}, Retain: 4},
	})
	if err != nil {
		t.Fatalf("restart coordinator: %v", err)
	}
	defer r2.Close()
	if got := r2.WriteSeq(); got != 10 {
		t.Fatalf("restarted coordinator at seq %d, want 10", got)
	}

	// A replica at seq 0: the recovered journal reaches back to batch 1, so
	// resync replays it, no snapshot warm needed.
	stale, srvStale := writeNode(t, base)
	defer srvStale.Close()
	if err := r2.Resync(ctx, srvStale.URL); err != nil {
		t.Fatalf("resync from wal: %v", err)
	}
	if sz := stale.Statz(); sz.WriteSeq != 10 {
		t.Fatalf("replica resynced from wal at seq %d, want 10", sz.WriteSeq)
	}

	// The stream continues from the recovered head without forking: the
	// replica that applied 1..10 from the old coordinator accepts 11.
	ins := []remote.Triple{{S: "<s11>", P: "<wp>", O: "<o>"}}
	if seq, err := r2.Write(ctx, ins, nil); err != nil || seq != 11 {
		t.Fatalf("write after restart: seq=%d err=%v", seq, err)
	}

	// Retention: with small segments the journal is pruned down, and the
	// resync of a replica behind it reports typed truncation. r3 starts a
	// fresh stream, so it gets a fresh replica (srvA is at seq 11 and
	// would rightly refuse r3's batches as ErrReplicaAhead).
	_, srvB := writeNode(t, base)
	defer srvB.Close()
	r3, err := NewRemote(RemoteOptions{
		Replicas: [][]string{{srvB.URL}},
		Write:    WriteOptions{Log: wal.Options{FS: wal.NewMemFS(), SegmentBytes: 200}, Retain: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r3.Close()
	for i := 1; i <= 20; i++ {
		ins := []remote.Triple{{S: fmt.Sprintf("<t%d>", i), P: "<wp>", O: "<o>"}}
		if _, err := r3.Write(ctx, ins, nil); err != nil {
			t.Fatal(err)
		}
	}
	if ws := r3.WriteLog(); ws.FirstSeq <= 1 {
		t.Fatalf("retention never pruned: wal starts at %d", ws.FirstSeq)
	}
	_, srvCold := writeNode(t, base)
	defer srvCold.Close()
	if err := r3.Resync(ctx, srvCold.URL); !errors.Is(err, ErrLogTruncated) {
		t.Fatalf("resync past retention returned %v, want ErrLogTruncated", err)
	}
}

// TestRemoteWriteRestartedCoordinator: a coordinator restarted without its
// log starts its stream at seq 1 again, but the fleet has applied 1..3
// already. A replica answers such a batch as an idempotent replay at its own
// position and drops it, so the coordinator must not report the write as
// committed: the write fails with ErrReplicaAhead (the replica is the sole
// one of its group). The verdict is sticky: once the restarted head reaches
// the replica's position, seq 3 would be acknowledged as a "replay" and seq 4
// would apply on top of the old stream, so every later Write and Resync must
// keep failing. A Resync that finds a replica ahead trips the same verdict.
func TestRemoteWriteRestartedCoordinator(t *testing.T) {
	defer testutil.LeakCheck(t)()
	ctx := context.Background()
	base := lubm.Triples(1, lubm.Config{})
	node, srv := writeNode(t, base)
	defer srv.Close()
	opts := RemoteOptions{Replicas: [][]string{{srv.URL}}}

	first, err := NewRemote(opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		if _, err := first.Write(ctx, []remote.Triple{{S: fmt.Sprintf("<old%d>", i), P: "<wp>", O: "<o>"}}, nil); err != nil {
			t.Fatal(err)
		}
	}
	first.Close()

	restarted, err := NewRemote(opts) // volatile: the log died with the process
	if err != nil {
		t.Fatal(err)
	}
	defer restarted.Close()
	for i := 1; i <= 5; i++ {
		tr := remote.Triple{S: fmt.Sprintf("<new%d>", i), P: "<wp>", O: "<o>"}
		seq, err := restarted.Write(ctx, []remote.Triple{tr}, nil)
		st := node.Store()
		s, p, o := st.Resources.Lookup(tr.S), st.Predicates.Lookup(tr.P), st.Resources.Lookup(tr.O)
		applied := s != 0 && p != 0 && o != 0 && st.HasTriple(s, p, o)
		if err == nil {
			t.Fatalf("write %d acknowledged at seq %d with nil error; replica applied it: %v", i, seq, applied)
		}
		if !errors.Is(err, ErrReplicaAhead) {
			t.Fatalf("write %d on a fleet ahead of the coordinator returned %v, want ErrReplicaAhead", i, err)
		}
		if applied {
			t.Fatalf("replica applied batch %d, which it acknowledged at another sequence", i)
		}
		if sz := node.Statz(); sz.WriteSeq != 3 {
			t.Fatalf("replica at seq %d after write %d, want 3", sz.WriteSeq, i)
		}
		if err := restarted.Resync(ctx, srv.URL); !errors.Is(err, ErrReplicaAhead) {
			t.Fatalf("resync after write %d of a replica ahead of the coordinator returned %v, want ErrReplicaAhead", i, err)
		}
	}
	if head := restarted.WriteSeq(); head != 1 {
		t.Fatalf("refused writes advanced the sequencer to %d, want 1 (only the write that found the fork)", head)
	}

	// A fresh coordinator over a fresh replica: Resync of the replica ahead
	// (still at seq 3) finds the fork, so no write reaches seq 3 and makes
	// the old replica look current.
	_, srvFresh := writeNode(t, base)
	defer srvFresh.Close()
	other, err := NewRemote(RemoteOptions{Replicas: [][]string{{srvFresh.URL}}})
	if err != nil {
		t.Fatal(err)
	}
	defer other.Close()
	if err := other.Resync(ctx, srv.URL); !errors.Is(err, ErrReplicaAhead) {
		t.Fatalf("resync of a replica ahead returned %v, want ErrReplicaAhead", err)
	}
	for i := 1; i <= 3; i++ {
		if _, err := other.Write(ctx, []remote.Triple{{S: fmt.Sprintf("<other%d>", i), P: "<wp>", O: "<o>"}}, nil); !errors.Is(err, ErrReplicaAhead) {
			t.Fatalf("write %d after a fork was found returned %v, want ErrReplicaAhead", i, err)
		}
	}
	if err := other.Resync(ctx, srv.URL); !errors.Is(err, ErrReplicaAhead) {
		t.Fatalf("second resync of a replica ahead returned %v, want ErrReplicaAhead", err)
	}
}

// TestRemoteWriteVolatileLogRetention: the volatile replay log is bounded —
// ten Retain spans of batches over small segments move its first sequence
// forward — and still replays: a replica warmed inside the window resyncs
// to the head.
func TestRemoteWriteVolatileLogRetention(t *testing.T) {
	defer testutil.LeakCheck(t)()
	ctx := context.Background()
	base := lubm.Triples(1, lubm.Config{})
	_, srvA := writeNode(t, base)
	defer srvA.Close()
	const retain = 8
	r, err := NewRemote(RemoteOptions{
		Replicas: [][]string{{srvA.URL}},
		Write:    WriteOptions{Log: wal.Options{SegmentBytes: 256}, Retain: retain},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	write := func(i int) {
		t.Helper()
		if _, err := r.Write(ctx, []remote.Triple{{S: fmt.Sprintf("<v%d>", i), P: "<wp>", O: "<o>"}}, nil); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i <= 9*retain; i++ {
		write(i)
	}
	// Warm a replica from the survivor's snapshot inside the window...
	c := remote.NewClient(srvA.URL, 0)
	warmSt, warmSeq, err := c.SnapshotSeq(ctx)
	c.Close()
	if err != nil {
		t.Fatal(err)
	}
	fresh := remote.NewNode(warmSt, nil, remote.NodeOptions{})
	fresh.Live().SeedSeq(warmSeq)
	srvF := httptest.NewServer(fresh.Handler())
	defer srvF.Close()
	// ...and let the stream move on by less than Retain.
	for i := 9*retain + 1; i <= 10*retain; i++ {
		write(i)
	}

	ws := r.WriteLog()
	t.Logf("volatile log after %d batches: %+v", 10*retain, ws)
	if ws.LastSeq != 10*retain || ws.FirstSeq <= 1 || ws.FirstSeq > 10*retain-retain+1 {
		t.Fatalf("volatile log span %d..%d, want head %d, pruned, and at least %d batches replayable",
			ws.FirstSeq, ws.LastSeq, 10*retain, retain)
	}
	if ws.Segments > 10 {
		t.Fatalf("volatile log keeps %d segments for a %d-batch window", ws.Segments, retain)
	}
	if err := r.Resync(ctx, srvF.URL); err != nil {
		t.Fatalf("resync inside the window: %v", err)
	}
	if sz := fresh.Statz(); sz.WriteSeq != 10*retain {
		t.Fatalf("replica after resync at seq %d, want %d", sz.WriteSeq, 10*retain)
	}
	_, srvCold := writeNode(t, base)
	defer srvCold.Close()
	if err := r.Resync(ctx, srvCold.URL); !errors.Is(err, ErrLogTruncated) {
		t.Fatalf("resync of a replica behind the window returned %v, want ErrLogTruncated", err)
	}
}

// TestRemoteWriteOptionsRefuseIgnoredLogFields: WriteOptions.Log fields the
// coordinator would not honour are refused, not silently dropped — Log.Clock
// (RemoteOptions.Clock drives the log) and, without Log.Dir or Log.FS, a
// fsync policy or interval for a log that never fsyncs.
func TestRemoteWriteOptionsRefuseIgnoredLogFields(t *testing.T) {
	defer testutil.LeakCheck(t)()
	for name, lo := range map[string]wal.Options{
		"clock":             {FS: wal.NewMemFS(), Clock: resilience.RealClock{}},
		"volatile sync":     {Sync: wal.SyncInterval},
		"volatile interval": {Interval: time.Second},
	} {
		r, err := NewRemote(RemoteOptions{Replicas: [][]string{{"http://127.0.0.1:1"}}, Write: WriteOptions{Log: lo}})
		if err == nil {
			r.Close()
			t.Errorf("%s: NewRemote accepted WriteOptions.Log %+v", name, lo)
		}
	}
}

// gapReplica builds the sequence-gap scenario: a coordinator restarted on
// its durable log (head 1) over a table of A, which applied batch 1, and a
// fresh replica at seq 0 listed without a resync. Batch 2 applies on A,
// and the fresh replica rejects it with a sequence gap (HTTP 409, not
// retryable), which fences it.
func gapReplica(t *testing.T) (r *Remote, gapped *remote.Node, gappedURL string, stop func()) {
	t.Helper()
	ctx := context.Background()
	base := lubm.Triples(1, lubm.Config{})
	_, srvA := writeNode(t, base)
	node, srv := writeNode(t, base)
	fs := wal.NewMemFS()
	first, err := NewRemote(RemoteOptions{Replicas: [][]string{{srvA.URL}}, Write: WriteOptions{Log: wal.Options{FS: fs}}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := first.Write(ctx, []remote.Triple{{S: "<w1>", P: "<wp>", O: "<o>"}}, nil); err != nil {
		t.Fatal(err)
	}
	first.Close()
	r, err = NewRemote(RemoteOptions{
		Replicas: [][]string{{srvA.URL, srv.URL}},
		Write:    WriteOptions{Log: wal.Options{FS: fs}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Write(ctx, []remote.Triple{{S: "<w2>", P: "<wp>", O: "<o>"}}, nil); err != nil {
		t.Fatalf("write with a current replica left: %v", err)
	}
	if sz := node.Statz(); sz.WriteSeq != 0 || !fenced(t, r, srv.URL) || fenced(t, r, srvA.URL) {
		t.Fatalf("gapped replica at seq %d, fenced=%v; survivor fenced=%v", sz.WriteSeq, fenced(t, r, srv.URL), fenced(t, r, srvA.URL))
	}
	return r, node, srv.URL, func() { r.Close(); srv.Close(); srvA.Close() }
}

// TestRemoteWriteSeqGapEviction: a replica listed without a resync rejects
// the next batch with a sequence gap and is fenced rather than silently
// diverging; a resync readmits it at its own URL and it serves again.
func TestRemoteWriteSeqGapEviction(t *testing.T) {
	defer testutil.LeakCheck(t)()
	r, gapped, url, stop := gapReplica(t)
	defer stop()
	if err := r.Resync(context.Background(), url); err != nil {
		t.Fatal(err)
	}
	if sz := gapped.Statz(); sz.WriteSeq != r.WriteSeq() || fenced(t, r, url) {
		t.Fatalf("resynced replica at seq %d (fenced=%v), coordinator at %d", sz.WriteSeq, fenced(t, r, url), r.WriteSeq())
	}
	servesAgain(t, r, gapped, `SELECT ?s WHERE { ?s <wp> <o> }`, 2)
}

// TestRemoteStaleReplicaReadmittedOnlyByResync pins the readmission window.
// A fenced replica answers no query until Resync, so FailFast queries on
// the written predicate always see the latest batch. Resync lifts the fence
// before the write stream moves again: with a writer racing it, the
// replica is at the coordinator's head after every later write, and it
// serves queries again.
func TestRemoteStaleReplicaReadmittedOnlyByResync(t *testing.T) {
	defer testutil.LeakCheck(t)()
	ctx := context.Background()
	r, gapped, url, stop := gapReplica(t)
	defer stop()
	src := `SELECT ?s WHERE { ?s <wp> <o> }`
	for i := 0; i < 20; i++ {
		if n, err := r.Count(ctx, src); err != nil || n != 2 {
			t.Fatalf("query %d on the written predicate: count %d (%v), want 2", i, n, err)
		}
	}
	if q := gapped.Statz().Queries; q != 0 {
		t.Fatalf("fenced replica answered %d queries", q)
	}

	// A writer keeps the stream moving while the replica is resynced.
	var (
		writes atomic.Int64
		halt   atomic.Bool
		werr   = make(chan error, 1)
	)
	defer halt.Store(true)
	go func() {
		for i := 3; !halt.Load(); i++ {
			if _, err := r.Write(ctx, []remote.Triple{{S: fmt.Sprintf("<w%d>", i), P: "<wp>", O: "<o>"}}, nil); err != nil {
				werr <- err
				return
			}
			writes.Add(1)
		}
		werr <- nil
	}()
	waitForCond(t, func() bool { return writes.Load() >= 3 })
	if err := r.Resync(ctx, url); err != nil {
		t.Fatal(err)
	}
	after := writes.Load()
	waitForCond(t, func() bool { return writes.Load() >= after+5 })
	halt.Store(true)
	if err := <-werr; err != nil {
		t.Fatalf("write beside the resync: %v", err)
	}
	for i := 0; ; i++ {
		if sz := gapped.Statz(); sz.WriteSeq != r.WriteSeq() || fenced(t, r, url) {
			t.Fatalf("readmitted replica at seq %d (fenced=%v), coordinator at %d", sz.WriteSeq, fenced(t, r, url), r.WriteSeq())
		}
		if i == 5 {
			break
		}
		if _, err := r.Write(ctx, []remote.Triple{{S: fmt.Sprintf("<x%d>", i), P: "<wp>", O: "<o>"}}, nil); err != nil {
			t.Fatal(err)
		}
	}
	servesAgain(t, r, gapped, src, int64(r.WriteSeq()))
}

// TestReplicaOrderFencesStaleReplicas: a stale replica is never offered
// while its group has a current one; a group of stale replicas still routes
// to them, and every write reports it until a resync.
func TestReplicaOrderFencesStaleReplicas(t *testing.T) {
	defer testutil.LeakCheck(t)()
	dead := deadEndpoint(t)
	r, err := NewRemote(RemoteOptions{Replicas: [][]string{{"http://a", dead}, {dead}}})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	r.groups[0][0].stale.Store(true) // fenced so no write dials it: it names no real host
	for i := 0; i < 2; i++ {
		if _, err := r.Write(context.Background(), []remote.Triple{{S: "<s>", P: "<p>", O: "<o>"}}, nil); err == nil ||
			!strings.Contains(err.Error(), "resync required") {
			t.Fatalf("write %d with every replica fenced returned %v, want a resync-required error", i, err)
		}
	}
	if !fenced(t, r, dead) {
		t.Fatal("failed write did not fence the dead endpoint")
	}
	for s := range r.groups {
		if order := r.replicaOrder(s); len(order) != len(r.groups[s]) {
			t.Fatalf("group %d, every replica fenced: order %v, want all of them", s, order)
		}
	}
	r.groups[0][0].stale.Store(false)
	if order := r.replicaOrder(0); len(order) != 1 || order[0] != 0 {
		t.Fatalf("order %v offers the fenced replica beside a current one", order)
	}
}

// TestRemoteWriteLogTruncation: a replica that falls behind the bounded
// replay log cannot be resynced incrementally — the coordinator reports
// ErrLogTruncated instead of replaying a hole. One-byte segments hold one
// batch each, so Retain 4 keeps exactly the last four on the volatile log.
func TestRemoteWriteLogTruncation(t *testing.T) {
	defer testutil.LeakCheck(t)()
	base := lubm.Triples(1, lubm.Config{})
	_, srvA := writeNode(t, base)
	defer srvA.Close()
	_, srvStale := writeNode(t, base)
	defer srvStale.Close()

	r, err := NewRemote(RemoteOptions{
		Replicas: [][]string{{srvA.URL}},
		Write:    WriteOptions{Log: wal.Options{SegmentBytes: 1}, Retain: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	for i := 0; i < 10; i++ {
		ins := []remote.Triple{{S: fmt.Sprintf("<s%d>", i), P: "<wp>", O: "<o>"}}
		if _, err := r.Write(context.Background(), ins, nil); err != nil {
			t.Fatal(err)
		}
	}
	// The stale node is at seq 0; only batches 7..10 survive in the log.
	if err := r.Resync(context.Background(), srvStale.URL); !errors.Is(err, ErrLogTruncated) {
		t.Fatalf("resync of a replica behind the log returned %v, want ErrLogTruncated", err)
	}
	// A replica inside the window still resyncs: warm it first.
	c := remote.NewClient(srvA.URL, 0)
	warmSt, warmSeq, err := c.SnapshotSeq(context.Background())
	c.Close()
	if err != nil {
		t.Fatal(err)
	}
	fresh := remote.NewNode(warmSt, nil, remote.NodeOptions{})
	fresh.Live().SeedSeq(warmSeq)
	srvF := httptest.NewServer(fresh.Handler())
	defer srvF.Close()
	if err := r.Resync(context.Background(), srvF.URL); err != nil {
		t.Fatalf("resync of warmed replica: %v", err)
	}
	if sz := fresh.Statz(); sz.WriteSeq != 10 {
		t.Fatalf("warmed replica at seq %d, want 10", sz.WriteSeq)
	}
}

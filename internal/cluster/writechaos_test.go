package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"sort"
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

func wire(ts []rdf.Triple) []remote.Triple {
	out := make([]remote.Triple, len(ts))
	for i, tr := range ts {
		out[i] = remote.Triple{S: tr.S, P: tr.P, O: tr.O}
	}
	return out
}

// TestRemoteWriteChaos is the write-path acceptance scenario: a sequenced
// write burst flows through the coordinator while a query stream runs; one
// replica (behind a killable proxy, listed in both shard groups) dies mid-
// burst and is evicted without forking the sequence; a brand-new replica
// warms from a peer snapshot embedding the write-stream position, catches
// up through coordinator log replay, is admitted, and takes the rest of the
// stream; after ReconcileAll every surviving replica holds exactly the
// oracle triple set. LeakCheck covers the whole churn; coordinator timers
// run on a driven FakeClock.
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
		HealthInterval:  100 * time.Millisecond,
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
		seq, err := r.Write(context.Background(), wire(ins), wire(dels))
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
	// exact while epochs swap under it.
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
	// against it evicts the endpoint from both groups; the sequence keeps
	// advancing on the survivor and never forks.
	pB.Kill()
	for i := 0; i < 30; i++ {
		write(t)
	}
	// The eviction is synchronous with the failed write, so the routing
	// table is clean now; the endpoint registry lets go of the dead
	// endpoint only when the last query pinned to the pre-eviction epoch
	// drains, which is asserted once the query stream has stopped.
	if _, replicas := r.Topology(); len(replicas) != 2 {
		t.Fatalf("routing table lost a shard group: %v", replicas)
	} else {
		for _, ep := range distinctEndpoints(replicas) {
			if ep == pB.URL() {
				t.Fatalf("dead write target still in the routing table: %v", replicas)
			}
		}
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
	srvJ := httptest.NewServer(joiner.Handler())
	defer srvJ.Close()

	// The stream moves on while the joiner sits outside the table...
	for i := 0; i < 20; i++ {
		write(t)
	}
	// ...so admission needs a log replay first: Resync brings the joiner
	// from its snapshot position to the coordinator's head.
	if err := r.Resync(context.Background(), srvJ.URL); err != nil {
		t.Fatalf("resync: %v", err)
	}
	if sz := joiner.Statz(); sz.WriteSeq != 80 {
		t.Fatalf("joiner after resync at seq %d, want 80", sz.WriteSeq)
	}
	if _, err := r.AddReplica(context.Background(), 0, srvJ.URL); err != nil {
		t.Fatal(err)
	}
	if _, err := r.AddReplica(context.Background(), 1, srvJ.URL); err != nil {
		t.Fatal(err)
	}

	// Phase 4: the rest of the burst reaches survivor and joiner alike.
	for i := 0; i < 20; i++ {
		write(t)
	}
	if sz := joiner.Statz(); sz.WriteSeq != 100 {
		t.Fatalf("joiner at seq %d after post-admission burst, want 100", sz.WriteSeq)
	}

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
	// No query is in flight any more: every retired epoch has drained and
	// released its endpoints, the dead one included.
	if n := r.DrainingEpochs(); n != 0 {
		t.Fatalf("%d retired epochs still draining with no query in flight", n)
	}
	for _, ep := range r.Endpoints() {
		if ep == pB.URL() {
			t.Fatal("dead write target still in the endpoint registry after every epoch drained")
		}
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
// missed while it was down.
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
	log1, err := wal.Open(wal.Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	h1, err := live.OpenDurable(log1, seed, bo)
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
		if _, err := r.Write(ctx, wire(ins), wire(dels)); err != nil {
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
	h1.Quiesce()
	log1.Close()

	// The stream moves on; the first write that fails against B evicts it.
	for i := 26; i <= 40; i++ {
		write(i)
	}
	for _, ep := range r.Endpoints() {
		if ep == srvB.URL {
			t.Fatal("killed replica still in the routing table")
		}
	}

	// Restart from the crashed filesystem image: recovery is checkpoint +
	// local replay — no peer snapshot, no full reload.
	log2, err := wal.Open(wal.Options{FS: fs.Recover()})
	if err != nil {
		t.Fatalf("reopen wal after crash: %v", err)
	}
	h2, err := live.OpenDurable(log2, seed, bo)
	if err != nil {
		t.Fatalf("recover replica: %v", err)
	}
	defer func() {
		h2.Quiesce()
		log2.Close()
	}()
	// Every batch acknowledged before the kill was group-committed, so the
	// local replay must land exactly on the kill position.
	if got := h2.Seq(); got != killSeq {
		t.Fatalf("local replay recovered seq %d, want %d (acked at kill)", got, killSeq)
	}
	node2 := remote.NewNodeHandle(h2, remote.NodeOptions{})
	srv2 := httptest.NewServer(node2.Handler())
	defer srv2.Close()

	// Resync ships only the missed suffix (the coordinator reads the
	// replica's recovered position from /statz), then the replica rejoins.
	if err := r.Resync(ctx, srv2.URL); err != nil {
		t.Fatalf("resync recovered replica: %v", err)
	}
	if sz := node2.Statz(); sz.WriteSeq != r.WriteSeq() {
		t.Fatalf("sequence fork after rejoin: replica %d, coordinator %d", sz.WriteSeq, r.WriteSeq())
	}
	if _, err := r.AddReplica(ctx, 0, srv2.URL); err != nil {
		t.Fatal(err)
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
}

// TestRemoteCoordinatorWALRestart: the coordinator's in-memory replay log
// is a cache over its own WAL. A restarted (crashed) coordinator resumes
// the sequence where the journal ends, resyncs a replica that is far
// behind the small in-memory window by replaying from the journal, and
// reports ErrLogTruncated only once retention has pruned the needed
// prefix.
func TestRemoteCoordinatorWALRestart(t *testing.T) {
	defer testutil.LeakCheck(t)()
	ctx := context.Background()
	base := lubm.Triples(1, lubm.Config{})
	_, srvA := writeNode(t, base)
	defer srvA.Close()

	fs := wal.NewMemFS()
	r, err := NewRemote(RemoteOptions{
		Replicas: [][]string{{srvA.URL}},
		Write:    WriteOptions{ReplayLogSize: 4, WALFS: fs},
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
	ws := r.WriteLog()
	if !ws.WALEnabled || ws.Seq != 10 || ws.WALDurable != 10 || ws.CacheLen != 4 {
		t.Fatalf("write log stats before crash: %+v", ws)
	}
	// The coordinator process dies; only fsynced journal state survives.
	fs.Crash()
	r.Close()

	r2, err := NewRemote(RemoteOptions{
		Replicas: [][]string{{srvA.URL}},
		Write:    WriteOptions{ReplayLogSize: 4, WALFS: fs.Recover()},
	})
	if err != nil {
		t.Fatalf("restart coordinator: %v", err)
	}
	defer r2.Close()
	if got := r2.WriteSeq(); got != 10 {
		t.Fatalf("restarted coordinator at seq %d, want 10", got)
	}

	// A replica at seq 0 is far behind the 4-batch cache, but the journal
	// reaches back to batch 1: resync replays from the WAL, no snapshot
	// warm needed.
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

	// Retention: prune the journal down and the cold resync path finally
	// reports typed truncation.
	fs2 := wal.NewMemFS()
	r3, err := NewRemote(RemoteOptions{
		Replicas: [][]string{{srvA.URL}},
		Write: WriteOptions{
			ReplayLogSize:    2,
			WALFS:            fs2,
			WALSegmentBytes:  200,
			WALRetainBatches: 4,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r3.Close()
	// srvA is already at seq 11 from the streams above; r3 starts at 0 and
	// its writes 1..20 are idempotent replays on the replica — harmless
	// for what this block tests (the coordinator's own log retention).
	for i := 1; i <= 20; i++ {
		ins := []remote.Triple{{S: fmt.Sprintf("<t%d>", i), P: "<wp>", O: "<o>"}}
		if _, err := r3.Write(ctx, ins, nil); err != nil {
			t.Fatal(err)
		}
	}
	if ws := r3.WriteLog(); ws.WALFirst <= 1 {
		t.Fatalf("retention never pruned: wal starts at %d", ws.WALFirst)
	}
	_, srvCold := writeNode(t, base)
	defer srvCold.Close()
	if err := r3.Resync(ctx, srvCold.URL); !errors.Is(err, ErrLogTruncated) {
		t.Fatalf("resync past retention returned %v, want ErrLogTruncated", err)
	}
}

// TestRemoteWriteSeqGapEviction: a stale replica admitted without a resync
// rejects the next batch with a sequence gap (HTTP 409, non-retryable) and
// is evicted rather than silently diverging.
func TestRemoteWriteSeqGapEviction(t *testing.T) {
	defer testutil.LeakCheck(t)()
	base := lubm.Triples(1, lubm.Config{})
	_, srvA := writeNode(t, base)
	defer srvA.Close()

	r, err := NewRemote(RemoteOptions{Replicas: [][]string{{srvA.URL}}})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	ins := []remote.Triple{{S: "<s1>", P: "<wp>", O: "<o1>"}}
	if _, err := r.Write(context.Background(), ins, nil); err != nil {
		t.Fatal(err)
	}

	// A fresh replica at seq 0 joins without replaying the stream.
	stale, srvStale := writeNode(t, base)
	defer srvStale.Close()
	if _, err := r.AddReplica(context.Background(), 0, srvStale.URL); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Write(context.Background(), []remote.Triple{{S: "<s2>", P: "<wp>", O: "<o2>"}}, nil); err != nil {
		t.Fatalf("write after stale admission: %v", err)
	}
	for _, ep := range r.Endpoints() {
		if ep == srvStale.URL {
			t.Fatal("gap-rejecting replica still in the routing table")
		}
	}
	if sz := stale.Statz(); sz.WriteSeq != 0 {
		t.Fatalf("stale replica applied a gapped batch: seq %d", sz.WriteSeq)
	}
	// A resync heals it for re-admission.
	if err := r.Resync(context.Background(), srvStale.URL); err != nil {
		t.Fatal(err)
	}
	if sz := stale.Statz(); sz.WriteSeq != r.WriteSeq() {
		t.Fatalf("resynced replica at seq %d, coordinator at %d", sz.WriteSeq, r.WriteSeq())
	}
	if _, err := r.AddReplica(context.Background(), 0, srvStale.URL); err != nil {
		t.Fatal(err)
	}
}

// TestRemoteWriteLogTruncation: a replica that falls behind the bounded
// replay log cannot be resynced incrementally — the coordinator reports
// ErrLogTruncated instead of replaying a hole.
func TestRemoteWriteLogTruncation(t *testing.T) {
	defer testutil.LeakCheck(t)()
	base := lubm.Triples(1, lubm.Config{})
	_, srvA := writeNode(t, base)
	defer srvA.Close()
	_, srvStale := writeNode(t, base)
	defer srvStale.Close()

	r, err := NewRemote(RemoteOptions{
		Replicas: [][]string{{srvA.URL}},
		Write:    WriteOptions{ReplayLogSize: 4},
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

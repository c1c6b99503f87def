package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"parj/internal/core"
	"parj/internal/live"
	"parj/internal/lubm"
	"parj/internal/rdf"
	"parj/internal/remote"
	"parj/internal/store"
)

func testStore(n int) *store.Store {
	var ts []rdf.Triple
	for i := 0; i < n; i++ {
		ts = append(ts,
			rdf.Triple{S: fmt.Sprintf("<l%d>", i), P: "<p>", O: fmt.Sprintf("<r%d>", i)},
			rdf.Triple{S: fmt.Sprintf("<x%d>", i), P: "<q>", O: fmt.Sprintf("<y%d>", i)})
	}
	return store.LoadTriples(ts, store.BuildOptions{BuildPosIndex: true})
}

// testServer mounts the handler the binary would serve for the given
// command line over an n-row store.
func testServer(t *testing.T, n int, args ...string) *httptest.Server {
	t.Helper()
	cfg, err := parseFlags(append([]string{"-data", "unused.nt"}, args...))
	if err != nil {
		t.Fatal(err)
	}
	h, err := live.Open(cfg.live, func() (*store.Store, uint64, error) { return testStore(n), 0, nil }, store.BuildOptions{BuildPosIndex: true})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(remote.NewNodeHandle(h, cfg.node).Handler())
	t.Cleanup(srv.Close)
	return srv
}

func get(t *testing.T, url string) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

func queryURL(base, q, extra string) string {
	return base + "/query?query=" + url.QueryEscape(q) + extra
}

func TestQueryEndpoint(t *testing.T) {
	srv := testServer(t, 10, "-timeout", "5s")

	resp := get(t, queryURL(srv.URL, `SELECT ?a ?b WHERE { ?a <p> ?b }`, ""))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var out remote.QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Count != 10 || len(out.Rows) != 10 || len(out.Vars) != 2 {
		t.Fatalf("got %+v", out)
	}

	// POST body form.
	resp2, err := http.PostForm(srv.URL+"/query", url.Values{"query": {`SELECT ?a WHERE { ?a <p> ?b }`}})
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("POST form status %d", resp2.StatusCode)
	}

	// POST raw body.
	resp3, err := http.Post(srv.URL+"/query", "application/sparql-query",
		strings.NewReader(`SELECT ?a WHERE { ?a <p> ?b }`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp3.Body.Close()
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("POST body status %d", resp3.StatusCode)
	}
}

func TestQueryEndpointErrors(t *testing.T) {
	srv := testServer(t, 200, "-timeout", "5s")

	if resp := get(t, queryURL(srv.URL, `SELECT WHERE garbage`, "")); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("parse error status %d, want 400", resp.StatusCode)
	}
	if resp := get(t, srv.URL+"/query"); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("missing query status %d, want 400", resp.StatusCode)
	}
}

func TestBudgetMapsTo413(t *testing.T) {
	srv := testServer(t, 200, "-max-rows", "100", "-timeout", "0")

	// 200×200 cross product against a 100-row budget.
	resp := get(t, queryURL(srv.URL, `SELECT ?a ?b ?c ?d WHERE { ?a <p> ?b . ?c <q> ?d }`, "&silent=1"))
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("budget status %d, want 413", resp.StatusCode)
	}
	var out remote.ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil || out.Error == "" || out.Kind != remote.KindBudget {
		t.Fatalf("error body %+v (%v)", out, err)
	}
}

func TestDeadlineMapsTo504(t *testing.T) {
	srv := testServer(t, 4000, "-timeout", "10ms")

	resp := get(t, queryURL(srv.URL, `SELECT ?a ?b ?c ?d WHERE { ?a <p> ?b . ?c <q> ?d }`, "&silent=1"))
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("deadline status %d, want 504", resp.StatusCode)
	}
}

// parkFirstProbe makes the first key probe of the next query block until
// the returned release is called: the query holds its admission slot (and
// stays in flight) for exactly as long as the test wants. Only that one
// probe parks — a second query wrongly admitted runs through and is
// reported by its status instead of hanging the test.
func parkFirstProbe(t *testing.T) (entered chan struct{}, release func()) {
	entered = make(chan struct{})
	gate := make(chan struct{})
	var parked atomic.Bool
	restore := core.SetProbeFaultHook(func() {
		if parked.CompareAndSwap(false, true) {
			close(entered)
			<-gate
		}
	})
	t.Cleanup(restore)
	return entered, func() { close(gate) }
}

func TestOverloadMapsTo503(t *testing.T) {
	srv := testServer(t, 10, "-max-concurrent", "1", "-admission-wait", "0")

	// Hold the single admission slot deterministically: the admitted join
	// parks on its first key probe until released, so the probe below can
	// neither arrive before it was admitted nor after it finished.
	entered, release := parkFirstProbe(t)
	held := make(chan struct{})
	go func() {
		defer close(held)
		resp, err := http.Get(queryURL(srv.URL, `SELECT ?a ?c WHERE { ?a <p> ?b . ?b <q> ?c }`, "&silent=1"))
		if err == nil {
			resp.Body.Close()
		}
	}()
	<-entered

	resp := get(t, queryURL(srv.URL, `SELECT ?a WHERE { ?a <p> ?b }`, "&silent=1"))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("status %d with the only slot held, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}
	release()
	<-held
}

func TestHealthz(t *testing.T) {
	srv := testServer(t, 5, "-max-concurrent", "4")

	resp := get(t, srv.URL+"/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out["status"] != "ok" || out["triples"] != float64(10) || out["inflight"] != float64(0) {
		t.Fatalf("healthz body %+v", out)
	}
}

// TestReadyzLifecycle walks the binary's serving lifecycle through run:
// the listener answers before the replica is resident (not-ready, queries
// shed with 503 + Retry-After, liveness 200), readiness flips once the
// warm-up finishes, and a drain waits for the in-flight query before run
// returns. (What /readyz says during the drain is TestNodeReadiness's
// business in internal/remote: the listener is closed by then.)
func TestReadyzLifecycle(t *testing.T) {
	// The peer's /snapshot blocks until released, holding run in its load.
	peerNode := remote.NewNode(testStore(5), nil, remote.NodeOptions{}).Handler()
	warm := make(chan struct{})
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == remote.SnapshotPath {
			<-warm
		}
		peerNode.ServeHTTP(w, r)
	}))
	defer peer.Close()

	cfg, err := parseFlags([]string{"-warm-from", peer.URL, "-wal", t.TempDir(), "-drain", "30s"})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + ln.Addr().String()
	ctx, stop := context.WithCancel(context.Background())
	defer stop()
	done := make(chan error, 1)
	go func() { done <- run(ctx, cfg, ln) }()

	query := queryURL(base, `SELECT ?a ?b WHERE { ?a <p> ?b }`, "")
	if resp := get(t, base+"/readyz"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz while loading = %d, want 503", resp.StatusCode)
	}
	resp := get(t, query)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("query while loading = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 while loading missing Retry-After")
	}
	// Liveness stays 200 throughout: the process is up, just not serving.
	if resp := get(t, base+"/healthz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz while loading = %d, want 200", resp.StatusCode)
	}

	close(warm)
	for deadline := time.Now().Add(30 * time.Second); get(t, base+"/readyz").StatusCode != http.StatusOK; {
		if time.Now().After(deadline) {
			t.Fatal("readyz never flipped to 200 after the warm-up")
		}
		time.Sleep(time.Millisecond)
	}

	// One join in flight when the drain starts: run must wait for it.
	entered, release := parkFirstProbe(t)
	status := make(chan int, 1)
	go func() {
		resp, err := http.Get(queryURL(base, `SELECT ?a ?c WHERE { ?a <p> ?b . ?b <q> ?c }`, ""))
		if err != nil {
			status <- 0
			return
		}
		resp.Body.Close()
		status <- resp.StatusCode
	}()
	<-entered
	stop()
	select {
	case err := <-done:
		t.Fatalf("run returned (%v) with a query still in flight", err)
	case <-time.After(50 * time.Millisecond):
	}
	release()
	if s := <-status; s != http.StatusOK {
		t.Fatalf("query in flight across the drain = %d, want 200", s)
	}
	if err := <-done; err != nil {
		t.Fatalf("run: %v", err)
	}
}

func TestWarmFromPeers(t *testing.T) {
	st := store.LoadTriples(lubm.Triples(1, lubm.Config{}), store.BuildOptions{BuildPosIndex: true})
	peer := remote.NewNode(st, nil, remote.NodeOptions{})
	srv := httptest.NewServer(peer.Handler())
	defer srv.Close()

	// First peer in the list is dead: warmup must skip past it.
	warmed, seq, err := warmFromPeers(context.Background(), []string{"http://127.0.0.1:1", srv.URL}, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if warmed.NumTriples() != st.NumTriples() {
		t.Fatalf("warmed %d triples, peer has %d", warmed.NumTriples(), st.NumTriples())
	}
	if seq != 0 {
		t.Fatalf("peer has applied no writes, warmup reported seq %d", seq)
	}
}

func TestWarmFromPeersTimeout(t *testing.T) {
	if _, _, err := warmFromPeers(context.Background(), []string{"http://127.0.0.1:1"}, 50*time.Millisecond); err == nil {
		t.Fatal("warming from a dead peer must eventually fail")
	}
}

package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"parj"
	"parj/internal/core"
)

func testDB(t *testing.T, n int, opts parj.DBOptions) *parj.Store {
	t.Helper()
	b := parj.NewBuilder(parj.LoadOptions{DB: opts})
	for i := 0; i < n; i++ {
		b.Add(fmt.Sprintf("<l%d>", i), "<p>", fmt.Sprintf("<r%d>", i))
		b.Add(fmt.Sprintf("<x%d>", i), "<q>", fmt.Sprintf("<y%d>", i))
	}
	return b.Build()
}

func TestQueryEndpoint(t *testing.T) {
	db := testDB(t, 10, parj.DBOptions{})
	srv := httptest.NewServer(newHandler(db, parj.QueryOptions{Timeout: 5 * time.Second}))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/query?query=" + url.QueryEscape(`SELECT ?a ?b WHERE { ?a <p> ?b }`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var out queryResponse
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
	db := testDB(t, 200, parj.DBOptions{})
	srv := httptest.NewServer(newHandler(db, parj.QueryOptions{Timeout: 5 * time.Second}))
	defer srv.Close()

	get := func(t *testing.T, q string, extra string) *http.Response {
		t.Helper()
		resp, err := http.Get(srv.URL + "/query?query=" + url.QueryEscape(q) + extra)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}

	if resp := get(t, `SELECT WHERE garbage`, ""); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("parse error status %d, want 400", resp.StatusCode)
	}
	if resp, err := http.Get(srv.URL + "/query"); err != nil {
		t.Fatal(err)
	} else if resp.Body.Close(); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("missing query status %d, want 400", resp.StatusCode)
	}
}

func TestBudgetMapsTo413(t *testing.T) {
	db := testDB(t, 200, parj.DBOptions{})
	srv := httptest.NewServer(newHandler(db, parj.QueryOptions{MaxResultRows: 100}))
	defer srv.Close()

	// 200×200 cross product against a 100-row budget.
	resp, err := http.Get(srv.URL + "/query?silent=1&query=" +
		url.QueryEscape(`SELECT ?a ?b ?c ?d WHERE { ?a <p> ?b . ?c <q> ?d }`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("budget status %d, want 413", resp.StatusCode)
	}
	var out errorResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil || out.Error == "" {
		t.Fatalf("error body %+v (%v)", out, err)
	}
}

func TestDeadlineMapsTo504(t *testing.T) {
	db := testDB(t, 4000, parj.DBOptions{})
	srv := httptest.NewServer(newHandler(db, parj.QueryOptions{Timeout: 10 * time.Millisecond}))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/query?silent=1&query=" +
		url.QueryEscape(`SELECT ?a ?b ?c ?d WHERE { ?a <p> ?b . ?c <q> ?d }`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("deadline status %d, want 504", resp.StatusCode)
	}
}

func TestOverloadMapsTo503(t *testing.T) {
	db := testDB(t, 10, parj.DBOptions{MaxConcurrentQueries: 1})
	srv := httptest.NewServer(newHandler(db, parj.QueryOptions{Timeout: 30 * time.Second}))
	defer srv.Close()

	// Hold the single admission slot deterministically: the admitted join
	// parks on its first key probe until released, so the probe below can
	// neither arrive before it was admitted nor after it finished. Only
	// that one probe parks — a second query wrongly admitted runs through
	// and is reported by its status instead of hanging the test.
	entered, release := make(chan struct{}), make(chan struct{})
	var parked atomic.Bool
	restore := core.SetProbeFaultHook(func() {
		if parked.CompareAndSwap(false, true) {
			close(entered)
			<-release
		}
	})
	defer restore()
	held := make(chan struct{})
	go func() {
		defer close(held)
		resp, err := http.Get(srv.URL + "/query?silent=1&query=" +
			url.QueryEscape(`SELECT ?a ?c WHERE { ?a <p> ?b . ?b <q> ?c }`))
		if err == nil {
			resp.Body.Close()
		}
	}()
	<-entered

	resp, err := http.Get(srv.URL + "/query?silent=1&query=" +
		url.QueryEscape(`SELECT ?a WHERE { ?a <p> ?b }`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("status %d with the only slot held, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}
	close(release)
	<-held
}

func TestHealthz(t *testing.T) {
	db := testDB(t, 5, parj.DBOptions{MaxConcurrentQueries: 4})
	srv := httptest.NewServer(newHandler(db, parj.QueryOptions{}))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
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

// TestReadyzLifecycle walks the serving lifecycle: not-ready while the
// store loads (queries shed with 503 + Retry-After), ready after load,
// not-ready again the moment draining starts.
func TestReadyzLifecycle(t *testing.T) {
	state := &serverState{}
	srv := httptest.NewServer(newStateHandler(state, parj.QueryOptions{}))
	defer srv.Close()

	get := func(path string) *http.Response {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}

	if resp := get("/readyz"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz while loading = %d, want 503", resp.StatusCode)
	}
	resp := get("/query?query=" + url.QueryEscape(`SELECT ?a ?b WHERE { ?a <p> ?b }`))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("query while loading = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 while loading missing Retry-After")
	}
	// Liveness stays 200 throughout: the process is up, just not serving.
	if resp := get("/healthz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz while loading = %d, want 200", resp.StatusCode)
	}

	state.setStore(testDB(t, 5, parj.DBOptions{}))
	if resp := get("/readyz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz after load = %d, want 200", resp.StatusCode)
	}
	if resp := get("/query?query=" + url.QueryEscape(`SELECT ?a ?b WHERE { ?a <p> ?b }`)); resp.StatusCode != http.StatusOK {
		t.Fatalf("query after load = %d, want 200", resp.StatusCode)
	}

	state.startDrain()
	if resp := get("/readyz"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining = %d, want 503", resp.StatusCode)
	}
	if resp := get("/healthz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz while draining = %d, want 200", resp.StatusCode)
	}
}

func TestStatusForTaxonomy(t *testing.T) {
	cases := []struct {
		err  error
		want int
	}{
		{parj.ErrOverloaded, http.StatusServiceUnavailable},
		{parj.ErrDeadlineExceeded, http.StatusGatewayTimeout},
		{parj.ErrCanceled, http.StatusGatewayTimeout},
		{parj.ErrBudgetExceeded, http.StatusRequestEntityTooLarge},
		{&parj.PanicError{Value: "boom"}, http.StatusInternalServerError},
		{fmt.Errorf("parse error"), http.StatusBadRequest},
	}
	for _, c := range cases {
		if got := statusFor(c.err); got != c.want {
			t.Errorf("statusFor(%v) = %d, want %d", c.err, got, c.want)
		}
	}
}

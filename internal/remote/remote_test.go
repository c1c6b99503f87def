package remote

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sync/atomic"
	"testing"
	"time"

	"parj/internal/core"
	"parj/internal/governance"
	"parj/internal/live"
	"parj/internal/lubm"
	"parj/internal/rdf"
	"parj/internal/store"
	"parj/internal/testutil"
)

func testStore() *store.Store {
	return store.LoadTriples([]rdf.Triple{
		{S: "<a>", P: "<p>", O: "<b>"},
		{S: "<b>", P: "<p>", O: "<c>"},
		{S: "<c>", P: "<p>", O: "<a>"},
		{S: "<a>", P: "<q>", O: "<c>"},
	}, store.BuildOptions{})
}

func testNode(t *testing.T, opts NodeOptions) (*Node, *Client, func()) {
	t.Helper()
	return governedNode(t, live.Options{}, opts)
}

// governedNode serves testStore's replica under the governance in gov.
func governedNode(t *testing.T, gov live.Options, opts NodeOptions) (*Node, *Client, func()) {
	t.Helper()
	h, err := live.Open(gov, func() (*store.Store, uint64, error) { return testStore(), 0, nil }, store.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	n := NewNodeHandle(h, opts)
	srv := httptest.NewServer(n.Handler())
	return n, NewClient(srv.URL, 5*time.Second), srv.Close
}

func TestNodeExecRoundTrip(t *testing.T) {
	defer testutil.LeakCheck(t)()
	_, c, stop := testNode(t, NodeOptions{})
	defer stop()
	defer c.Close()

	resp, err := c.Exec(context.Background(), &ExecRequest{
		Query:       `SELECT ?x ?y WHERE { ?x <p> ?y }`,
		TotalShards: 1,
		ShardFrom:   0,
		ShardTo:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Count != 3 || len(resp.Rows) != 3*2 {
		t.Fatalf("count %d values %d, want 3 rows of 2", resp.Count, len(resp.Rows))
	}
	if len(resp.Vars) != 2 {
		t.Fatalf("vars %v, want [x y]", resp.Vars)
	}

	// Silent mode counts without shipping rows.
	resp, err = c.Exec(context.Background(), &ExecRequest{
		Query: `SELECT ?x ?y WHERE { ?x <p> ?y }`, TotalShards: 1, ShardTo: 1, Silent: true,
	})
	if err != nil || resp.Count != 3 || resp.Rows != nil {
		t.Fatalf("silent: count %d rows %v err %v", resp.Count, resp.Rows, err)
	}
}

func TestNodeShardRangeSplit(t *testing.T) {
	defer testutil.LeakCheck(t)()
	_, c, stop := testNode(t, NodeOptions{})
	defer stop()
	defer c.Close()

	// The two halves of a 2-shard split must sum to the full count.
	var total int64
	for s := 0; s < 2; s++ {
		resp, err := c.Exec(context.Background(), &ExecRequest{
			Query: `SELECT ?x ?y WHERE { ?x <p> ?y }`, TotalShards: 2, ShardFrom: s, ShardTo: s + 1, Silent: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		total += resp.Count
	}
	if total != 3 {
		t.Fatalf("shard halves sum to %d, want 3", total)
	}
}

func TestNodeErrorTaxonomy(t *testing.T) {
	defer testutil.LeakCheck(t)()
	_, c, stop := testNode(t, NodeOptions{})
	defer stop()
	defer c.Close()

	cases := []struct {
		name      string
		req       ExecRequest
		kind      string
		retryable bool
	}{
		{"parse", ExecRequest{Query: `SELECT WHERE`, TotalShards: 1, ShardTo: 1}, KindParse, false},
		{"bad-range", ExecRequest{Query: `SELECT ?x WHERE { ?x <p> ?y }`, TotalShards: 0}, KindPlan, false},
		// A shard range of ID rows can serve neither clause: refused, not
		// answered with this range's first rows.
		{"order-by", ExecRequest{Query: `SELECT ?x WHERE { ?x <p> ?y } ORDER BY ?x LIMIT 1`, TotalShards: 1, ShardTo: 1}, KindPlan, false},
		{"offset", ExecRequest{Query: `SELECT ?x WHERE { ?x <p> ?y } OFFSET 1`, TotalShards: 1, ShardTo: 1}, KindPlan, false},
	}
	for _, tc := range cases {
		_, err := c.Exec(context.Background(), &tc.req)
		var ne *NodeError
		if !errors.As(err, &ne) || ne.Kind != tc.kind {
			t.Fatalf("%s: got %v, want kind %s", tc.name, err, tc.kind)
		}
		if Retryable(err) != tc.retryable {
			t.Errorf("%s: Retryable = %v, want %v", tc.name, Retryable(err), tc.retryable)
		}
	}

	// Budget errors carry the governance sentinel across the wire.
	_, err := c.Exec(context.Background(), &ExecRequest{
		Query: `SELECT ?x ?y WHERE { ?x <p> ?y }`, TotalShards: 1, ShardTo: 1, MaxResultRows: 1,
	})
	if !errors.Is(err, governance.ErrBudgetExceeded) {
		t.Fatalf("budget: got %v, want ErrBudgetExceeded through errors.Is", err)
	}
	if Retryable(err) || NodeFault(err) {
		t.Error("budget exhaustion must be neither retryable nor a node fault")
	}
}

func TestNodeReadiness(t *testing.T) {
	defer testutil.LeakCheck(t)()
	n, c, stop := testNode(t, NodeOptions{NotReady: true})
	defer stop()
	defer c.Close()

	req := &ExecRequest{Query: `SELECT ?x WHERE { ?x <p> ?y }`, TotalShards: 1, ShardTo: 1, Silent: true}
	_, err := c.Exec(context.Background(), req)
	if !errors.Is(err, governance.ErrOverloaded) {
		t.Fatalf("not-ready node returned %v, want ErrOverloaded", err)
	}
	if !Retryable(err) {
		t.Error("not-ready must be retryable (another replica may serve)")
	}

	readyStatus := func() int {
		resp, err := http.Get(c.Endpoint() + ReadyPath)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if s := readyStatus(); s != http.StatusServiceUnavailable {
		t.Fatalf("readyz on unloaded node = %d, want 503", s)
	}
	n.SetReady(true)
	if s := readyStatus(); s != http.StatusOK {
		t.Fatalf("readyz after load = %d, want 200", s)
	}
	if _, err := c.Exec(context.Background(), req); err != nil {
		t.Fatalf("exec after ready: %v", err)
	}
	n.StartDrain()
	if s := readyStatus(); s != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining = %d, want 503", s)
	}
	// Liveness stays OK during drain: the process is healthy, just not
	// accepting new work.
	if err := c.Health(context.Background()); err != nil {
		t.Fatalf("healthz while draining: %v", err)
	}
}

func TestClientMalformedResponse(t *testing.T) {
	defer testutil.LeakCheck(t)()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"count": "not-a-number"`))
	}))
	defer srv.Close()
	c := NewClient(srv.URL, time.Second)
	defer c.Close()
	_, err := c.Exec(context.Background(), &ExecRequest{Query: "x", TotalShards: 1, ShardTo: 1})
	var te *TransportError
	if !errors.As(err, &te) {
		t.Fatalf("malformed body returned %v, want TransportError", err)
	}
	if !Retryable(err) || !NodeFault(err) {
		t.Error("malformed response must be retryable and count as a node fault")
	}
}

// flipFrameBit is a transport that delivers every /exec response with one
// bit of its row frame flipped. Envelope and base64 stay well-formed: this
// is corruption only the frame's own checksum can see.
type flipFrameBit struct {
	rt  http.RoundTripper
	bit int // counted from the frame's first byte
}

func (f *flipFrameBit) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := f.rt.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	var out ExecResponse
	if json.Unmarshal(raw, &out) == nil && f.bit/8 < len(out.Frame) {
		out.Frame[f.bit/8] ^= 1 << (f.bit % 8)
		raw, _ = json.Marshal(out)
	}
	resp.Body, resp.ContentLength = io.NopCloser(bytes.NewReader(raw)), int64(len(raw))
	return resp, nil
}

// TestClientCorruptFrame: whichever bit of the row frame flips in flight,
// Exec reports a TransportError — retryable on a replica and a fault for the
// breaker — and never rows. With JSON rows a flipped digit was a wrong ID.
func TestClientCorruptFrame(t *testing.T) {
	defer testutil.LeakCheck(t)()
	_, c, stop := testNode(t, NodeOptions{})
	defer stop()
	defer c.Close()
	req := &ExecRequest{Query: `SELECT ?x ?y WHERE { ?x <p> ?y }`, TotalShards: 1, ShardTo: 1}
	clean, err := c.Exec(context.Background(), req)
	if err != nil || clean.Count != 3 || len(clean.Rows) != 3*2 {
		t.Fatalf("clean run: %d values, err %v", len(clean.Rows), err)
	}
	flip := &flipFrameBit{rt: c.hc.Transport}
	c.hc.Transport = flip
	defer func() { c.hc.Transport = flip.rt }()
	bits := 8 * len(encodeFrame(core.AppendRows(nil, clean.Rows, 2, 3), 2))
	for flip.bit = 0; flip.bit < bits; flip.bit++ {
		resp, err := c.Exec(context.Background(), req)
		var te *TransportError
		if !errors.As(err, &te) || !errors.Is(err, ErrCorruptFrame) {
			t.Fatalf("bit %d flipped: response %+v, err %v; want a TransportError wrapping ErrCorruptFrame", flip.bit, resp, err)
		}
		if !Retryable(err) || !NodeFault(err) {
			t.Fatalf("bit %d flipped: %v must be retryable and count as a node fault", flip.bit, err)
		}
	}
	// A silent request asks for no frame, so there is nothing to corrupt.
	silent := *req
	silent.Silent = true
	flip.bit = 0
	if resp, err := c.Exec(context.Background(), &silent); err != nil || resp.Count != 3 || resp.Rows != nil {
		t.Fatalf("silent through the flipping transport: %+v, err %v", resp, err)
	}
}

// TestExecBodyShape pins what is on the wire: rows only ever as the frame
// field, and no frame at all on a silent response.
func TestExecBodyShape(t *testing.T) {
	defer testutil.LeakCheck(t)()
	n := NewNode(testStore(), nil, NodeOptions{})
	srv := httptest.NewServer(n.Handler())
	defer srv.Close()
	for _, silent := range []bool{false, true} {
		body, _ := json.Marshal(ExecRequest{Query: `SELECT ?x ?y WHERE { ?x <p> ?y }`, TotalShards: 1, ShardTo: 1, Silent: silent})
		resp, err := http.Post(srv.URL+ExecPath, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		var fields map[string]json.RawMessage
		if err := json.Unmarshal(raw, &fields); err != nil {
			t.Fatalf("silent=%v: body is not a JSON object: %v", silent, err)
		}
		if _, ok := fields["rows"]; ok {
			t.Errorf("silent=%v: body still carries JSON rows: %s", silent, raw)
		}
		if _, ok := fields["frame"]; ok == silent {
			t.Errorf("silent=%v: frame present = %v: %s", silent, ok, raw)
		}
	}
	http.DefaultClient.CloseIdleConnections()
}

// TestExecBodyHasLength: a response too large for the server's buffer
// still declares its Content-Length, and the client reads a body of
// declared length into one buffer of that size, with no growth.
func TestExecBodyHasLength(t *testing.T) {
	defer testutil.LeakCheck(t)()
	st := store.LoadTriples(lubm.Triples(1, lubm.Config{}), store.BuildOptions{})
	srv := httptest.NewServer(NewNode(st, nil, NodeOptions{}).Handler())
	defer srv.Close()
	body, _ := json.Marshal(ExecRequest{Query: `SELECT ?x ?y ?z WHERE { ?x ?y ?z }`, TotalShards: 1, ShardTo: 1})
	resp, err := http.Post(srv.URL+ExecPath, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, err %v", resp.StatusCode, err)
	}
	if len(raw) < 16<<10 || resp.ContentLength != int64(len(raw)) {
		t.Fatalf("%d-byte body declared Content-Length %d; want a large body declaring its length", len(raw), resp.ContentLength)
	}
	http.DefaultClient.CloseIdleConnections()

	var got []byte
	r := bytes.NewReader(raw)
	if allocs := testing.AllocsPerRun(10, func() {
		r.Reset(raw)
		got, err = readBody(r, int64(len(raw)))
	}); err != nil || allocs != 1 || !bytes.Equal(got, raw) || cap(got) != len(raw)+1 {
		t.Errorf("readBody of a declared %d bytes: %d allocations, %d bytes in a buffer of %d, err %v; want one buffer of %d",
			len(raw), int(allocs), len(got), cap(got), err, len(raw)+1)
	}
	// Undeclared, and declared past what arrives: read to the end either way.
	for _, n := range []int64{-1, int64(len(raw)) * 2} {
		if got, err := readBody(bytes.NewReader(raw), n); err != nil || !bytes.Equal(got, raw) {
			t.Errorf("readBody declared %d: %d bytes, err %v; want the %d sent", n, len(got), err, len(raw))
		}
	}
}

// TestClientBoundsResponseRead: a request that carried a row or memory
// budget caps what the client will read from the node; a body past the cap
// is the query's budget error, not retried and not held against the node's
// breaker, and the client stops reading instead of buffering it.
func TestClientBoundsResponseRead(t *testing.T) {
	defer testutil.LeakCheck(t)()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		w.Write([]byte(`{"count":1,"vars":["x"],"frame":"`))
		chunk := bytes.Repeat([]byte("A"), 64<<10)
		for i := 0; i < 256; i++ { // 16 MB of well-formed base64
			if _, err := w.Write(chunk); err != nil {
				return
			}
		}
		w.Write([]byte(`"}`))
	}))
	defer srv.Close()
	c := NewClient(srv.URL, 5*time.Second)
	defer c.Close()

	for _, req := range []*ExecRequest{
		{Query: `SELECT ?x WHERE { ?x <p> ?y }`, TotalShards: 1, ShardTo: 1, MaxResultRows: 10},
		{Query: `SELECT ?x WHERE { ?x <p> ?y }`, TotalShards: 1, ShardTo: 1, MemoryBudget: 1 << 10},
	} {
		_, err := c.Exec(context.Background(), req)
		if !errors.Is(err, governance.ErrBudgetExceeded) {
			t.Fatalf("oversized body under budgets %d/%d returned %v, want ErrBudgetExceeded", req.MaxResultRows, req.MemoryBudget, err)
		}
		if Retryable(err) || NodeFault(err) {
			t.Errorf("%v must be neither retryable nor a node fault", err)
		}
	}
	// No budget, no cap: the same body is read to the end, and then fails
	// its frame check like any other garbage.
	_, err := c.Exec(context.Background(), &ExecRequest{Query: `SELECT ?x WHERE { ?x <p> ?y }`, TotalShards: 1, ShardTo: 1})
	if !errors.Is(err, ErrCorruptFrame) {
		t.Fatalf("unbudgeted request: %v, want the whole body read and its frame rejected", err)
	}

	for _, c := range []struct {
		req  ExecRequest
		want int64
	}{
		{ExecRequest{Query: `SELECT ?x ?y WHERE { ?x <p> ?y }`}, noLimit},
		{ExecRequest{Query: `SELECT ?x ?y WHERE { ?x <p> ?y }`, MaxResultRows: 100}, envelopeSlack + 7*100*4},
		{ExecRequest{Query: `SELECT * WHERE { ?x <p> $y }`, MaxResultRows: 100}, envelopeSlack + 7*100*2},
		{ExecRequest{Query: `SELECT ?x ?y WHERE { ?x <p> ?y }`, MemoryBudget: 4000}, envelopeSlack + 7*1000},
		{ExecRequest{Query: `SELECT ?x ?y WHERE { ?x <p> ?y }`, MemoryBudget: 4000, MaxResultRows: math.MaxInt64}, envelopeSlack + 7*1000},
		{ExecRequest{Query: `SELECT ?x ?y WHERE { ?x <p> ?y }`, MemoryBudget: math.MaxInt64, MaxResultRows: math.MaxInt64}, noLimit},
	} {
		if got := maxResponseBytes(&c.req); got != c.want {
			t.Errorf("maxResponseBytes(%+v) = %d, want %d", c.req, got, c.want)
		}
	}
}

func TestClientConnectionRefused(t *testing.T) {
	defer testutil.LeakCheck(t)()
	c := NewClient("http://127.0.0.1:1", time.Second)
	defer c.Close()
	_, err := c.Exec(context.Background(), &ExecRequest{Query: "x", TotalShards: 1, ShardTo: 1})
	var te *TransportError
	if !errors.As(err, &te) || !Retryable(err) || !NodeFault(err) {
		t.Fatalf("refused dial returned %v; want retryable TransportError node fault", err)
	}
}

// TestNodeStatz: the cumulative counters move with traffic — admitted
// queries, shed queries, failures, and summed scheduler activity.
func TestNodeStatz(t *testing.T) {
	defer testutil.LeakCheck(t)()
	_, c, stop := testNode(t, NodeOptions{})
	defer stop()
	defer c.Close()

	req := &ExecRequest{Query: `SELECT ?x ?y WHERE { ?x <p> ?y }`, TotalShards: 1, ShardTo: 1}
	resp, err := c.Exec(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Sched.Workers) == 0 || resp.Sched.TotalRows() != 3 {
		t.Fatalf("ExecResponse.Sched = %+v, want worker stats with 3 produced rows", resp.Sched)
	}
	if _, err := c.Exec(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	// One failing query (unparsable) counts as admitted + failed.
	if _, err := c.Exec(context.Background(), &ExecRequest{Query: `SELECT WHERE`, TotalShards: 1, ShardTo: 1}); err == nil {
		t.Fatal("parse failure expected")
	}

	sz, err := c.Statz(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if sz.Queries != 3 || sz.Failures != 1 || sz.Rejections != 0 {
		t.Fatalf("statz queries/failures/rejections = %d/%d/%d, want 3/1/0", sz.Queries, sz.Failures, sz.Rejections)
	}
	if sz.Sched.Rows != 6 || sz.Sched.Morsels < 2 {
		t.Fatalf("statz sched totals = %+v, want 6 rows over >=2 morsels", sz.Sched)
	}
	if !sz.Ready || sz.Triples != 4 || sz.InFlight != 0 {
		t.Fatalf("statz ready/triples/inflight = %v/%d/%d", sz.Ready, sz.Triples, sz.InFlight)
	}
}

// TestSnapshotWarmup: a fresh replica warms from a peer's snapshot stream
// and then answers queries identically.
func TestSnapshotWarmup(t *testing.T) {
	defer testutil.LeakCheck(t)()
	_, c, stop := testNode(t, NodeOptions{})
	defer stop()
	defer c.Close()

	st, err := c.Snapshot(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.NumTriples() != 4 {
		t.Fatalf("warmed replica has %d triples, want 4", st.NumTriples())
	}
	warmed := NewNode(st, nil, NodeOptions{})
	srv := httptest.NewServer(warmed.Handler())
	defer srv.Close()
	wc := NewClient(srv.URL, time.Second)
	defer wc.Close()
	resp, err := wc.Exec(context.Background(), &ExecRequest{
		Query: `SELECT ?x ?y WHERE { ?x <p> ?y }`, TotalShards: 1, ShardTo: 1, Silent: true,
	})
	if err != nil || resp.Count != 3 {
		t.Fatalf("warmed replica count %v err %v, want 3", resp, err)
	}
}

// TestSnapshotCutMidStream: a snapshot stream severed before the trailing
// CRC must fail the load with ErrCorruptSnapshot, never hand back a store.
func TestSnapshotCutMidStream(t *testing.T) {
	defer testutil.LeakCheck(t)()
	n, c, stop := testNode(t, NodeOptions{})
	defer stop()
	defer c.Close()

	// Measure the full snapshot, then serve a truncated prefix of it.
	var whole bytes.Buffer
	if err := n.Store().Save(&whole); err != nil {
		t.Fatal(err)
	}
	cut := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write(whole.Bytes()[:whole.Len()-6]) // drop the CRC and then some
	}))
	defer cut.Close()
	cc := NewClient(cut.URL, time.Second)
	defer cc.Close()
	if _, err := cc.Snapshot(context.Background()); !errors.Is(err, store.ErrCorruptSnapshot) {
		t.Fatalf("cut stream returned %v, want ErrCorruptSnapshot", err)
	}
}

// TestClientReady distinguishes "warming" (ErrNotReady) from transport
// failure, on the one client call a warming node refuses: its snapshot.
func TestClientReady(t *testing.T) {
	defer testutil.LeakCheck(t)()
	n, c, stop := testNode(t, NodeOptions{NotReady: true})
	defer stop()
	defer c.Close()

	if _, err := c.Snapshot(context.Background()); !errors.Is(err, ErrNotReady) {
		t.Fatalf("snapshot from warming node: %v, want ErrNotReady", err)
	}
	n.SetReady(true)
	if _, err := c.Snapshot(context.Background()); err != nil {
		t.Fatalf("snapshot from ready node: %v", err)
	}
	dead := NewClient("http://127.0.0.1:1", time.Second)
	defer dead.Close()
	var te *TransportError
	if _, err := dead.Snapshot(context.Background()); !errors.As(err, &te) {
		t.Fatalf("dead node: %v, want TransportError", err)
	}
}

// TestStatusKindTaxonomy pins the one mapping from the typed error taxonomy
// onto (HTTP status, wire kind) that /query and /exec both answer with.
func TestStatusKindTaxonomy(t *testing.T) {
	cases := []struct {
		err    error
		status int
		kind   string
	}{
		{governance.ErrOverloaded, http.StatusServiceUnavailable, KindOverload},
		{&governance.OverloadError{RetryAfter: time.Second}, http.StatusServiceUnavailable, KindOverload},
		{governance.ErrDeadlineExceeded, http.StatusGatewayTimeout, KindDeadline},
		{governance.ErrCanceled, http.StatusGatewayTimeout, KindCanceled},
		{governance.ErrBudgetExceeded, http.StatusRequestEntityTooLarge, KindBudget},
		{&governance.PanicError{Value: "boom"}, http.StatusInternalServerError, KindPanic},
		{&live.ParseError{Err: errors.New("parse error")}, http.StatusBadRequest, KindParse},
		{&live.PlanError{Err: errors.New("no such plan")}, http.StatusBadRequest, KindPlan},
		{errors.New("anything else"), http.StatusInternalServerError, KindInternal},
	}
	for _, c := range cases {
		if status, kind := statusKind(c.err); status != c.status || kind != c.kind {
			t.Errorf("statusKind(%v) = %d %s, want %d %s", c.err, status, kind, c.status, c.kind)
		}
	}
}

// TestQueryAndExecShareGovernance: /query and /exec are two doors into one
// node, so they draw from one admission controller (a slot held through
// either path sheds the other) and one shared memory pool.
func TestQueryAndExecShareGovernance(t *testing.T) {
	defer testutil.LeakCheck(t)()
	_, c, stop := governedNode(t, live.Options{MaxConcurrentQueries: 1, SharedMemoryBudget: 1}, NodeOptions{})
	defer stop()
	defer c.Close()

	const join = `SELECT ?x ?z WHERE { ?x <p> ?y . ?y <p> ?z }`
	viaQuery := func(src string, silent bool) error {
		u := c.Endpoint() + QueryPath + "?query=" + url.QueryEscape(src)
		if silent {
			u += "&silent=1"
		}
		resp, err := http.Get(u)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			return nil
		}
		var er ErrorResponse
		if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
			return err
		}
		return &NodeError{Kind: er.Kind, Msg: er.Error}
	}
	viaExec := func(src string, silent bool) error {
		_, err := c.Exec(context.Background(), &ExecRequest{Query: src, TotalShards: 1, ShardTo: 1, Silent: silent})
		return err
	}
	paths := map[string]func(string, bool) error{QueryPath: viaQuery, ExecPath: viaExec}

	for holder, hold := range paths {
		// The admitted join parks on its first key probe, holding the only
		// slot for exactly as long as the other path is probed.
		entered, release := make(chan struct{}), make(chan struct{})
		var parked atomic.Bool
		restore := core.SetProbeFaultHook(func() {
			if parked.CompareAndSwap(false, true) {
				close(entered)
				<-release
			}
		})
		held := make(chan error, 1)
		go func() { held <- hold(join, true) }()
		<-entered
		for prober, probe := range paths {
			if err := probe(join, true); !errors.Is(err, governance.ErrOverloaded) {
				t.Errorf("%s while %s holds the only slot = %v, want ErrOverloaded", prober, holder, err)
			}
		}
		close(release)
		if err := <-held; err != nil {
			t.Errorf("%s holding the slot: %v", holder, err)
		}
		restore()
	}

	// One byte of shared budget: counting charges nothing, returning rows
	// overdraws the pool through either path, and nothing stays reserved.
	for name, run := range paths {
		if err := run(join, true); err != nil {
			t.Errorf("%s silent under a 1-byte pool: %v", name, err)
		}
		if err := run(join, false); !errors.Is(err, governance.ErrBudgetExceeded) {
			t.Errorf("%s with rows under a 1-byte pool = %v, want ErrBudgetExceeded", name, err)
		}
	}
	sz, err := c.Statz(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if sz.PoolCapacity != 1 || sz.PoolUsed != 0 || sz.InFlight != 0 || sz.Sheds != 4 {
		t.Errorf("statz pool %d/%d in-flight %d sheds %d, want 0/1, 0 and the 4 probes", sz.PoolUsed, sz.PoolCapacity, sz.InFlight, sz.Sheds)
	}
}

// TestNodeRefusesExpiredOnArrival: while the only slot is taken and the
// admission queue-delay estimate exceeds a request's deadline, the node
// refuses the request with 504 KindDeadline before it takes a slot — /exec
// under a propagated client budget and /query under the node's own timeout
// alike — and /statz counts both under expired.
func TestNodeRefusesExpiredOnArrival(t *testing.T) {
	defer testutil.LeakCheck(t)()
	_, c, stop := governedNode(t, live.Options{
		MaxConcurrentQueries: 1,
		AdmissionWait:        10 * time.Second,
		AdmissionTarget:      10 * time.Second, // never shed early
	}, NodeOptions{Query: QueryDefaults{Timeout: time.Millisecond}})
	defer stop()
	defer c.Close()

	const join = `SELECT ?x ?z WHERE { ?x <p> ?y . ?y <p> ?z }`
	execJoin := func() error {
		_, err := c.Exec(context.Background(), &ExecRequest{Query: join, TotalShards: 1, ShardTo: 1, Silent: true})
		return err
	}
	// hold admits an /exec that parks on its first key probe, holding the
	// only slot until unpark.
	hold := func() (unpark func(), done chan error) {
		entered, gate := make(chan struct{}), make(chan struct{})
		var parked atomic.Bool
		t.Cleanup(core.SetProbeFaultHook(func() {
			if parked.CompareAndSwap(false, true) {
				close(entered)
				<-gate
			}
		}))
		done = make(chan error, 1)
		go func() { done <- execJoin() }()
		<-entered
		return func() { close(gate) }, done
	}
	statz := func() *StatzResponse {
		sz, err := c.Statz(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return sz
	}

	// Latch the estimate: a request queued 300 ms behind the parked one is
	// admitted with that sojourn.
	unpark, done := hold()
	queued := make(chan error, 1)
	go func() { queued <- execJoin() }()
	time.Sleep(300 * time.Millisecond)
	unpark()
	if err, qerr := <-done, <-queued; err != nil || qerr != nil {
		t.Fatalf("latching the estimate: held %v, queued %v", err, qerr)
	}
	unpark, done = hold()
	defer func() {
		unpark()
		if err := <-done; err != nil {
			t.Errorf("slot holder: %v", err)
		}
	}()
	before := statz()
	if before.QueueDelayMS <= 50 {
		t.Fatalf("queue-delay estimate %.1f ms, want above 50 ms", before.QueueDelayMS)
	}

	body, _ := json.Marshal(ExecRequest{Query: join, TotalShards: 1, ShardTo: 1, Silent: true, DeadlineBudgetMS: 1})
	execResp, err := http.Post(c.Endpoint()+ExecPath, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	queryResp, err := http.Get(c.Endpoint() + QueryPath + "?silent=1&query=" + url.QueryEscape(join))
	if err != nil {
		t.Fatal(err)
	}
	for path, resp := range map[string]*http.Response{ExecPath: execResp, QueryPath: queryResp} {
		var er ErrorResponse
		err := json.NewDecoder(resp.Body).Decode(&er)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusGatewayTimeout || er.Kind != KindDeadline {
			t.Errorf("%s with a deadline below the estimate = %d %+v (%v), want 504 %s", path, resp.StatusCode, er, err, KindDeadline)
		}
	}

	after := statz()
	if after.Expired != before.Expired+2 || after.Rejections != after.Sheds+after.Expired || after.Sheds != before.Sheds {
		t.Errorf("statz expired %d -> %d, sheds %d -> %d, rejections %d; want expired +2, no sheds, rejections = sheds + expired",
			before.Expired, after.Expired, before.Sheds, after.Sheds, after.Rejections)
	}
	if after.Queries != before.Queries || after.InFlight != 1 {
		t.Errorf("statz queries %d -> %d, in flight %d: a refused request must never run", before.Queries, after.Queries, after.InFlight)
	}
	http.DefaultClient.CloseIdleConnections()
}

// TestNodeWriteSeq: one /write handler serves the unsequenced client (seq
// omitted = next) and the coordinator's sequenced stream (replay is a
// no-op, a gap is a typed 409).
func TestNodeWriteSeq(t *testing.T) {
	defer testutil.LeakCheck(t)()
	n, c, stop := testNode(t, NodeOptions{})
	defer stop()
	defer c.Close()
	ctx := context.Background()
	ins := func(s string) []Triple { return []Triple{{S: s, P: "<p>", O: "<a>"}} }

	for i, step := range []struct{ seq, applied uint64 }{
		{0, 1}, // omitted = next
		{2, 2}, // the coordinator's explicit next
		{0, 3},
		{2, 3}, // replay: applies nothing, the stream stays at 3
	} {
		resp, err := c.Write(ctx, &WriteRequest{Seq: step.seq, Inserts: ins(fmt.Sprintf("<w%d>", i))})
		if err != nil || resp.Seq != step.applied {
			t.Fatalf("write %d with seq %d = %+v, %v; want applied seq %d", i, step.seq, resp, err, step.applied)
		}
	}
	var ne *NodeError
	if _, err := c.Write(ctx, &WriteRequest{Seq: 9, Inserts: ins("<gap>")}); !errors.As(err, &ne) || ne.Kind != KindSeqGap {
		t.Fatalf("write past the stream = %v, want kind %s", err, KindSeqGap)
	}
	if got := n.Live().Seq(); got != 3 {
		t.Fatalf("stream position %d, want 3", got)
	}
	resp, err := c.Exec(ctx, &ExecRequest{Query: `SELECT ?x WHERE { ?x <p> <a> }`, TotalShards: 1, ShardTo: 1, Silent: true})
	if err != nil || resp.Count != 4 { // <c> plus <w0>, <w1>, <w2>
		t.Fatalf("rows after the writes = %+v, %v; want 4", resp, err)
	}
}

package remote

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"parj/internal/core"
	"parj/internal/governance"
	"parj/internal/live"
	"parj/internal/stats"
	"parj/internal/store"
)

// maxRequestBytes caps the /exec request body; a shard request is a query
// plus a handful of integers, so anything bigger is hostile.
const maxRequestBytes = 1 << 20

// maxWriteBytes caps the /write request body; write batches carry triple
// term strings, so they get a roomier (but still bounded) limit.
const maxWriteBytes = 64 << 20

// Node is the HTTP shell over one full replica of the store: whole queries
// on /query, shard ranges of one on /exec, the write stream, snapshots and
// the health endpoints. Every node is the same process asked for a
// different range (the paper's §6 full replication), so cmd/parj-server
// and the loopback test clusters mount the same handler; construct with
// NewNode and mount Handler on an HTTP server.
type Node struct {
	// h is the replica's live store: queries pin one epoch view per
	// request, writes land through /write, reconciliation swaps epochs.
	h *live.Handle

	// ready gates /query, /exec and /readyz: a node answers queries only
	// after its replica is loaded and before draining starts.
	ready    atomic.Bool
	draining atomic.Bool

	// defaults are the per-request settings of /query.
	defaults QueryDefaults

	// Cumulative /statz counters beside the handle's admission counters.
	// totals is guarded by statMu; the plain counters are atomic so the hot
	// path never takes the lock.
	queries  atomic.Int64
	failures atomic.Int64
	statMu   sync.Mutex
	totals   SchedTotals

	// ExecStarted, when non-nil, runs at the start of every /exec request
	// — chaos tests use it to trigger faults mid-query. Never set in
	// production.
	ExecStarted func(req *ExecRequest)
}

// NodeOptions configures a Node's HTTP concerns. Governance — admission,
// the shared memory pool, reconciliation, durability — belongs to the
// replica's live.Handle (live.Options), which the node serves as it is.
type NodeOptions struct {
	// Query holds the per-request settings of /query, which — unlike an
	// /exec request — carries none of its own.
	Query QueryDefaults
	// NotReady starts the node in not-ready state: the handler a binary
	// mounts while its replica still loads. The zero value is ready
	// immediately, which is what in-process tests want.
	NotReady bool
}

// QueryDefaults are the settings every /query request runs under.
type QueryDefaults struct {
	// Threads is the worker count per query (0 = GOMAXPROCS).
	Threads int
	// Timeout is the wall-clock limit per query (0 = none).
	Timeout time.Duration
	// MaxResultRows / MemoryBudget are the per-query produced-row and
	// materialized-byte budgets (0 = unlimited).
	MaxResultRows int64
	MemoryBudget  int64
}

// NewNode wraps a loaded replica under no governance. ss may be nil
// (computed from st).
func NewNode(st *store.Store, ss *stats.Stats, opts NodeOptions) *Node {
	return NewNodeHandle(live.New(st, ss, store.InferBuildOptions(st)), opts)
}

// NewNodeHandle serves an existing replica — one built by live.Open, or a
// root Store's — with its admission controller, memory pool and log.
func NewNodeHandle(h *live.Handle, opts NodeOptions) *Node {
	n := &Node{h: h, defaults: opts.Query}
	n.ready.Store(!opts.NotReady)
	return n
}

// SetReady flips the readiness gate.
func (n *Node) SetReady(ready bool) { n.ready.Store(ready) }

// StartDrain marks the node as draining: /readyz reports not-ready so a
// fronting load balancer stops routing, while in-flight requests finish.
func (n *Node) StartDrain() { n.draining.Store(true) }

// Ready reports whether the node currently accepts queries.
func (n *Node) Ready() bool { return n.ready.Load() && !n.draining.Load() }

// Store exposes the replica's current effective store (coordinator-side
// decode in loopback setups; merges pending writes if any).
func (n *Node) Store() *store.Store { return n.h.View().Store() }

// Live exposes the replica's live store handle (write-path tests and the
// node binary's warm-from seq seeding).
func (n *Node) Live() *live.Handle { return n.h }

// Handler returns the node's HTTP mux over every path of the protocol.
func (n *Node) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc(QueryPath, n.handleQuery)
	mux.HandleFunc(ExecPath, n.handleExec)
	mux.HandleFunc(WritePath, n.handleWrite)
	mux.HandleFunc(ReconcilePath, n.handleReconcile)
	mux.HandleFunc(HealthPath, func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{
			"status":   "ok",
			"triples":  n.h.View().ApproxTriples(),
			"inflight": n.h.AdmissionStats().InFlight,
			"ready":    n.Ready(),
		})
	})
	mux.HandleFunc(ReadyPath, func(w http.ResponseWriter, r *http.Request) {
		if !n.Ready() {
			setRetryAfter(w, nil)
			writeJSON(w, http.StatusServiceUnavailable, map[string]any{"ready": false, "state": n.state()})
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"ready": true, "state": "ready"})
	})
	mux.HandleFunc(StatzPath, func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, n.Statz())
	})
	mux.HandleFunc(SnapshotPath, n.handleSnapshot)
	return mux
}

// state names the node's lifecycle phase for /readyz bodies.
func (n *Node) state() string {
	switch {
	case n.draining.Load():
		return "draining"
	case !n.ready.Load():
		return "warming"
	default:
		return "ready"
	}
}

// Statz snapshots the cumulative counters.
func (n *Node) Statz() *StatzResponse {
	n.statMu.Lock()
	totals := n.totals
	n.statMu.Unlock()
	astats := n.h.AdmissionStats()
	v := n.h.View()
	d := n.h.Durability()
	return &StatzResponse{
		Ready:            n.Ready(),
		Triples:          v.ApproxTriples(),
		InFlight:         astats.InFlight,
		Queries:          n.queries.Load(),
		Rejections:       astats.Sheds + astats.Expired,
		Sheds:            astats.Sheds,
		Expired:          astats.Expired,
		QueueDelayMS:     float64(astats.QueueDelay) / float64(time.Millisecond),
		Shedding:         astats.Shedding,
		Failures:         n.failures.Load(),
		PoolUsed:         astats.PoolUsed,
		PoolCapacity:     astats.PoolCapacity,
		WriteSeq:         n.h.Seq(),
		PendingWrites:    v.Pending(),
		Epoch:            v.Version(),
		WALEnabled:       d.Enabled,
		WALDurableSeq:    d.DurableSeq,
		WALFirstSeq:      d.FirstSeq,
		WALCheckpointSeq: d.CheckpointSeq,
		WALSegments:      d.Segments,
		Sched:            totals,
	}
}

// handleSnapshot streams the replica as a CRC-checked snapshot (format v2)
// so a joining peer can warm from this node. Serving is gated on the
// replica being loaded, not on Ready(): a draining node is still a valid
// snapshot source for its successor.
func (n *Node) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, KindInternal, errors.New("GET required"))
		return
	}
	if !n.ready.Load() {
		writeError(w, http.StatusServiceUnavailable, KindOverload, errors.New("replica not loaded"))
		return
	}
	// Snapshot the effective store of one pinned view: pending writes are
	// merged in, and the header tells the warming peer which write batches
	// the stream already contains so it can resume the stream right there.
	v := n.h.View()
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set(WriteSeqHeader, strconv.FormatUint(v.Seq(), 10))
	// A write error here means the peer went away mid-stream; the trailing
	// CRC it never received makes the truncation unambiguous on its side.
	v.Store().Save(w)
}

// handleWrite applies one sequenced write batch to the live store. Writes
// are gated on the replica being loaded, not on Ready(): a draining node
// still in a replica group must keep applying the stream or it would need a
// full resync to ever come back.
func (n *Node) handleWrite(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, KindInternal, errors.New("POST required"))
		return
	}
	if !n.ready.Load() {
		writeError(w, http.StatusServiceUnavailable, KindOverload, errors.New("replica not loaded"))
		return
	}
	var req WriteRequest
	r.Body = http.MaxBytesReader(w, r.Body, maxWriteBytes)
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, KindParse, fmt.Errorf("decoding write: %w", err))
		return
	}
	seq, err := n.h.Apply(req.Seq, req.Inserts, req.Deletes)
	if err != nil {
		if errors.Is(err, live.ErrSeqGap) {
			writeError(w, http.StatusConflict, KindSeqGap, err)
			return
		}
		// A WAL failure: the batch may be visible, but its durability is
		// unknown and the client must treat it as lost.
		writeError(w, http.StatusInternalServerError, KindInternal, err)
		return
	}
	v := n.h.View()
	writeJSON(w, http.StatusOK, WriteResponse{Seq: seq, Pending: v.Pending(), Epoch: v.Version()})
}

// handleReconcile merges the pending delta into a fresh base store and
// swaps the epoch, synchronously.
func (n *Node) handleReconcile(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, KindInternal, errors.New("POST required"))
		return
	}
	if !n.ready.Load() {
		writeError(w, http.StatusServiceUnavailable, KindOverload, errors.New("replica not loaded"))
		return
	}
	v := n.h.Reconcile()
	writeJSON(w, http.StatusOK, WriteResponse{Seq: v.Seq(), Pending: v.Pending(), Epoch: v.Version()})
}

func (n *Node) handleExec(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, KindInternal, errors.New("POST required"))
		return
	}
	if !n.Ready() {
		writeError(w, http.StatusServiceUnavailable, KindOverload, errors.New("node not ready"))
		return
	}
	var req ExecRequest
	r.Body = http.MaxBytesReader(w, r.Body, maxRequestBytes)
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, KindParse, fmt.Errorf("decoding request: %w", err))
		return
	}
	if hook := n.ExecStarted; hook != nil {
		hook(&req)
	}
	n.serve(w, r, time.Duration(req.TimeoutMS)*time.Millisecond, time.Duration(req.DeadlineBudgetMS)*time.Millisecond,
		func(ctx context.Context, pool *governance.Pool) (any, error) { return n.exec(ctx, pool, &req) })
}

// handleQuery answers one whole query with decoded rows: /exec over the
// full shard range under the node's QueryDefaults, then the solution
// modifiers the shard protocol cannot serve.
func (n *Node) handleQuery(w http.ResponseWriter, r *http.Request) {
	if !n.Ready() {
		writeError(w, http.StatusServiceUnavailable, KindOverload, errors.New("node not ready"))
		return
	}
	src, err := querySource(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, KindParse, err)
		return
	}
	silent := r.URL.Query().Get("silent") == "1"
	n.serve(w, r, n.defaults.Timeout, 0,
		func(ctx context.Context, pool *governance.Pool) (any, error) { return n.query(ctx, pool, src, silent) })
}

// querySource extracts the SPARQL text from a query parameter, a form
// field, or the raw request body, in that order. Bodies are capped so a
// parser bomb is a 400, not an allocation.
func querySource(r *http.Request) (string, error) {
	if q := r.URL.Query().Get("query"); q != "" {
		return q, nil
	}
	if r.Method == http.MethodPost {
		r.Body = http.MaxBytesReader(nil, r.Body, maxRequestBytes)
		if err := r.ParseForm(); err == nil {
			if q := r.PostForm.Get("query"); q != "" {
				return q, nil
			}
		}
		b, err := io.ReadAll(r.Body)
		if err != nil {
			return "", fmt.Errorf("reading query body: %w", err)
		}
		if q := strings.TrimSpace(string(b)); q != "" {
			return q, nil
		}
	}
	return "", errors.New("missing query: pass ?query=, a form field, or a POST body")
}

// serve runs eval under the request path /query and /exec share: the
// node-side deadline, admission on the replica's controller, the /statz
// counters and the error-to-status mapping; eval charges pool, the
// replica's shared memory budget. timeout is the request's own limit, clientBudget the remaining
// client deadline a coordinator propagated; 0 means none for either. A
// request whose deadline is below the admission queue-delay estimate while
// every slot is taken cannot finish here: Acquire refuses it with
// ErrDeadlineExceeded before it takes a slot, so the coordinator's attempt
// fails fast (non-retryable) instead of timing out in the queue.
func (n *Node) serve(w http.ResponseWriter, r *http.Request, timeout, clientBudget time.Duration, eval func(context.Context, *governance.Pool) (any, error)) {
	ctx := r.Context()
	// Effective node-side deadline: the smaller of the two.
	budget := timeout
	if clientBudget > 0 && (budget == 0 || clientBudget < budget) {
		budget = clientBudget
	}
	if budget > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, budget)
		defer cancel()
	}
	pool, release, err := n.h.Admit(ctx)
	if err != nil {
		status, kind := statusKind(err)
		writeError(w, status, kind, err)
		return
	}
	defer release()

	n.queries.Add(1)
	resp, err := eval(ctx, pool)
	if err != nil {
		n.failures.Add(1)
		status, kind := statusKind(err)
		writeError(w, status, kind, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// account folds one execution's scheduler activity into the /statz totals.
func (n *Node) account(res *core.Result) {
	n.statMu.Lock()
	n.totals.Add(res.Sched)
	n.statMu.Unlock()
}

// exec evaluates one shard range; rows stay dictionary-encoded.
func (n *Node) exec(ctx context.Context, pool *governance.Pool, req *ExecRequest) (*ExecResponse, error) {
	q, v, plan, err := n.h.Plan(req.Query, req.Entailment)
	if err != nil {
		return nil, err
	}
	if req.TotalShards <= 0 || req.ShardFrom < 0 || req.ShardTo < req.ShardFrom {
		return nil, &live.PlanError{Err: fmt.Errorf("invalid shard range [%d, %d) of %d", req.ShardFrom, req.ShardTo, req.TotalShards)}
	}
	if q.Buffered() {
		return nil, &live.PlanError{Err: errors.New("ORDER BY and OFFSET need the whole decoded result; a shard range cannot serve them (use " + QueryPath + ")")}
	}
	res, err := core.ExecuteShardRange(v.Store(), plan, core.Options{
		Threads:       req.TotalShards,
		Strategy:      core.Strategy(req.Strategy),
		Silent:        req.Silent,
		Context:       ctx,
		MaxResultRows: req.MaxResultRows,
		MemoryBudget:  req.MemoryBudget,
		MemPool:       pool,
	}, req.ShardFrom, req.ShardTo)
	if err != nil {
		return nil, err
	}
	n.account(res)
	out := &ExecResponse{Count: res.Count, Vars: res.Vars, Stats: res.Stats, Sched: res.Sched}
	if !req.Silent {
		// DISTINCT materializes rows even under Silent inside core, but
		// core only hands them out when !Silent — which is why the
		// coordinator requests non-silent execution for DISTINCT plans.
		out.Frame = encodeFrame(res.Rows, len(res.Vars))
	}
	return out, nil
}

// query evaluates src over the full shard range on one pinned view and
// decodes the rows, solution modifiers included.
func (n *Node) query(ctx context.Context, pool *governance.Pool, src string, silent bool) (*QueryResponse, error) {
	start := time.Now()
	q, v, plan, err := n.h.Plan(src, false)
	if err != nil {
		return nil, err
	}
	res, rows, err := v.Query(q, plan, core.Options{
		Threads:       n.defaults.Threads,
		Silent:        silent,
		Context:       ctx,
		MaxResultRows: n.defaults.MaxResultRows,
		MemoryBudget:  n.defaults.MemoryBudget,
		MemPool:       pool,
	})
	if err != nil {
		return nil, err
	}
	n.account(res)
	return &QueryResponse{Vars: res.Vars, Rows: rows, Count: res.Count,
		Took: time.Since(start).Round(time.Microsecond).String()}, nil
}

// statusKind maps a node-side error onto (HTTP status, wire kind).
func statusKind(err error) (int, string) {
	var pe *live.ParseError
	var le *live.PlanError
	var panicErr *governance.PanicError
	switch {
	case errors.As(err, &pe):
		return http.StatusBadRequest, KindParse
	case errors.As(err, &le):
		return http.StatusBadRequest, KindPlan
	case errors.Is(err, governance.ErrDeadlineExceeded):
		return http.StatusGatewayTimeout, KindDeadline
	case errors.Is(err, governance.ErrCanceled):
		return http.StatusGatewayTimeout, KindCanceled
	case errors.Is(err, governance.ErrBudgetExceeded):
		return http.StatusRequestEntityTooLarge, KindBudget
	case errors.Is(err, governance.ErrOverloaded):
		return http.StatusServiceUnavailable, KindOverload
	case errors.As(err, &panicErr):
		return http.StatusInternalServerError, KindPanic
	default:
		return http.StatusInternalServerError, KindInternal
	}
}

// writeJSON sends v, newline-terminated as json.Encoder writes it, as one
// body of known Content-Length, which the client reads into a buffer of
// exactly that size.
func writeJSON(w http.ResponseWriter, status int, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(b)+1))
	w.WriteHeader(status)
	w.Write(b)
	w.Write([]byte{'\n'})
}

func writeError(w http.ResponseWriter, status int, kind string, err error) {
	if status == http.StatusServiceUnavailable {
		setRetryAfter(w, err)
	}
	writeJSON(w, status, ErrorResponse{Kind: kind, Error: err.Error()})
}

// setRetryAfter puts the backoff every 503 carries on the response: the
// shed hint from the admission controller when err has one (whole
// seconds, rounded up), one second otherwise.
func setRetryAfter(w http.ResponseWriter, err error) {
	secs := int((governance.RetryAfterHint(err, time.Second) + time.Second - 1) / time.Second)
	w.Header().Set("Retry-After", strconv.Itoa(max(secs, 1)))
}

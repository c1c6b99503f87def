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
	"strconv"
	"strings"
	"time"

	"parj/internal/governance"
	"parj/internal/store"
)

// TransportError is a network- or protocol-level failure talking to a
// node: connection refused or reset, a response cut mid-body, or bytes
// that don't decode as the protocol. These are exactly the failures worth
// retrying on a replica and counting against the node's circuit breaker.
type TransportError struct {
	Endpoint string
	Err      error
}

func (e *TransportError) Error() string {
	return fmt.Sprintf("remote: %s: %v", e.Endpoint, e.Err)
}

func (e *TransportError) Unwrap() error { return e.Err }

// Retryable reports whether err may succeed on another replica: transport
// faults and retryable node errors qualify; deterministic node outcomes
// (parse, plan, budget) and deadline/cancel do not.
func Retryable(err error) bool {
	var te *TransportError
	if errors.As(err, &te) {
		// A transport fault caused by the caller's own expired context is
		// a deadline, not a node failure.
		if errors.Is(te.Err, context.DeadlineExceeded) || errors.Is(te.Err, context.Canceled) {
			return false
		}
		return true
	}
	var ne *NodeError
	if errors.As(err, &ne) {
		return ne.Retryable()
	}
	return false
}

// NodeFault reports whether err should count against the node's circuit
// breaker: transport faults and node-internal failures (panic, internal)
// do; semantic outcomes the node computed correctly (parse, plan, budget,
// deadline) do not — and neither does overload. A 503 is the node working
// exactly as designed under load: tripping a breaker on it would remove a
// healthy-but-busy replica from rotation and dump its share of traffic on
// its peers, amplifying the storm. Overload is a routing signal
// (Overloaded), not a fault.
func NodeFault(err error) bool {
	var te *TransportError
	if errors.As(err, &te) {
		return !errors.Is(te.Err, context.DeadlineExceeded) && !errors.Is(te.Err, context.Canceled)
	}
	var ne *NodeError
	if errors.As(err, &ne) {
		return ne.Kind == KindPanic || ne.Kind == KindInternal
	}
	return false
}

// Overloaded reports whether err is a node's load-shed rejection — the
// outcome the coordinator feeds into its per-endpoint load signal (back
// off this replica briefly, prefer its peers) rather than its breaker.
func Overloaded(err error) bool {
	var ne *NodeError
	return errors.As(err, &ne) && ne.Kind == KindOverload
}

// Client executes shard requests against one node endpoint.
type Client struct {
	endpoint string
	hc       *http.Client
}

// NewClient wraps a node base URL (e.g. "http://10.0.0.3:7070"). Each
// client owns its transport so a chaos-severed connection pool on one
// replica never bleeds into another. timeout bounds a single attempt at
// the transport level as a backstop; per-attempt deadlines normally come
// from the request context.
func NewClient(endpoint string, timeout time.Duration) *Client {
	return &Client{
		endpoint: endpoint,
		hc: &http.Client{
			Timeout: timeout,
			Transport: &http.Transport{
				MaxIdleConnsPerHost: 4,
				IdleConnTimeout:     30 * time.Second,
			},
		},
	}
}

// Endpoint returns the node's base URL.
func (c *Client) Endpoint() string { return c.endpoint }

// Close releases idle connections.
func (c *Client) Close() {
	if t, ok := c.hc.Transport.(*http.Transport); ok {
		t.CloseIdleConnections()
	}
}

// Exec evaluates one shard range on the node. The rows arrive as one
// CRC-checked frame (frame.go); a frame that does not verify is a
// TransportError, the same as a body cut mid-stream.
func (c *Client) Exec(ctx context.Context, req *ExecRequest) (*ExecResponse, error) {
	var out ExecResponse
	if err := c.postJSON(ctx, ExecPath, req, &out, maxResponseBytes(req)); err != nil {
		return nil, err
	}
	if !req.Silent {
		block, cols, err := decodeFrame(out.Frame, out.Count)
		if err == nil && out.Count > 0 && cols != len(out.Vars) {
			err = fmt.Errorf("%w: %d columns for %d variables", ErrCorruptFrame, cols, len(out.Vars))
		}
		if err != nil {
			return nil, &TransportError{Endpoint: c.endpoint, Err: err}
		}
		out.Rows, out.Frame = block, nil
	}
	return &out, nil
}

// envelopeSlack is room for everything in a response that is not rows:
// variable names, probe statistics and one scheduler entry per worker.
// noLimit is the response cap of a request that implies none.
const (
	envelopeSlack = 1 << 20
	noLimit       = math.MaxInt64 - 1
)

// maxResponseBytes is the largest /exec body a node honouring req's budgets
// can send, noLimit when req carries none. The node charges at least four
// bytes of MemoryBudget per projected value, a row has at most one column
// per variable sigil in the query, and a value is at most five uvarint
// bytes in the frame, seven once base64 has widened them.
func maxResponseBytes(req *ExecRequest) int64 {
	values := int64(math.MaxInt64)
	if req.MemoryBudget > 0 {
		values = req.MemoryBudget / 4
	}
	cols := int64(strings.Count(req.Query, "?") + strings.Count(req.Query, "$"))
	if req.MaxResultRows > 0 && cols > 0 && req.MaxResultRows < values/cols {
		values = req.MaxResultRows * cols
	}
	if values > (noLimit-envelopeSlack)/7 {
		return noLimit // no budget, or one no response could reach
	}
	return envelopeSlack + 7*values
}

// Write applies one sequenced write batch on the node. A seq-gap refusal
// comes back as a NodeError with KindSeqGap — deterministic, not retryable
// on this replica without a resync.
func (c *Client) Write(ctx context.Context, req *WriteRequest) (*WriteResponse, error) {
	var out WriteResponse
	if err := c.postJSON(ctx, WritePath, req, &out, noLimit); err != nil {
		return nil, err
	}
	return &out, nil
}

// Reconcile forces a synchronous reconciliation on the node.
func (c *Client) Reconcile(ctx context.Context) (*WriteResponse, error) {
	var out WriteResponse
	if err := c.postJSON(ctx, ReconcilePath, struct{}{}, &out, noLimit); err != nil {
		return nil, err
	}
	return &out, nil
}

// postJSON is the shared POST-JSON/decode-JSON round trip with the
// protocol's error taxonomy. limit caps the response body (noLimit = read
// it all): a node that sends more has broken the budgets the request
// carried, and the overrun is the query's governance.ErrBudgetExceeded
// rather than the coordinator's allocation.
func (c *Client) postJSON(ctx context.Context, path string, in, out any, limit int64) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	httpReq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.endpoint+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	httpReq.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(httpReq)
	if err != nil {
		return &TransportError{Endpoint: c.endpoint, Err: err}
	}
	defer resp.Body.Close()
	// Reading the body can fail mid-stream (chaos cut): that's transport.
	raw, err := readBody(io.LimitReader(resp.Body, limit+1), min(resp.ContentLength, limit+1))
	if err != nil {
		return &TransportError{Endpoint: c.endpoint, Err: err}
	}
	if int64(len(raw)) > limit {
		return fmt.Errorf("remote: %s: response exceeds the %d bytes the request's budgets allow: %w",
			c.endpoint, limit, governance.ErrBudgetExceeded)
	}
	if resp.StatusCode != http.StatusOK {
		var ne ErrorResponse
		if err := json.Unmarshal(raw, &ne); err != nil || ne.Kind == "" {
			return &TransportError{Endpoint: c.endpoint,
				Err: fmt.Errorf("status %d with undecodable error body", resp.StatusCode)}
		}
		nerr := &NodeError{Kind: ne.Kind, Msg: ne.Error}
		if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs > 0 {
			nerr.RetryAfter = time.Duration(secs) * time.Second
		}
		return nerr
	}
	if err := json.Unmarshal(raw, out); err != nil {
		return &TransportError{Endpoint: c.endpoint, Err: fmt.Errorf("malformed response: %w", err)}
	}
	return nil
}

// maxPrealloc caps how much of a declared Content-Length readBody allocates
// before the bytes arrive; a longer body grows the buffer as it comes.
const maxPrealloc = 64 << 20

// readBody reads r to its end. A body of declared length n ≥ 0 lands in one
// buffer of n+1 bytes (the last read, which finds the end, needs room
// too), so reading it copies nothing; with n < 0 the buffer starts small
// and doubles, as io.ReadAll's does.
func readBody(r io.Reader, n int64) ([]byte, error) {
	size := int64(512)
	if n >= 0 {
		size = min(n, maxPrealloc) + 1
	}
	b := make([]byte, 0, size)
	for {
		k, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+k]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return b, err
		}
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
	}
}

// ErrNotReady reports a node that answered but is not (yet) serving
// queries: still warming its replica, or draining. It is distinct from a
// transport fault — the process is up, the replica isn't.
var ErrNotReady = errors.New("remote: node not ready")

// Statz fetches the node's cumulative statistics.
func (c *Client) Statz(ctx context.Context) (*StatzResponse, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.endpoint+StatzPath, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, &TransportError{Endpoint: c.endpoint, Err: err}
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, &TransportError{Endpoint: c.endpoint, Err: err}
	}
	if resp.StatusCode != http.StatusOK {
		return nil, &TransportError{Endpoint: c.endpoint, Err: fmt.Errorf("statz status %d", resp.StatusCode)}
	}
	var out StatzResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		return nil, &TransportError{Endpoint: c.endpoint, Err: fmt.Errorf("malformed statz: %w", err)}
	}
	return &out, nil
}

// Snapshot fetches the node's replica as a snapshot stream and loads it.
// The store's v2 format carries a trailing CRC32, so a stream cut mid-body
// (or corrupted in flight) surfaces as store.ErrCorruptSnapshot from the
// loader — a warming replica can simply retry another peer; it can never
// silently serve a torn replica.
func (c *Client) Snapshot(ctx context.Context) (*store.Store, error) {
	st, _, err := c.SnapshotSeq(ctx)
	return st, err
}

// SnapshotSeq is Snapshot plus the write-stream position: the returned seq
// is the last write batch the snapshot already contains (parsed from
// WriteSeqHeader; 0 when the source predates the write path). A warming
// replica seeds its live handle with it and replays the stream from there.
func (c *Client) SnapshotSeq(ctx context.Context) (*store.Store, uint64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.endpoint+SnapshotPath, nil)
	if err != nil {
		return nil, 0, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, 0, &TransportError{Endpoint: c.endpoint, Err: err}
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		if resp.StatusCode == http.StatusServiceUnavailable {
			return nil, 0, fmt.Errorf("%s: snapshot source: %w", c.endpoint, ErrNotReady)
		}
		return nil, 0, &TransportError{Endpoint: c.endpoint, Err: fmt.Errorf("snapshot status %d", resp.StatusCode)}
	}
	seq, _ := strconv.ParseUint(resp.Header.Get(WriteSeqHeader), 10, 64)
	st, err := store.LoadSnapshot(resp.Body)
	if err != nil {
		return nil, 0, fmt.Errorf("remote: warming from %s: %w", c.endpoint, err)
	}
	return st, seq, nil
}

// Package remote implements the stdlib-only HTTP protocol between the
// cluster coordinator and shard nodes. Every node holds a full replica of
// the store (the paper's §6 full-replication cluster model); a request
// names a contiguous range of the deterministic global sharding and the
// node evaluates exactly those shards with its local workers. Because
// sharding is a pure function of (store, plan, total shard count), any
// replica loaded from the same snapshot produces byte-identical shard
// results — which is what makes retries, hedging and replica failover safe.
//
// Wire format: JSON over HTTP. POST /exec evaluates a shard range;
// GET /healthz is liveness; GET /readyz is readiness (load completed and
// not draining). Rows travel dictionary-encoded (uint32 IDs): replicas
// loaded from identical input build identical dictionaries, and the
// coordinator decodes against its own replica. They are the one part of an
// /exec response that is not JSON: the node packs them into a single row
// frame (frame.go: version, column and row counts, per column the zigzag
// deltas of consecutive IDs as uvarints, then a CRC-32C of all of it) that
// rides in the envelope as one base64 field, and Client.Exec checks the
// CRC and unpacks it into one flat []uint32. A frame that fails its CRC,
// is cut short or claims more values than its bytes can hold comes back as
// a TransportError — retried on another replica and counted by the
// breaker, never decoded into a wrong row. Counts, variable names,
// statistics and every error body stay JSON. The same node answers a
// client's whole query on /query with decoded rows (Node is the one HTTP
// shell over a replica; cmd/parj-server mounts nothing else).
package remote

import (
	"fmt"
	"time"

	"parj/internal/core"
	"parj/internal/governance"
	"parj/internal/rdf"
	"parj/internal/search"
	"parj/internal/wal"
)

// QueryPath answers one whole query with decoded rows: GET ?query=..., a
// POST form field "query", or the query as the POST body; ?silent=1 counts
// without returning rows.
const QueryPath = "/query"

// ExecPath is the shard-execution endpoint.
const ExecPath = "/exec"

// HealthPath is the liveness endpoint.
const HealthPath = "/healthz"

// ReadyPath is the readiness endpoint.
const ReadyPath = "/readyz"

// StatzPath is the cumulative statistics endpoint: per-node query counts,
// admission rejections, in-flight requests and summed scheduler activity —
// the wire source a coordinator-side heat tracker polls.
const StatzPath = "/statz"

// SnapshotPath streams the node's replica as a CRC-checked snapshot
// (store format v2). A joining replica warms from a peer by loading this
// stream; the trailing checksum means a connection cut mid-stream is
// detected at load, never served. The response carries WriteSeqHeader so a
// warming replica knows which write batches the snapshot already contains.
const SnapshotPath = "/snapshot"

// WritePath applies one sequenced write batch (inserts and deletes) to the
// node's live store. Batches must arrive in sequence order: a replay is
// idempotent, a gap is refused with KindSeqGap so the coordinator knows the
// replica must resync before it can serve again.
const WritePath = "/write"

// ReconcilePath forces a synchronous reconciliation: the node merges its
// pending delta into a fresh base store and swaps the epoch.
const ReconcilePath = "/reconcile"

// WriteSeqHeader carries the last applied write-batch sequence number on
// snapshot responses, so a replica warmed from the stream can resume the
// write stream exactly where the snapshot left off.
const WriteSeqHeader = "X-Parj-Write-Seq"

// Triple is one term-string triple on the wire, {"s","p","o"}. Writes
// travel as raw terms (not dictionary IDs): every replica encodes them
// against its own dictionaries, and because batches apply in identical
// sequence order with deletes before inserts, all replicas assign identical
// IDs.
type Triple = rdf.Triple

// WriteRequest is the /write body: one sequenced write batch, the same
// struct the coordinator journals and a replica's WAL frames. Seq sequences
// the batch in the coordinator's write stream; 0 means "next" (the direct
// single-node path). Deletes are applied before inserts on every replica
// (the order that keeps dictionary growth deterministic: deletes never touch
// the dictionaries, inserts grow them identically).
type WriteRequest = wal.Record

// WriteResponse reports the node's write-stream position after an applied
// batch or a reconciliation.
type WriteResponse struct {
	// Seq is the node's last applied write-batch sequence number.
	Seq uint64 `json:"seq"`
	// Pending counts write verdicts not yet reconciled into the base.
	Pending int `json:"pending"`
	// Epoch is the node's store-view version after the operation.
	Epoch uint64 `json:"epoch"`
}

// ExecRequest asks a node to evaluate a shard range of a query.
type ExecRequest struct {
	// Query is the SPARQL source text; the node parses and optimizes it
	// against its replica. Plans are deterministic given identical
	// replicas, so coordinator and node agree on the sharding.
	Query string `json:"query"`
	// Entailment selects RDFS-aware planning.
	Entailment bool `json:"entailment,omitempty"`
	// Strategy is the probe strategy (core.Strategy numeric value).
	Strategy int `json:"strategy"`
	// TotalShards is the global shard count the plan is split into
	// (coordinator shards × threads per shard).
	TotalShards int `json:"total_shards"`
	// ShardFrom/ShardTo select the node's contiguous range [from, to).
	ShardFrom int `json:"shard_from"`
	ShardTo   int `json:"shard_to"`
	// Silent counts rows without returning them.
	Silent bool `json:"silent,omitempty"`
	// DeadlineBudgetMS is the attempt's one node-side deadline: the
	// smaller of the coordinator's per-attempt ShardTimeout and the
	// client's remaining deadline, measured when the coordinator launched
	// this attempt (0 = neither). Deadline propagation: the node runs under
	// this budget and refuses work on arrival when it is already smaller
	// than its admission queue-delay estimate — a request that would expire
	// in the queue must not burn a slot, and the coordinator must not burn
	// replica attempts on dead requests.
	DeadlineBudgetMS int64 `json:"deadline_budget_ms,omitempty"`
	// MaxResultRows/MemoryBudget forward the coordinator's per-query
	// governance budgets to the node (0 = unlimited).
	MaxResultRows int64 `json:"max_result_rows,omitempty"`
	MemoryBudget  int64 `json:"memory_budget,omitempty"`
}

// QueryResponse is the JSON body of a successful /query call.
type QueryResponse struct {
	Vars []string `json:"vars"`
	// Rows holds the decoded result rows (omitted under ?silent=1).
	Rows [][]string `json:"rows,omitempty"`
	// Count is the number of result rows after every solution modifier.
	Count int64 `json:"count"`
	// Took is the node-side planning and execution time.
	Took string `json:"took"`
}

// ExecResponse carries one shard range's results back.
type ExecResponse struct {
	// Count is the number of result rows the range produced (after the
	// node-local DISTINCT/LIMIT compaction core applies).
	Count int64 `json:"count"`
	// Vars names the projected columns.
	Vars []string `json:"vars"`
	// Rows holds the dictionary-encoded projected rows back to back, Count
	// rows of len(Vars) IDs each (nil in silent mode; core.AppendRows
	// slices it into rows). They travel in Frame; Client.Exec fills Rows
	// from it.
	Rows []uint32 `json:"-"`
	// Frame is the row frame (frame.go) of a non-silent response, base64 in
	// the JSON envelope. Client.Exec clears it once decoded.
	Frame []byte `json:"frame,omitempty"`
	// Stats aggregates probe-strategy statistics across the range.
	Stats search.Stats `json:"stats"`
	// Sched reports the node's per-worker scheduler activity for this
	// range (morsel pulls, steals, claimed tuples, busy time). The
	// coordinator's heat tracker aggregates it into per-shard-group load.
	Sched core.SchedStats `json:"sched"`
}

// SchedTotals is the cumulative, cross-query sum of scheduler activity a
// node has performed — the /statz aggregate of every ExecResponse.Sched.
type SchedTotals struct {
	Morsels int64 `json:"morsels"`
	Steals  int64 `json:"steals"`
	Claims  int64 `json:"claims"`
	Tuples  int64 `json:"tuples"`
	Rows    int64 `json:"rows"`
	BusyNS  int64 `json:"busy_ns"`
}

// Add folds one query's scheduler stats into the totals.
func (t *SchedTotals) Add(s core.SchedStats) {
	for i := range s.Workers {
		w := &s.Workers[i]
		t.Morsels += w.Morsels
		t.Steals += w.Steals
		t.Claims += w.Claims
		t.Tuples += w.Tuples
		t.Rows += w.Rows
		t.BusyNS += int64(w.Busy)
	}
}

// StatzResponse is the /statz JSON body.
type StatzResponse struct {
	// Ready mirrors /readyz (loaded and not draining).
	Ready bool `json:"ready"`
	// Triples is the replica size.
	Triples int `json:"triples"`
	// InFlight is the number of /query and /exec requests currently
	// executing; the counters below cover both paths alike.
	InFlight int `json:"in_flight"`
	// Queries counts requests admitted since start.
	Queries int64 `json:"queries"`
	// Rejections counts requests admission control refused: Sheds +
	// Expired.
	Rejections int64 `json:"rejections"`
	// Sheds counts requests rejected with overload.
	Sheds int64 `json:"sheds"`
	// Expired counts requests refused because their deadline was already
	// spent (or below the queue-delay estimate while saturated) on arrival,
	// or expired while queued for admission.
	Expired int64 `json:"expired"`
	// QueueDelayMS is the admission controller's current sojourn-time
	// estimate in milliseconds. This is the load signal the coordinator's
	// routing layer reads.
	QueueDelayMS float64 `json:"queue_delay_ms"`
	// Shedding reports whether the admission controller is currently in
	// shed mode.
	Shedding bool `json:"shedding,omitempty"`
	// Failures counts admitted requests that returned an error.
	Failures int64 `json:"failures"`
	// PoolUsed / PoolCapacity report the shared memory budget (0 = off).
	PoolUsed     int64 `json:"pool_used,omitempty"`
	PoolCapacity int64 `json:"pool_capacity,omitempty"`
	// WriteSeq is the last applied write-batch sequence number — the field a
	// coordinator compares against its own stream position to decide whether
	// a rejoining replica can be caught up by log replay.
	WriteSeq uint64 `json:"write_seq"`
	// PendingWrites counts write verdicts awaiting reconciliation.
	PendingWrites int `json:"pending_writes"`
	// Epoch is the store-view version (advances per write batch and per
	// reconciliation).
	Epoch uint64 `json:"epoch"`
	// WALEnabled reports whether the replica journals writes to a local
	// write-ahead log (parj-server -wal). When false the remaining WAL
	// fields are zero.
	WALEnabled bool `json:"wal_enabled,omitempty"`
	// WALDurableSeq is the last write batch an fsync covers — the
	// replica's crash-survival floor.
	WALDurableSeq uint64 `json:"wal_durable_seq,omitempty"`
	// WALFirstSeq is the oldest record still replayable from the log.
	WALFirstSeq uint64 `json:"wal_first_seq,omitempty"`
	// WALCheckpointSeq is the newest checkpoint's stream position.
	WALCheckpointSeq uint64 `json:"wal_checkpoint_seq,omitempty"`
	// WALSegments counts live log segment files.
	WALSegments int `json:"wal_segments,omitempty"`
	// Sched sums scheduler activity across all served queries.
	Sched SchedTotals `json:"sched"`
}

// Error kinds: the wire form of the governance error taxonomy. The node
// maps engine errors to kinds; the client maps kinds back to the typed
// sentinels so errors.Is keeps working across the network.
const (
	KindParse    = "parse"    // unparsable query (HTTP 400)
	KindPlan     = "plan"     // optimizer rejection (HTTP 400)
	KindCanceled = "canceled" // request context canceled (HTTP 504)
	KindDeadline = "deadline" // node-side deadline expired (HTTP 504)
	KindBudget   = "budget"   // row/memory budget exceeded (HTTP 413)
	KindOverload = "overload" // node shedding load or not ready (HTTP 503)
	KindPanic    = "panic"    // contained worker panic (HTTP 500)
	KindInternal = "internal" // anything else (HTTP 500)
	KindSeqGap   = "seq_gap"  // write batch skips ahead of the replica (HTTP 409)
)

// ErrorResponse is the JSON error body.
type ErrorResponse struct {
	Kind  string `json:"kind"`
	Error string `json:"error"`
}

// NodeError is a typed node-side failure reconstructed by the client. Its
// Unwrap target is the matching governance sentinel, so callers dispatch
// with errors.Is(err, governance.ErrDeadlineExceeded) etc. exactly as they
// do for local execution.
type NodeError struct {
	Kind string
	Msg  string
	// RetryAfter is the node's suggested backoff before another attempt,
	// parsed from the Retry-After header on 503 responses (0 = none).
	RetryAfter time.Duration
}

func (e *NodeError) Error() string {
	return fmt.Sprintf("remote: node error (%s): %s", e.Kind, e.Msg)
}

// Unwrap maps the kind onto the governance taxonomy.
func (e *NodeError) Unwrap() error {
	switch e.Kind {
	case KindCanceled:
		return governance.ErrCanceled
	case KindDeadline:
		return governance.ErrDeadlineExceeded
	case KindBudget:
		return governance.ErrBudgetExceeded
	case KindOverload:
		return governance.ErrOverloaded
	default:
		return nil
	}
}

// Retryable reports whether the failure may succeed on another replica (or
// on this one later): overload and internal/panic faults are worth
// retrying, while parse/plan/budget outcomes are deterministic and
// deadline/cancel outcomes are bounded by the shard deadline that is
// already lost. Transport-level errors are classified by the client, not
// here.
func (e *NodeError) Retryable() bool {
	switch e.Kind {
	case KindOverload, KindInternal, KindPanic:
		return true
	default:
		return false
	}
}

// Package cluster implements the paper's §6 cluster extension: "it is
// straightforward to extend PARJ to a 'cluster' version through full
// replication, such that during query execution each worker starts
// processing from a different initial shard."
//
// Every node (internal/remote.Node) holds a complete replica of the store.
// A query is split into the same communication-free shards the
// single-machine engine uses, the coordinator (Remote) assigns contiguous
// shard ranges to replica groups, every node evaluates its range with its
// local worker threads, and only the final results travel back. There is
// no inter-node communication during the join, so the design inherits the
// paper's scalability argument unchanged: total elapsed is the slowest
// node.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"parj/internal/core"
	"parj/internal/governance"
	"parj/internal/remote"
	"parj/internal/resilience"
	"parj/internal/search"
	"parj/internal/sparql"
	"parj/internal/wal"
)

// Policy decides how the coordinator degrades when a shard cannot be
// served by any replica.
type Policy int

const (
	// FailFast cancels the whole query on the first shard failure and
	// returns a typed error — the strict default.
	FailFast Policy = iota
	// Partial returns the rows from the shards that did answer, with
	// RemoteResult.Completeness reporting the served fraction. DISTINCT and
	// LIMIT stay correct on the served subset; counts are lower bounds.
	Partial
)

func (p Policy) String() string {
	if p == Partial {
		return "partial"
	}
	return "fail-fast"
}

// RemoteOptions configures a networked coordinator.
type RemoteOptions struct {
	// Replicas[s] lists the endpoint base URLs that can serve shard group s
	// (every node is a full replica; the groups partition the global shard
	// range). Required, each group non-empty.
	Replicas [][]string
	// ThreadsPerShard is each node's local worker count per request
	// (default 1); the global sharding is len(Replicas)×ThreadsPerShard.
	ThreadsPerShard int
	// Strategy is the probe strategy every node uses.
	Strategy core.Strategy
	// Entailment selects RDFS-aware planning on the nodes.
	Entailment bool

	// ShardTimeout bounds one attempt against one replica (0 = no
	// per-attempt deadline beyond the caller's context).
	ShardTimeout time.Duration
	// MaxAttempts caps attempts per shard across its replicas
	// (default 2×replicas).
	MaxAttempts int
	// Backoff paces sequential retries (zero value = 10ms base, 1s cap).
	Backoff resilience.Backoff
	// Seed drives retry jitter; a fixed seed makes schedules reproducible.
	Seed int64

	// HedgeAfter launches a second attempt on the next replica when the
	// first is still pending after this delay (0 disables hedging).
	HedgeAfter time.Duration

	// Policy selects FailFast (default) or Partial degradation.
	Policy Policy
	// Breaker configures the per-endpoint circuit breakers.
	Breaker resilience.BreakerOptions
	// HealthInterval enables background health probing of every endpoint
	// (0 = disabled); unhealthy replicas are deprioritized, not excluded.
	HealthInterval time.Duration
	// Clock injects time for retries, hedging and breakers (nil = wall
	// clock). Tests pass a FakeClock to make every timer deterministic.
	Clock resilience.Clock

	// MaxResultRows / MemoryBudget forward per-query governance budgets to
	// every node (0 = unlimited).
	MaxResultRows int64
	MemoryBudget  int64

	// Write configures the coordinator's write stream: its replay log and
	// that log's retention (write.go).
	Write WriteOptions
}

// WriteOptions configures the coordinator's side of the live write path.
// Every batch is journaled through one wal.Log before it fans out, and
// Resync replays from that log, in every configuration.
type WriteOptions struct {
	// Log configures the replay log. Log.Dir (or Log.FS) makes it durable:
	// batches are fsynced per Log.Sync (default wal.SyncAlways, group
	// commit) before fan-out, so the sequencer position and the replay log
	// survive a coordinator restart. With neither set the log lives on an
	// in-memory wal.MemFS under wal.SyncNever. NewRemote refuses a set
	// Log.Clock (RemoteOptions.Clock drives the log), and Log.Sync or
	// Log.Interval on a volatile log (it never fsyncs).
	Log wal.Options
	// Retain is how many batches behind the head the log keeps replayable
	// (0 = 1024); a replica further behind gets ErrLogTruncated. Pruning
	// drops whole segments, so the log may keep somewhat more.
	Retain uint64
}

// ShardError records which shard failed and why; Unwrap exposes the cause
// so errors.Is sees the governance taxonomy through it.
type ShardError struct {
	Shard int
	Err   error
}

func (e *ShardError) Error() string { return fmt.Sprintf("shard %d: %v", e.Shard, e.Err) }
func (e *ShardError) Unwrap() error { return e.Err }

// RemoteResult is the coordinator-side outcome of a distributed query.
type RemoteResult struct {
	// Vars names the projected columns.
	Vars []string
	// Rows holds the gathered, dictionary-encoded rows (nil in silent mode).
	Rows [][]uint32
	// Count is the number of result rows after coordinator-side DISTINCT
	// and LIMIT.
	Count int64
	// Stats aggregates probe statistics across all shards.
	Stats search.Stats
	// PerShard reports each shard group's row contribution (pre-merge).
	PerShard []int64
	// Completeness is the fraction of shard groups that answered (1 under
	// FailFast success; may be lower under Partial).
	Completeness float64
	// ShardErrors, indexed by shard group, is non-nil where a group failed
	// (only populated under Partial; FailFast returns the error instead).
	ShardErrors []error
	// Attempts counts requests actually sent, across all shards, retries
	// and hedges — 2×shards on a healthy cluster means hedging fired.
	Attempts int64
}

// Remote is a fault-tolerant coordinator over networked shard nodes. It
// fans a query out to one replica per shard group, retries and hedges
// around slow or failed replicas, trips per-endpoint circuit breakers, and
// merges the shard results with coordinator-side DISTINCT/LIMIT.
//
// The routing table is fixed at NewRemote (topology.go); a replica that
// misses a write batch is fenced out of routing until Resync (write.go).
type Remote struct {
	opts   RemoteOptions
	jitter *resilience.Jitter
	clock  resilience.Clock
	health *resilience.HealthChecker

	// groups[s] lists shard group s's replicas; endpoints lists every
	// distinct endpoint once. Both are built by NewRemote and never change.
	groups    [][]*endpointState
	endpoints []*endpointState

	// writeMu serializes the cluster write stream (write.go): one batch at
	// a time gets the next sequence number, is appended to wlog and fans
	// out to every replica.
	writeMu sync.Mutex
	// wlog is the replay log; its LastSeq is the sequencer position. A
	// replica at most WriteOptions.Retain batches behind is caught up by
	// replaying it; one further behind needs a snapshot warm first.
	wlog *wal.Log
	// forked is the first ErrReplicaAhead this coordinator met (guarded by
	// writeMu); once set, Write and Resync refuse with it.
	forked error
}

// NewRemote builds a coordinator. Close must be called to release clients
// and the health checker.
func NewRemote(opts RemoteOptions) (*Remote, error) {
	if err := validateReplicas(opts.Replicas); err != nil {
		return nil, err
	}
	if opts.ThreadsPerShard <= 0 {
		opts.ThreadsPerShard = 1
	}
	if opts.Clock == nil {
		opts.Clock = resilience.RealClock{}
	}
	if opts.Write.Retain == 0 {
		opts.Write.Retain = defaultRetain
	}
	wlog, err := openWriteLog(opts.Write.Log, opts.Clock)
	if err != nil {
		return nil, err
	}
	r := &Remote{
		opts:   opts,
		jitter: resilience.NewJitter(opts.Seed),
		clock:  opts.Clock,
		wlog:   wlog,
	}
	r.buildTable(opts.Replicas)
	if opts.HealthInterval > 0 {
		r.health = resilience.NewHealthChecker(opts.Clock, opts.HealthInterval, distinctEndpoints(opts.Replicas),
			func(ctx context.Context, ep string) error { return r.endpoint(ep).client.Health(ctx) })
	}
	return r, nil
}

// Close stops the health checker, closes the replay log (later writes fail
// with wal.ErrClosed), and releases every endpoint's connections.
func (r *Remote) Close() {
	r.health.Close()
	r.writeMu.Lock()
	r.wlog.Close()
	r.writeMu.Unlock()
	for _, st := range r.endpoints {
		st.client.Close()
	}
}

// ErrNeedsDecodedRows rejects a query with ORDER BY or OFFSET: both apply
// to the whole result compared by term, and the coordinator gathers
// per-shard rows of dictionary IDs. Send such a query to one node's /query.
var ErrNeedsDecodedRows = errors.New("cluster: ORDER BY and OFFSET need the whole decoded result; the coordinator gathers dictionary IDs per shard")

// Execute runs query across the cluster. The coordinator parses the query
// locally only to learn DISTINCT/LIMIT for the gather phase; planning
// happens on the nodes against their replicas.
func (r *Remote) Execute(ctx context.Context, query string, silent bool) (*RemoteResult, error) {
	q, err := sparql.Parse(query)
	if err != nil {
		return nil, err
	}
	if q.Buffered() {
		return nil, ErrNeedsDecodedRows
	}
	S := len(r.groups)
	total := S * r.opts.ThreadsPerShard
	// DISTINCT needs the actual rows at the coordinator to dedup globally,
	// even when the caller only wants a count.
	wireSilent := silent && !q.Distinct

	base := remote.ExecRequest{
		Query:         query,
		Entailment:    r.opts.Entailment,
		Strategy:      int(r.opts.Strategy),
		TotalShards:   total,
		Silent:        wireSilent,
		MaxResultRows: r.opts.MaxResultRows,
		MemoryBudget:  r.opts.MemoryBudget,
	}
	if r.opts.ShardTimeout > 0 {
		base.TimeoutMS = r.opts.ShardTimeout.Milliseconds()
	}

	groupCtx, cancelGroup := context.WithCancel(ctx)
	defer cancelGroup()

	type shardOut struct {
		resp *remote.ExecResponse
		err  error
	}
	outs := make([]shardOut, S)
	var attempts atomic.Int64
	var wg sync.WaitGroup
	var failFastOnce sync.Once
	for s := 0; s < S; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			req := base
			req.ShardFrom = s * r.opts.ThreadsPerShard
			req.ShardTo = (s + 1) * r.opts.ThreadsPerShard
			resp, err := r.execShard(groupCtx, s, &req, &attempts)
			outs[s] = shardOut{resp: resp, err: err}
			if err != nil && r.opts.Policy == FailFast {
				failFastOnce.Do(cancelGroup)
			}
		}(s)
	}
	wg.Wait()

	res := &RemoteResult{
		PerShard:    make([]int64, S),
		ShardErrors: make([]error, S),
		Attempts:    attempts.Load(),
	}
	served, gathered := 0, 0
	var firstErr error
	for s, o := range outs {
		if o.err != nil {
			se := &ShardError{Shard: s, Err: o.err}
			res.ShardErrors[s] = se
			// Prefer the originating failure over peers' cancellations
			// triggered by our own FailFast group cancel.
			if firstErr == nil || (errors.Is(firstErr, governance.ErrCanceled) && !errors.Is(o.err, governance.ErrCanceled)) {
				firstErr = se
			}
			continue
		}
		served++
		if res.Vars == nil {
			res.Vars = o.resp.Vars
		}
		res.PerShard[s] = o.resp.Count
		gathered += int(o.resp.Count)
		res.Stats.Add(o.resp.Stats)
	}
	res.Completeness = float64(served) / float64(S)
	if r.opts.Policy == FailFast && firstErr != nil {
		return nil, firstErr
	}
	if served == 0 {
		if firstErr == nil {
			firstErr = errors.New("cluster: no shards served")
		}
		return res, firstErr
	}

	// Gather phase, in shard order for determinism. Every shard has
	// already applied DISTINCT and LIMIT locally; the coordinator repeats
	// exactly the same compaction on the merged rows, which yields the
	// global answer (min(LIMIT, |distinct global rows|)). The query's one
	// row-header array slices the shards' blocks; a shard's row count is
	// its Count, which also holds for rows of no columns.
	if !wireSilent {
		rows := make([][]uint32, 0, gathered)
		for _, o := range outs {
			if o.err == nil {
				rows = core.AppendRows(rows, o.resp.Rows, len(o.resp.Vars), int(o.resp.Count))
			}
		}
		rows, res.Count = core.Compact(rows, 0, q.Distinct, q.Limit)
		if !silent {
			res.Rows = rows
		}
	} else {
		for _, o := range outs {
			if o.err == nil {
				res.Count += o.resp.Count
			}
		}
		_, res.Count = core.Compact(nil, res.Count, q.Distinct, q.Limit)
	}
	return res, nil
}

// Count is Execute in silent mode.
func (r *Remote) Count(ctx context.Context, query string) (int64, error) {
	res, err := r.Execute(ctx, query, true)
	if err != nil {
		return 0, err
	}
	return res.Count, nil
}

// replicaOrder returns the replica indices for shard group s in routing
// preference order. A stale replica (one that missed a write batch) is
// never offered while the group has a current one; a group whose replicas
// are all stale keeps routing to them, and Write reports it until Resync.
// The offered replicas split into three tiers: ready
// (healthy, not inside a shed backoff window), shedding (healthy but
// recently rejected work with an overload — still eligible, because when
// every peer is also busy a busy replica beats no replica), and down
// (failing health probes). Within the ready tier the leader is chosen by
// power-of-two-choices: sample two distinct candidates from the seeded
// jitter stream and lead with the one carrying fewer in-flight attempts
// (smoothed latency as tiebreak) — the classic result that two random
// choices track load nearly as well as global knowledge, without a
// coordination point. The rest of each tier rotates by shard index so
// concurrent shards spread instead of all hammering one replica.
func (r *Remote) replicaOrder(s int) []int {
	group := r.groups[s]
	var current, stale []int
	for i, st := range group {
		if st.stale.Load() {
			stale = append(stale, i)
		} else {
			current = append(current, i)
		}
	}
	if len(current) == 0 {
		current = stale
	}
	var ready, shedding, down []int
	for _, i := range current {
		switch {
		case !r.health.Healthy(group[i].url):
			down = append(down, i)
		case group[i].load.Overloaded():
			shedding = append(shedding, i)
		default:
			ready = append(ready, i)
		}
	}
	rotate := func(xs []int) []int {
		if len(xs) < 2 {
			return xs
		}
		k := s % len(xs)
		return append(xs[k:], xs[:k]...)
	}
	if len(ready) >= 2 {
		a := r.jitter.Intn(len(ready))
		b := r.jitter.Intn(len(ready) - 1)
		if b >= a {
			b++
		}
		if group[ready[b]].load.Less(group[ready[a]].load) {
			a, b = b, a
		}
		lead := []int{ready[a], ready[b]}
		var rest []int
		for _, i := range rotate(ready) {
			if i != ready[a] && i != ready[b] {
				rest = append(rest, i)
			}
		}
		ready = append(lead, rest...)
	}
	return append(append(ready, rotate(shedding)...), rotate(down)...)
}

// saturated reports whether at least half of the distinct endpoints are
// inside a shed backoff window — the tier as a whole is overloaded, not one
// replica. Hedging is suppressed in that state: a hedge helps when one
// replica is slow among idle peers, but against a saturated tier it only
// doubles the offered load and feeds the storm.
func (r *Remote) saturated() bool {
	over := 0
	for _, st := range r.endpoints {
		if st.load.Overloaded() {
			over++
		}
	}
	return over*2 >= len(r.endpoints)
}

// attemptOut is one replica attempt's outcome.
type attemptOut struct {
	breaker *resilience.Breaker
	resp    *remote.ExecResponse
	err     error
}

// execShard serves one shard group: it walks the shard's replica order,
// retrying retryable failures with jittered backoff, hedging a second
// attempt when the first is slow, and consulting each endpoint's circuit
// breaker before sending. The first success wins; pending siblings are
// canceled and their breaker slots released.
func (r *Remote) execShard(ctx context.Context, s int, req *remote.ExecRequest, attempts *atomic.Int64) (*remote.ExecResponse, error) {
	order := r.replicaOrder(s)
	maxAttempts := r.opts.MaxAttempts
	if maxAttempts <= 0 {
		maxAttempts = 2 * len(order)
	}

	attemptCtx, cancelAttempts := context.WithCancel(ctx)
	defer cancelAttempts()
	results := make(chan attemptOut, maxAttempts)
	var wg sync.WaitGroup
	launched := 0
	pending := 0

	// launch sends req to the next replica whose breaker admits it.
	launch := func() bool {
		for probe := 0; probe < len(order); probe++ {
			st := r.groups[s][order[launched%len(order)]]
			launched++
			breaker, client, load := st.breaker, st.client, st.load
			if !breaker.Allow() {
				continue
			}
			pending++
			attempts.Add(1)
			// Deadline propagation: stamp this attempt with the client's
			// remaining budget, measured now — a retry after a slow first
			// attempt carries a smaller budget than the first did, and the
			// node refuses outright once the budget drops below its queue
			// delay. Context deadlines are wall-clock, so the budget is
			// computed against wall time even when r.clock is injected.
			areq := *req
			if dl, ok := ctx.Deadline(); ok {
				budgetMS := time.Until(dl).Milliseconds()
				if budgetMS < 1 {
					budgetMS = 1 // expired budgets fail via ctx, not a 0="no deadline" wire value
				}
				areq.DeadlineBudgetMS = budgetMS
			}
			load.Start()
			wg.Add(1)
			go func() {
				defer wg.Done()
				// The per-attempt deadline is enforced client-side too: a
				// black-holed replica (accepted connection, no bytes) must
				// not pin the attempt past its ShardTimeout.
				actx := attemptCtx
				if r.opts.ShardTimeout > 0 {
					var cancel context.CancelFunc
					actx, cancel = context.WithTimeout(attemptCtx, r.opts.ShardTimeout)
					defer cancel()
				}
				start := r.clock.Now()
				resp, err := client.Exec(actx, &areq)
				elapsed := r.clock.Now().Sub(start)
				switch {
				case err == nil:
					load.Finish(elapsed)
				case remote.Overloaded(err):
					// Feed the routing signal: back this endpoint off for
					// the node's own Retry-After hint (default 1s) so the
					// next replicaOrder prefers its peers.
					load.Abort()
					retryAfter := time.Second
					var ne *remote.NodeError
					if errors.As(err, &ne) && ne.RetryAfter > 0 {
						retryAfter = ne.RetryAfter
					}
					load.MarkOverloaded(retryAfter)
				default:
					load.Abort()
				}
				results <- attemptOut{breaker: breaker, resp: resp, err: err}
			}()
			return true
		}
		return false
	}

	// settle reports an attempt's outcome to its breaker. Attempts that
	// died because we canceled them are abandoned, not failed. Overload is
	// never a breaker failure: a 503 is the node's admission control doing
	// its job, and opening the breaker on it would evict a healthy-but-busy
	// replica and dump its traffic on peers — the launch goroutine already
	// fed it into the endpoint's load signal instead.
	settle := func(o attemptOut, abandoned bool) {
		br := o.breaker
		switch {
		case o.err == nil:
			br.Success()
		case remote.Overloaded(o.err):
			br.Abandon()
		case abandoned && !remote.NodeFault(o.err):
			br.Abandon()
		case remote.NodeFault(o.err):
			br.Failure()
		default:
			br.Abandon()
		}
	}
	// finish cancels outstanding attempts, waits for them, and settles
	// their breaker slots, so no goroutine or probe slot outlives the call.
	finish := func() {
		cancelAttempts()
		go func() { wg.Wait(); close(results) }()
		for o := range results {
			settle(o, true)
		}
	}

	if !launch() {
		finish()
		return nil, fmt.Errorf("cluster: shard %d: all replica breakers open: %w", s, governance.ErrOverloaded)
	}
	hedge := r.opts.HedgeAfter
	if hedge > 0 && r.saturated() {
		// Hedge suppression: with half the tier shedding, a duplicate
		// attempt is pure storm amplification, not tail-latency insurance.
		hedge = 0
	}
	var hedgeCh <-chan time.Time
	if hedge > 0 && launched < maxAttempts {
		hedgeCh = r.clock.After(hedge)
	}

	retries := 0
	var lastErr error
	for pending > 0 {
		select {
		case o := <-results:
			pending--
			if o.err == nil {
				settle(o, false)
				finish()
				return o.resp, nil
			}
			// The attempt failed. Distinguish "this replica hit its own
			// ShardTimeout" (retryable elsewhere) from "the caller's
			// context expired" (fatal).
			timedOut := attemptTimedOut(o.err, ctx)
			settle(o, ctx.Err() != nil)
			if ctx.Err() != nil {
				finish()
				return nil, governance.CtxError(ctx)
			}
			lastErr = o.err
			if !remote.Retryable(o.err) && !timedOut {
				finish()
				return nil, o.err
			}
			if launched >= maxAttempts {
				continue // no budget to relaunch; drain any sibling
			}
			if pending > 0 {
				continue // a hedge is still running; let it race
			}
			// Sole attempt failed: back off, then try the next replica.
			if err := resilience.Sleep(ctx, r.clock, r.opts.Backoff.Delay(retries, r.jitter)); err != nil {
				finish()
				return nil, governance.CtxError(ctx)
			}
			retries++
			if !launch() {
				finish()
				return nil, fmt.Errorf("cluster: shard %d: all replica breakers open: %w", s, governance.ErrOverloaded)
			}
			if hedgeCh == nil && hedge > 0 && launched < maxAttempts {
				hedgeCh = r.clock.After(hedge)
			}
		case <-hedgeCh:
			hedgeCh = nil
			if pending == 1 && launched < maxAttempts {
				launch()
			}
		case <-ctx.Done():
			finish()
			return nil, governance.CtxError(ctx)
		}
	}

	finish()
	if lastErr == nil {
		lastErr = governance.ErrOverloaded
	}
	if attemptTimedOut(lastErr, ctx) {
		return nil, fmt.Errorf("cluster: shard %d: %d attempts timed out: %w", s, launched, governance.ErrDeadlineExceeded)
	}
	if !errorsHasGovernance(lastErr) {
		return nil, fmt.Errorf("cluster: shard %d unavailable after %d attempts: %v: %w", s, launched, lastErr, governance.ErrOverloaded)
	}
	return nil, fmt.Errorf("cluster: shard %d failed after %d attempts: %w", s, launched, lastErr)
}

// attemptTimedOut reports whether err is a per-attempt deadline (the
// replica was slow) rather than the caller's own context expiring.
func attemptTimedOut(err error, callerCtx context.Context) bool {
	if callerCtx.Err() != nil {
		return false
	}
	var te *remote.TransportError
	if errors.As(err, &te) {
		return errors.Is(te.Err, context.DeadlineExceeded)
	}
	return errors.Is(err, governance.ErrDeadlineExceeded)
}

// errorsHasGovernance reports whether err already unwraps to a typed
// governance sentinel, so the final wrap preserves rather than re-tags it.
func errorsHasGovernance(err error) bool {
	return errors.Is(err, governance.ErrOverloaded) ||
		errors.Is(err, governance.ErrDeadlineExceeded) ||
		errors.Is(err, governance.ErrBudgetExceeded) ||
		errors.Is(err, governance.ErrCanceled)
}

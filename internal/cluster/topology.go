package cluster

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"parj/internal/remote"
	"parj/internal/resilience"
)

// The self-healing topology model: the routing table is an immutable
// *epoch*, swapped atomically by Reconfigure. A query pins the current
// epoch for its whole lifetime — every attempt, retry and hedge it makes
// routes on that epoch — while queries admitted after the swap route on
// the new one. Per-endpoint state (the HTTP client with its connection
// pool, and the circuit breaker with its failure history) lives outside
// the epochs in a refcounted registry, so an endpoint that survives a
// reconfiguration carries its breaker state and warm connections over,
// and an endpoint referenced by no epoch at all is closed exactly once,
// after the last in-flight query on a retired epoch drains.

// epoch is one immutable version of the routing table. All mutable
// bookkeeping (inflight, retired, released) is guarded by Remote.topoMu.
type epoch struct {
	version  int64
	replicas [][]string
	clients  [][]*remote.Client
	breakers [][]*resilience.Breaker
	loads    [][]*resilience.LoadSignal

	inflight int  // queries currently pinned to this epoch
	retired  bool // no longer current; release when inflight hits 0
	released bool // endpoint refs returned (terminal)
}

// endpointState is the long-lived per-endpoint state shared across epochs.
type endpointState struct {
	client  *remote.Client
	breaker *resilience.Breaker
	load    *resilience.LoadSignal
	refs    int // number of unreleased epochs referencing the endpoint
}

// validateReplicas rejects empty topologies.
func validateReplicas(replicas [][]string) error {
	if len(replicas) == 0 {
		return errors.New("cluster: no shard groups configured")
	}
	for s, reps := range replicas {
		if len(reps) == 0 {
			return fmt.Errorf("cluster: shard group %d has no replicas", s)
		}
		seen := make(map[string]bool, len(reps))
		for _, ep := range reps {
			if seen[ep] {
				return fmt.Errorf("cluster: shard group %d lists %s twice", s, ep)
			}
			seen[ep] = true
		}
	}
	return nil
}

// distinctEndpoints lists each endpoint once, in first-appearance order.
func distinctEndpoints(replicas [][]string) []string {
	var out []string
	seen := map[string]bool{}
	for _, reps := range replicas {
		for _, ep := range reps {
			if !seen[ep] {
				seen[ep] = true
				out = append(out, ep)
			}
		}
	}
	return out
}

// buildEpochLocked constructs the next epoch over replicas, taking one
// registry reference per distinct endpoint (creating entries as needed;
// prebuilt supplies clients for endpoints readiness-checked before the
// lock was taken). Callers hold r.topoMu.
func (r *Remote) buildEpochLocked(replicas [][]string, prebuilt map[string]*remote.Client) *epoch {
	r.version++
	e := &epoch{version: r.version, replicas: deepCopy(replicas)}
	counted := map[string]bool{}
	for _, reps := range e.replicas {
		crow := make([]*remote.Client, len(reps))
		brow := make([]*resilience.Breaker, len(reps))
		lrow := make([]*resilience.LoadSignal, len(reps))
		for i, ep := range reps {
			st := r.endpoints[ep]
			if st == nil {
				c := prebuilt[ep]
				if c == nil {
					c = remote.NewClient(ep, 0)
				}
				st = &endpointState{
					client:  c,
					breaker: resilience.NewBreaker(r.clock, r.opts.Breaker),
					load:    resilience.NewLoadSignal(r.clock),
				}
				r.endpoints[ep] = st
			} else if pc := prebuilt[ep]; pc != nil && pc != st.client {
				pc.Close() // raced with a concurrent admit; keep the registered one
			}
			if !counted[ep] {
				counted[ep] = true
				st.refs++
			}
			crow[i] = st.client
			brow[i] = st.breaker
			lrow[i] = st.load
		}
		e.clients = append(e.clients, crow)
		e.breakers = append(e.breakers, brow)
		e.loads = append(e.loads, lrow)
	}
	return e
}

// releaseEpochLocked returns an epoch's endpoint references; endpoints no
// epoch references anymore are closed and forgotten. Idempotent. Callers
// hold r.topoMu.
func (r *Remote) releaseEpochLocked(e *epoch) {
	if e.released {
		return
	}
	e.released = true
	for _, ep := range distinctEndpoints(e.replicas) {
		st := r.endpoints[ep]
		if st == nil {
			continue
		}
		if st.refs--; st.refs <= 0 {
			st.client.Close()
			delete(r.endpoints, ep)
		}
	}
	for i, old := range r.drainingEpochs {
		if old == e {
			r.drainingEpochs = append(r.drainingEpochs[:i], r.drainingEpochs[i+1:]...)
			break
		}
	}
}

// pin returns the current epoch with its in-flight count raised; every
// Execute holds exactly one pin for its whole lifetime.
func (r *Remote) pin() *epoch {
	r.topoMu.Lock()
	defer r.topoMu.Unlock()
	e := r.cur
	e.inflight++
	return e
}

// unpin drops a query's pin; the last query off a retired epoch triggers
// its release.
func (r *Remote) unpin(e *epoch) {
	r.topoMu.Lock()
	defer r.topoMu.Unlock()
	e.inflight--
	if e.retired && e.inflight == 0 {
		r.releaseEpochLocked(e)
	}
}

// Topology reports the current epoch's version and a copy of its routing
// table.
func (r *Remote) Topology() (version int64, replicas [][]string) {
	r.topoMu.Lock()
	defer r.topoMu.Unlock()
	return r.cur.version, deepCopy(r.cur.replicas)
}

// Reconfigure atomically swaps the routing table: replicas may be added to,
// removed from, or moved between shard groups, and the number of shard
// groups itself may change (every node is a full replica, so any group
// layout is answerable). Queries in flight finish against the epoch they
// started on; queries admitted afterwards route on the new one.
//
// Endpoints present in both epochs keep their circuit-breaker state,
// health verdicts and warm connections. Endpoints new to the cluster are
// admission-gated: Reconfigure probes /readyz and refuses the swap if any
// is unreachable or still warming, so a replica mid-migration can never
// enter the routing table early. Endpoints dropped from the table are
// closed once the last in-flight query that could still route to them
// drains.
//
// Returns the new topology version. Reconfigure replaces the table whatever
// it currently is; an edit derived from a Topology read goes through mutate,
// which refuses to overwrite a table that moved since the read.
func (r *Remote) Reconfigure(ctx context.Context, newReplicas [][]string) (int64, error) {
	return r.reconfigure(ctx, 0, newReplicas)
}

// errTopologyMoved reports a conditional swap whose base version is no
// longer current.
var errTopologyMoved = errors.New("cluster: topology changed concurrently")

// mutate applies edit to the current routing table and swaps the result in
// only if the table is still the version edit saw; when another mutation
// won the race it re-reads and edits again, so concurrent evictions,
// promotions and demotions all survive. edit returning nil replicas means
// "nothing to change".
func (r *Remote) mutate(ctx context.Context, edit func(replicas [][]string) ([][]string, error)) (int64, error) {
	for {
		version, replicas := r.Topology()
		next, err := edit(replicas)
		if err != nil {
			return 0, err
		}
		if next == nil {
			return version, nil
		}
		version, err = r.reconfigure(ctx, version, next)
		if !errors.Is(err, errTopologyMoved) {
			return version, err
		}
	}
}

// reconfigure is Reconfigure made conditional: with from != 0 the swap
// happens only while the current epoch is still version from.
func (r *Remote) reconfigure(ctx context.Context, from int64, newReplicas [][]string) (int64, error) {
	if err := validateReplicas(newReplicas); err != nil {
		return 0, err
	}

	// Admission gate, outside the swap lock: probe endpoints the registry
	// doesn't already know. Their clients are kept for the new epoch.
	r.topoMu.Lock()
	if r.closed {
		r.topoMu.Unlock()
		return 0, errors.New("cluster: coordinator closed")
	}
	var probe []string
	for _, ep := range distinctEndpoints(newReplicas) {
		if r.endpoints[ep] == nil {
			probe = append(probe, ep)
		}
	}
	r.topoMu.Unlock()

	prebuilt := make(map[string]*remote.Client, len(probe))
	for _, ep := range probe {
		c := remote.NewClient(ep, 0)
		if err := c.Ready(ctx); err != nil {
			c.Close()
			for _, pc := range prebuilt {
				pc.Close()
			}
			return 0, fmt.Errorf("cluster: refusing to admit %s: %w", ep, err)
		}
		prebuilt[ep] = c
	}

	r.topoMu.Lock()
	defer r.topoMu.Unlock()
	var refused error
	switch {
	case r.closed:
		refused = errors.New("cluster: coordinator closed")
	case from != 0 && r.cur.version != from:
		refused = errTopologyMoved
	}
	if refused != nil {
		for _, pc := range prebuilt {
			pc.Close()
		}
		return 0, refused
	}
	next := r.buildEpochLocked(newReplicas, prebuilt)
	prev := r.cur
	r.cur = next
	prev.retired = true
	if prev.inflight == 0 {
		r.releaseEpochLocked(prev)
	} else {
		r.drainingEpochs = append(r.drainingEpochs, prev)
	}
	r.health.SetTargets(distinctEndpoints(newReplicas))
	return next.version, nil
}

// AddReplica admits endpoint into shard group's replica set (a promotion).
func (r *Remote) AddReplica(ctx context.Context, shard int, endpoint string) (int64, error) {
	return r.mutate(ctx, func(replicas [][]string) ([][]string, error) {
		if shard < 0 || shard >= len(replicas) {
			return nil, fmt.Errorf("cluster: shard group %d out of range", shard)
		}
		for _, ep := range replicas[shard] {
			if ep == endpoint {
				return nil, fmt.Errorf("cluster: %s already serves shard group %d", endpoint, shard)
			}
		}
		replicas[shard] = append(replicas[shard], endpoint)
		return replicas, nil
	})
}

// RemoveReplica retires endpoint from shard group's replica set (a
// demotion, or the removal of a dead node). The group must retain at least
// one replica.
func (r *Remote) RemoveReplica(ctx context.Context, shard int, endpoint string) (int64, error) {
	return r.mutate(ctx, func(replicas [][]string) ([][]string, error) {
		if shard < 0 || shard >= len(replicas) {
			return nil, fmt.Errorf("cluster: shard group %d out of range", shard)
		}
		kept := replicas[shard][:0]
		for _, ep := range replicas[shard] {
			if ep != endpoint {
				kept = append(kept, ep)
			}
		}
		if len(kept) == len(replicas[shard]) {
			return nil, fmt.Errorf("cluster: %s does not serve shard group %d", endpoint, shard)
		}
		replicas[shard] = kept
		return replicas, nil
	})
}

// DrainingEpochs reports how many retired epochs still have queries in
// flight — an observability hook, and what tests assert drops back to zero.
func (r *Remote) DrainingEpochs() int {
	r.topoMu.Lock()
	defer r.topoMu.Unlock()
	return len(r.drainingEpochs)
}

// Endpoints lists the endpoints the registry currently tracks, sorted.
func (r *Remote) Endpoints() []string {
	r.topoMu.Lock()
	defer r.topoMu.Unlock()
	out := make([]string, 0, len(r.endpoints))
	for ep := range r.endpoints {
		out = append(out, ep)
	}
	sort.Strings(out)
	return out
}

func deepCopy(replicas [][]string) [][]string {
	out := make([][]string, len(replicas))
	for i, reps := range replicas {
		out[i] = append([]string(nil), reps...)
	}
	return out
}

package cluster

import (
	"errors"
	"fmt"
	"sync/atomic"

	"parj/internal/remote"
	"parj/internal/resilience"
)

// The routing table is built once, by NewRemote, and never changes: every
// node is a full replica and the paper's cluster has no live membership, so
// a fixed table of shard groups is the whole model. Each distinct endpoint
// gets one endpointState, shared by every group that lists it, and Execute,
// Write, ReconcileAll and the health probe read the table without a lock.
// Besides the breaker and load signal, which keep their own locks, one bit
// per endpoint moves: stale, which fences a replica that missed a write
// batch out of routing until Resync catches it up.

// endpointState is one endpoint's client, breaker, load signal and fence.
type endpointState struct {
	url     string
	client  *remote.Client
	breaker *resilience.Breaker
	load    *resilience.LoadSignal
	// stale marks a replica that missed a write batch (failed it, or
	// acknowledged it at another sequence). Write sets it and Resync clears
	// it, both under writeMu; routing and the write fan-out read it.
	stale atomic.Bool
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

// buildTable fills r.endpoints and r.groups from the configured replicas.
func (r *Remote) buildTable(replicas [][]string) {
	byURL := make(map[string]*endpointState)
	for _, ep := range distinctEndpoints(replicas) {
		st := &endpointState{
			url:     ep,
			client:  remote.NewClient(ep, 0),
			breaker: resilience.NewBreaker(r.clock, r.opts.Breaker),
			load:    resilience.NewLoadSignal(r.clock),
		}
		byURL[ep] = st
		r.endpoints = append(r.endpoints, st)
	}
	for _, reps := range replicas {
		group := make([]*endpointState, len(reps))
		for i, ep := range reps {
			group[i] = byURL[ep]
		}
		r.groups = append(r.groups, group)
	}
}

// endpoint returns the table's state for url, or nil if no group lists it.
func (r *Remote) endpoint(url string) *endpointState {
	for _, st := range r.endpoints {
		if st.url == url {
			return st
		}
	}
	return nil
}

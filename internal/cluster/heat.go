package cluster

import (
	"context"
	"fmt"
	"sync"
	"time"

	"parj/internal/core"
)

// Workload-adaptive placement (ROADMAP: PHD-Store-style adaptive
// partitioning): every ExecResponse already carries the node's per-worker
// scheduler stats for the shard range it served, so the coordinator can
// estimate each shard group's load for free — no extra RPCs on the hot
// path (the /statz endpoint is the pull-based complement for external
// ops). The HeatTracker aggregates those stats; a RebalancePolicy turns
// the aggregate into replica promotions for hot groups and demotions for
// cold ones; applying a proposal is just a Reconfigure. The policy layer
// is deliberately passive — nothing rebalances unless the operator (or an
// operator-owned loop) asks.

// GroupHeat is one shard group's accumulated load estimate.
type GroupHeat struct {
	// Shard is the group index.
	Shard int
	// Queries counts served responses folded in.
	Queries int64
	// Tuples and Rows are cumulative scheduler totals for the group.
	Tuples int64
	Rows   int64
	// Busy is the cumulative worker busy time the group's replicas spent.
	Busy time.Duration
	// EWMABusy is the exponentially smoothed per-query busy time — the
	// load signal policies compare across groups.
	EWMABusy time.Duration
}

// HeatTracker aggregates per-shard-group load. Safe for concurrent use.
type HeatTracker struct {
	mu     sync.Mutex
	alpha  float64
	groups []GroupHeat
}

// NewHeatTracker tracks n shard groups with EWMA factor alpha (0 = 0.2).
func NewHeatTracker(n int, alpha float64) *HeatTracker {
	if alpha <= 0 || alpha > 1 {
		alpha = 0.2
	}
	h := &HeatTracker{alpha: alpha}
	h.Resize(n)
	return h
}

// Resize adjusts the group count after a reconfiguration. Surviving
// groups keep their history; new ones start cold.
func (h *HeatTracker) Resize(n int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for len(h.groups) < n {
		h.groups = append(h.groups, GroupHeat{Shard: len(h.groups)})
	}
	h.groups = h.groups[:n]
}

// Observe folds one served response's scheduler stats into shard's heat.
// Out-of-range shards (a response from an epoch with a different group
// count) are dropped — stale signal, not worth resizing for.
func (h *HeatTracker) Observe(shard int, s core.SchedStats) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if shard < 0 || shard >= len(h.groups) {
		return
	}
	g := &h.groups[shard]
	var busy time.Duration
	for i := range s.Workers {
		w := &s.Workers[i]
		g.Tuples += w.Tuples
		g.Rows += w.Rows
		busy += w.Busy
	}
	g.Busy += busy
	g.Queries++
	if g.Queries == 1 {
		g.EWMABusy = busy
	} else {
		g.EWMABusy = time.Duration(h.alpha*float64(busy) + (1-h.alpha)*float64(g.EWMABusy))
	}
}

// Snapshot copies the current per-group heat.
func (h *HeatTracker) Snapshot() []GroupHeat {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]GroupHeat(nil), h.groups...)
}

// Heat reports the coordinator's per-shard-group load estimates.
func (r *Remote) Heat() []GroupHeat { return r.heat.Snapshot() }

// ProposalKind says which way a rebalance proposal moves capacity.
type ProposalKind int

const (
	// Promote adds a replica to a hot shard group.
	Promote ProposalKind = iota
	// Demote removes a replica from a cold shard group.
	Demote
)

func (k ProposalKind) String() string {
	if k == Demote {
		return "demote"
	}
	return "promote"
}

// Proposal is one suggested topology change.
type Proposal struct {
	Shard    int
	Kind     ProposalKind
	Endpoint string
	// Reason is a human-readable justification for logs and reviews.
	Reason string
}

// RebalancePolicy proposes topology changes from heat estimates. Policies
// are pure: they never mutate the coordinator, and nothing applies their
// proposals automatically — the operator (or an operator-owned loop)
// reviews and applies them via ApplyProposals. replicas is the current
// routing table; standby lists warm endpoints available for promotion.
type RebalancePolicy interface {
	Propose(heat []GroupHeat, replicas [][]string, standby []string) []Proposal
}

// HeatPolicy is the default threshold policy: a group whose smoothed
// per-query busy time exceeds HotFactor× the cross-group mean gets a
// standby replica promoted into it; a group below ColdFactor× the mean
// gets its lowest-priority replica demoted. Groups with too few served
// queries are never judged — no signal, no action.
type HeatPolicy struct {
	// HotFactor (default 2.0) and ColdFactor (default 0.25) bound the
	// hot/cold bands around the mean EWMA busy time.
	HotFactor  float64
	ColdFactor float64
	// MinReplicas floors demotion (default 1); MaxReplicas caps promotion
	// (0 = unlimited).
	MinReplicas int
	MaxReplicas int
	// MinQueries is the signal floor per group (default 8).
	MinQueries int64
}

func (p HeatPolicy) fill() HeatPolicy {
	if p.HotFactor <= 0 {
		p.HotFactor = 2.0
	}
	if p.ColdFactor <= 0 {
		p.ColdFactor = 0.25
	}
	if p.MinReplicas <= 0 {
		p.MinReplicas = 1
	}
	if p.MinQueries <= 0 {
		p.MinQueries = 8
	}
	return p
}

// Propose implements RebalancePolicy.
func (p HeatPolicy) Propose(heat []GroupHeat, replicas [][]string, standby []string) []Proposal {
	p = p.fill()
	var mean float64
	judged := 0
	for _, g := range heat {
		if g.Queries >= p.MinQueries {
			mean += float64(g.EWMABusy)
			judged++
		}
	}
	if judged == 0 {
		return nil
	}
	mean /= float64(judged)
	if mean <= 0 {
		return nil
	}

	inGroup := func(s int, ep string) bool {
		for _, e := range replicas[s] {
			if e == ep {
				return true
			}
		}
		return false
	}
	used := map[string]bool{}
	var out []Proposal
	for _, g := range heat {
		if g.Shard >= len(replicas) || g.Queries < p.MinQueries {
			continue
		}
		load := float64(g.EWMABusy)
		switch {
		case load >= p.HotFactor*mean:
			if p.MaxReplicas > 0 && len(replicas[g.Shard]) >= p.MaxReplicas {
				continue
			}
			for _, ep := range standby {
				if used[ep] || inGroup(g.Shard, ep) {
					continue
				}
				used[ep] = true
				out = append(out, Proposal{
					Shard: g.Shard, Kind: Promote, Endpoint: ep,
					Reason: fmt.Sprintf("ewma busy %v >= %.1fx mean %v", g.EWMABusy, p.HotFactor, time.Duration(mean)),
				})
				break
			}
		case load <= p.ColdFactor*mean && len(replicas[g.Shard]) > p.MinReplicas:
			// Demote the lowest-priority replica: replicaOrder tries the
			// head of the group first, so the tail sees the least traffic.
			out = append(out, Proposal{
				Shard: g.Shard, Kind: Demote, Endpoint: replicas[g.Shard][len(replicas[g.Shard])-1],
				Reason: fmt.Sprintf("ewma busy %v <= %.2fx mean %v", g.EWMABusy, p.ColdFactor, time.Duration(mean)),
			})
		}
	}
	return out
}

// ProposeRebalance runs policy (nil = default HeatPolicy) over the current
// heat and topology. standby lists endpoints eligible for promotion.
func (r *Remote) ProposeRebalance(policy RebalancePolicy, standby []string) []Proposal {
	if policy == nil {
		policy = HeatPolicy{}
	}
	_, replicas := r.Topology()
	return policy.Propose(r.heat.Snapshot(), replicas, standby)
}

// ApplyProposals folds proposals into the current routing table and
// reconfigures once. Promotions of endpoints already present and demotions
// that would empty a group are skipped rather than failed — the table may
// have moved since the proposals were computed.
func (r *Remote) ApplyProposals(ctx context.Context, proposals []Proposal) (int64, error) {
	return r.mutate(ctx, func(replicas [][]string) ([][]string, error) {
		changed := false
		for _, p := range proposals {
			if p.Shard < 0 || p.Shard >= len(replicas) {
				continue
			}
			idx := -1
			for i, ep := range replicas[p.Shard] {
				if ep == p.Endpoint {
					idx = i
					break
				}
			}
			switch p.Kind {
			case Promote:
				if idx < 0 {
					replicas[p.Shard] = append(replicas[p.Shard], p.Endpoint)
					changed = true
				}
			case Demote:
				if idx >= 0 && len(replicas[p.Shard]) > 1 {
					replicas[p.Shard] = append(replicas[p.Shard][:idx], replicas[p.Shard][idx+1:]...)
					changed = true
				}
			}
		}
		if !changed {
			return nil, nil
		}
		return replicas, nil
	})
}

package main

import (
	"time"

	"parj/internal/core"
	"parj/internal/governance"
	"parj/internal/live"
	"parj/internal/optimizer"
	"parj/internal/rdf"
	"parj/internal/sparql"
	"parj/internal/stats"
	"parj/internal/store"
)

// The traced drivers. Each composes, from a layer's exported functions, the
// same calls parj.Load and parj.Store.Query make, with a span around each.

// tracedLoad is parj.Load split at its layer boundaries: N-Triples parse,
// store build (dictionary encode + sort + CSR), statistics build. Load
// streams triples into the builder; here they are collected first so the
// parser and the builder can be timed apart.
func tracedLoad(tr *tracer, data []byte) (*live.Handle, error) {
	req := tr.newReq()
	root := tr.beginOp(req, "setup")
	defer root.end()

	sp := tr.begin(req, root.id(), "rdf.parse")
	var ts []rdf.Triple
	err := readTriples(data, func(t rdf.Triple) { ts = append(ts, t) })
	sp.end()
	if err != nil {
		return nil, err
	}

	sp = tr.begin(req, root.id(), "store.build")
	b := store.NewBuilder()
	for _, t := range ts {
		b.AddTriple(t)
	}
	bo := store.BuildOptions{}
	st := b.Build(bo)
	sp.end()

	sp = tr.begin(req, root.id(), "stats.build")
	ss := stats.New(st)
	sp.end()

	return live.New(st, ss, bo), nil
}

// setupLayerMetrics copies the traced set-up's layer times into m.
func setupLayerMetrics(m map[string]float64, prof map[string]*layerProfile) {
	p := prof["setup"]
	if p == nil {
		return
	}
	for _, l := range []string{"rdf.parse", "store.build", "stats.build"} {
		m[l+"_s"] = p.Self[l].Seconds()
	}
}

// queryCounters sums the public counters core.Execute returns, read at the
// same boundary the execute span closes on.
type queryCounters struct {
	queries    int64
	wcojPlans  int64 // plans for which the optimizer chose the WCOJ operator
	mergesPaid int64 // queries that paid View.Store() materialisation
	rows       int64
	probes     struct{ seq, binary, index uint64 }
	morsels    int64
	steals     int64
	busy       time.Duration // Σ WorkerStat.Busy
	capacity   time.Duration // Σ workers × execute wall time
}

// tracedQuerier is Store.Query split at its layer boundaries. One goroutine
// uses it at a time.
type tracedQuerier struct {
	tr   *tracer
	h    *live.Handle
	opts core.Options // Threads, Silent, Join as the workload sets them

	lastVersion uint64
	c           queryCounters
}

// query runs one query as operation type op and returns the answer size.
func (tq *tracedQuerier) query(op, src string) (int64, error) {
	tr := tq.tr
	req := tr.newReq()
	root := tr.beginOp(req, op)
	defer root.end()

	sp := tr.begin(req, root.id(), "sparql.parse")
	q, err := sparql.Parse(src)
	sp.end()
	if err != nil {
		return 0, err
	}

	sp = tr.begin(req, root.id(), "live.pin")
	v := tq.h.View()
	sp.end()

	// With writes pending, the first reader of an epoch materialises the
	// merged store; this benchmark has one reader, so a new epoch with a
	// pending delta means this query pays.
	if v.Pending() > 0 && v.Version() != tq.lastVersion {
		tq.c.mergesPaid++
	}
	tq.lastVersion = v.Version()
	sp = tr.begin(req, root.id(), "live.merge")
	st, ss := v.Store(), v.Stats()
	sp.end()

	sp = tr.begin(req, root.id(), "optimizer.plan")
	plan, err := optimizer.OptimizeExpanded(q, st, ss, nil)
	sp.end()
	if err != nil {
		return 0, err
	}

	sp = tr.begin(req, root.id(), "core.execute")
	opts := tq.opts
	opts.CheckInterval = governance.IntervalForEstimate(plan.EstResultRows())
	res, err := core.Execute(st, plan, opts)
	wall := sp.end()
	if err != nil {
		return 0, err
	}
	tq.count(plan, res, wall)

	if !tq.opts.Silent {
		sp = tr.begin(req, root.id(), "dict.decode")
		rows := res.StringRows(st)
		sp.end()
		return int64(len(rows)), nil
	}
	return res.Count, nil
}

func (tq *tracedQuerier) count(plan *optimizer.Plan, res *core.Result, wall time.Duration) {
	c := &tq.c
	c.queries++
	if plan.PreferWCOJ {
		c.wcojPlans++
	}
	c.rows += res.Count
	c.probes.seq += res.Stats.Sequential
	c.probes.binary += res.Stats.Binary
	c.probes.index += res.Stats.Index
	c.morsels += res.Sched.TotalMorsels()
	c.steals += res.Sched.TotalSteals()
	for _, w := range res.Sched.Workers {
		c.busy += w.Busy
	}
	c.capacity += time.Duration(len(res.Sched.Workers)) * wall
}

// queryLayers are the spans tracedQuerier records, with the metric each
// one's self time is reported as.
var queryLayers = []struct {
	layer, metric string
	conv          func(time.Duration) float64
}{
	{"sparql.parse", "sparql.parse_us", us},
	{"live.pin", "live.pin_us", us},
	{"live.merge", "live.merge_ms", ms},
	{"optimizer.plan", "optimizer.plan_us", us},
	{"core.execute", "core.execute_ms", ms},
	{"dict.decode", "dict.decode_ms", ms},
}

// share is a/b, and 0 when there was nothing to share.
func share(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// queryLayerMetrics reduces a traced query window to per-layer metrics: each
// layer's cost is its median self time per operation, averaged over the
// operation types, which is its share of one round of the workload.
// Coverage and overhead compare that round with the untraced one.
func queryLayerMetrics(m map[string]float64, prof map[string]*layerProfile, untraced []opSummary, c *queryCounters) {
	var covered, traced, plain time.Duration
	for _, s := range untraced {
		p := prof[s.Name]
		if p == nil {
			continue
		}
		for _, l := range queryLayers {
			m[l.metric] += l.conv(p.Self[l.layer]) / float64(len(untraced))
			covered += p.Self[l.layer]
		}
		traced += p.Root
		plain += time.Duration(s.P50ms * float64(time.Millisecond))
	}
	m["trace_coverage"] = share(float64(covered), float64(plain))
	m["trace_overhead"] = share(float64(traced), float64(plain))

	c.fill(m)
}

// fill reports the counters as per-operation averages and shares.
func (c *queryCounters) fill(m map[string]float64) {
	q := float64(c.queries)
	m["optimizer.wcoj_share"] = share(float64(c.wcojPlans), q)
	m["live.merge_share"] = share(float64(c.mergesPaid), q)
	m["core.busy_share"] = share(float64(c.busy), float64(c.capacity))
	m["core.morsels"] = share(float64(c.morsels), q)
	m["core.steals"] = share(float64(c.steals), q)
	probes := float64(c.probes.seq + c.probes.binary + c.probes.index)
	m["search.probes_per_row"] = share(probes, float64(c.rows))
	m["search.seq_share"] = share(float64(c.probes.seq), probes)
	m["search.binary_share"] = share(float64(c.probes.binary), probes)
	m["search.index_share"] = share(float64(c.probes.index), probes)
}

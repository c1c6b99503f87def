package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"parj/internal/cluster"
	"parj/internal/core"
	"parj/internal/governance"
	"parj/internal/optimizer"
	"parj/internal/remote"
	"parj/internal/sparql"
	"parj/internal/stats"
	"parj/internal/store"
)

// endpoint: the SNIPPETS user, a client that sends join queries to a remote
// endpoint and wants the rows. cluster.Remote fans each query out to two
// shard groups of one loopback remote.Node each and gathers the rows, which
// the client decodes to terms. Wire encoding, gather, materialisation and
// dictionary decode dominate; the join itself is a small part.

const endpointShards = 2

// fleet is a running coordinator with its nodes.
type fleet struct {
	stores  []*store.Store
	stats   []*stats.Stats
	servers []*http.Server
	urls    []string
	served  sync.WaitGroup
	rem     *cluster.Remote
}

// startFleet brings the serving tier up from an N-Triples document the way a
// deployment does: every node parses and builds its own replica (side by
// side, one per CPU), starts listening, and the coordinator is pointed at
// them.
func startFleet(data []byte, seed int64) (*fleet, error) {
	f := &fleet{
		stores:  make([]*store.Store, endpointShards),
		stats:   make([]*stats.Stats, endpointShards),
		servers: make([]*http.Server, endpointShards),
		urls:    make([]string, endpointShards),
	}
	errs := make([]error, endpointShards)
	var wg sync.WaitGroup
	for i := 0; i < endpointShards; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = f.startNode(i, data)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			f.stop()
			return nil, err
		}
	}
	replicas := make([][]string, endpointShards)
	for i, u := range f.urls {
		replicas[i] = []string{u}
	}
	rem, err := cluster.NewRemote(cluster.RemoteOptions{Replicas: replicas, ThreadsPerShard: 1, Seed: seed})
	if err != nil {
		f.stop()
		return nil, err
	}
	f.rem = rem
	return f, nil
}

func (f *fleet) startNode(i int, data []byte) error {
	b := store.NewBuilder()
	if err := readTriples(data, b.AddTriple); err != nil {
		return err
	}
	// One build thread per node: the nodes build side by side.
	st := b.Build(store.BuildOptions{Parallelism: 1})
	ss := stats.New(st)
	node := remote.NewNode(st, ss, remote.NodeOptions{})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: node.Handler()}
	f.stores[i], f.stats[i], f.servers[i], f.urls[i] = st, ss, srv, "http://"+l.Addr().String()
	f.served.Add(1)
	go func() {
		defer f.served.Done()
		srv.Serve(l) // returns once stop shuts the server down
	}()
	return nil
}

// stop shuts the coordinator and the nodes down and waits for them.
func (f *fleet) stop() {
	if f.rem != nil {
		f.rem.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for _, srv := range f.servers {
		if srv != nil {
			srv.Shutdown(ctx)
		}
	}
	f.served.Wait()
}

// decoder turns the coordinator's dictionary-encoded rows into terms. The
// coordinator has no dictionary of its own, so, like the repository's own
// cluster harness, the client plans the query against a replica once to
// learn which slots are projected and decodes through that plan.
type decoder struct {
	st    *store.Store
	plans map[string]*optimizer.Plan
}

func newDecoder(st *store.Store, ss *stats.Stats, ops []*opType) (*decoder, error) {
	d := &decoder{st: st, plans: make(map[string]*optimizer.Plan)}
	for _, op := range ops {
		for _, q := range op.queries {
			parsed, err := sparql.Parse(q.sparql)
			if err != nil {
				return nil, err
			}
			if d.plans[q.sparql], err = optimizer.OptimizeExpanded(parsed, st, ss, nil); err != nil {
				return nil, err
			}
		}
	}
	return d, nil
}

func (d *decoder) rows(src string, rows [][]uint32) [][]string {
	return (&core.Result{Plan: d.plans[src], Rows: rows}).StringRows(d.st)
}

func runEndpoint(e *env) (*report, error) {
	ts := lubmTriples(lubmScale(e, endpointScale), e.seed)
	ops := lubmJoinOps(e.seed)
	if err := expectCounts(ts, ops); err != nil {
		return nil, err
	}
	data, err := ntriples(ts)
	if err != nil {
		return nil, err
	}
	ts = nil

	fl, setupS, err := timeSetups(e, func() (*fleet, error) {
		return startFleet(data, e.seed)
	}, (*fleet).stop)
	if err != nil {
		return nil, err
	}
	defer fl.stop()
	data = nil
	triples := fl.stores[0].NumTriples()
	heap := heapBytes()
	e.logf("  %d triples × %d replicas, set-up %.4f s, heap %d B", triples, endpointShards, setupS, heap)

	dec, err := newDecoder(fl.stores[0], fl.stats[0], ops)
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	public := func(_ *opType, q *query) (int64, error) {
		res, err := fl.rem.Execute(ctx, q.sparql, false)
		if err != nil {
			return 0, err
		}
		return int64(len(dec.rows(q.sparql, res.Rows))), nil
	}
	drive(ops, e.warmup, public)

	const tail = 90
	if !e.trace {
		d := drive(ops, e.seconds, public)
		sum := summarize(d.types, tail)
		return &report{attempted: d.attempted, failed: d.failed,
			metrics: endToEnd(e, sum, setupS, d.opsPerSecond(), heap, triples)}, nil
	}

	plain := drive(ops, e.seconds/2, public)
	sum := summarize(plain.types, tail)

	tr := newTracer()
	pr := &endpointProbe{tr: tr, fl: fl, dec: dec}
	for i := range pr.clients {
		pr.clients[i] = remote.NewClient(fl.urls[i], 0)
		defer pr.clients[i].Close()
	}
	traced := drive(ops, e.seconds/2, pr.query)
	m := newLayerMetrics()
	if err := pr.metrics(m, ops, sum); err != nil {
		return nil, err
	}
	if err := writeSpans(e.outDir, e.workload, tr.snapshot()); err != nil {
		return nil, err
	}
	return &report{attempted: plain.attempted + traced.attempted, failed: plain.failed + traced.failed, metrics: m}, nil
}

// endpointProbe is the layered run of the endpoint workload. The layers
// under Remote.Execute sit on the far side of an HTTP hop, where the
// benchmark cannot put spans without editing the program, so they are
// measured by difference: after each traced operation the same shard ranges
// are run again three ways — through remote.Client.Exec, and directly on the
// node's store with and without materialising rows — both shards side by
// side, as the coordinator runs them. A layer's cost is the difference
// between two of those medians on the slowest shard.
type endpointProbe struct {
	tr      *tracer
	fl      *fleet
	dec     *decoder
	clients [endpointShards]*remote.Client

	c        queryCounters
	attempts int64 // Σ RemoteResult.Attempts
}

func (p *endpointProbe) query(op *opType, q *query) (int64, error) {
	tr, ctx := p.tr, context.Background()
	req := tr.newReq()
	root := tr.beginOp(req, op.name)
	sp := tr.begin(req, root.id(), "cluster.execute")
	res, err := p.fl.rem.Execute(ctx, q.sparql, false)
	sp.end()
	if err != nil {
		root.end()
		return 0, err
	}
	sp = tr.begin(req, root.id(), "dict.decode")
	rows := p.dec.rows(q.sparql, res.Rows)
	sp.end()
	root.end()

	p.c.queries++
	p.attempts += res.Attempts
	p.c.rows += res.Count
	p.c.probes.seq += res.Stats.Sequential
	p.c.probes.binary += res.Stats.Binary
	p.c.probes.index += res.Stats.Index

	// The same shard ranges again, one probe kind at a time.
	base := remote.ExecRequest{Query: q.sparql, TotalShards: endpointShards}
	var sched [endpointShards]core.SchedStats
	err = p.sideBySide(op.name, "remote.exec", func(s int) error {
		r := base
		r.ShardFrom, r.ShardTo = s, s+1
		resp, err := p.clients[s].Exec(ctx, &r)
		if err == nil {
			sched[s] = resp.Sched
		}
		return err
	})
	for s := range sched {
		p.c.morsels += sched[s].TotalMorsels()
		p.c.steals += sched[s].TotalSteals()
	}
	for _, silent := range []bool{false, true} {
		layer := "node.rows"
		if silent {
			layer = "node.silent"
		}
		if err == nil {
			err = p.sideBySide(op.name, layer, func(s int) error { return p.nodeSide(q.sparql, s, silent) })
		}
	}
	return int64(len(rows)), err
}

// sideBySide runs probe for every shard at once, each under its own
// operation "<op>/<layer>/<shard>", and returns the first error.
func (p *endpointProbe) sideBySide(op, layer string, probe func(shard int) error) error {
	var errs [endpointShards]error
	var wg sync.WaitGroup
	for s := 0; s < endpointShards; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			req := p.tr.newReq()
			root := p.tr.beginOp(req, fmt.Sprintf("%s/%s/%d", op, layer, s))
			sp := p.tr.begin(req, root.id(), layer)
			errs[s] = probe(s)
			sp.end()
			root.end()
		}(s)
	}
	wg.Wait()
	return errors.Join(errs[:]...)
}

// nodeSide is what remote.Node does with an /exec request, minus HTTP.
func (p *endpointProbe) nodeSide(src string, shard int, silent bool) error {
	st := p.fl.stores[shard]
	q, err := sparql.Parse(src)
	if err != nil {
		return err
	}
	plan, err := optimizer.OptimizeExpanded(q, st, p.fl.stats[shard], nil)
	if err != nil {
		return err
	}
	_, err = core.ExecuteShardRange(st, plan, core.Options{
		Threads:       endpointShards,
		Silent:        silent && !q.Distinct,
		Context:       context.Background(),
		CheckInterval: governance.IntervalForEstimate(plan.EstResultRows()),
	}, shard, shard+1)
	return err
}

// metrics reduces the probes to per-layer metrics, averaged over the query
// types like every other layer metric.
func (p *endpointProbe) metrics(m map[string]float64, ops []*opType, untraced []opSummary) error {
	prof := profile(p.tr.snapshot())
	slowest := func(op, layer string) time.Duration {
		var d time.Duration
		for s := 0; s < endpointShards; s++ {
			if pr := prof[fmt.Sprintf("%s/%s/%d", op, layer, s)]; pr != nil {
				d = max(d, pr.Root)
			}
		}
		return d
	}
	n := float64(len(untraced))
	var traced, plain time.Duration
	for _, s := range untraced {
		pr := prof[s.Name]
		if pr == nil {
			continue
		}
		execute, decode := pr.Self["cluster.execute"], pr.Self["dict.decode"]
		wire, rows, silent := slowest(s.Name, "remote.exec"), slowest(s.Name, "node.rows"), slowest(s.Name, "node.silent")
		m["cluster.gather_ms"] += ms(max(0, execute-wire)) / n
		m["remote.hop_ms"] += ms(max(0, wire-rows)) / n
		m["core.materialize_ms"] += ms(max(0, rows-silent)) / n
		m["core.execute_ms"] += ms(silent) / n
		m["dict.decode_ms"] += ms(decode) / n
		traced += pr.Root
		plain += time.Duration(s.P50ms * float64(time.Millisecond))
	}
	// The layers are differences that telescope to the traced operation, so
	// coverage here says only whether any difference had to be clipped at 0.
	layers := m["cluster.gather_ms"] + m["remote.hop_ms"] + m["core.materialize_ms"] + m["core.execute_ms"] + m["dict.decode_ms"]
	m["trace_coverage"] = share(layers*n*float64(time.Millisecond), float64(plain))
	m["trace_overhead"] = share(float64(traced), float64(plain))

	p.c.fill(m)
	m["cluster.attempts_per_shard"] = share(float64(p.attempts), float64(p.c.queries*endpointShards))

	// Response size: one raw /exec per query and shard, outside any timing.
	var bytesSum, rowSum int64
	for _, op := range ops {
		for s := 0; s < endpointShards; s++ {
			b, rows, err := rawExec(p.fl.urls[s], op.queries[0].sparql, s)
			if err != nil {
				return err
			}
			bytesSum, rowSum = bytesSum+b, rowSum+rows
		}
	}
	http.DefaultClient.CloseIdleConnections()
	m["remote.resp_bytes_per_row"] = share(float64(bytesSum), float64(rowSum))
	return nil
}

// rawExec posts one shard request and returns the response body's size and
// the rows it carried.
func rawExec(url, src string, shard int) (size, rows int64, err error) {
	body, err := json.Marshal(remote.ExecRequest{Query: src, TotalShards: endpointShards, ShardFrom: shard, ShardTo: shard + 1})
	if err != nil {
		return 0, 0, err
	}
	resp, err := http.Post(url+remote.ExecPath, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, 0, err
	}
	var parsed remote.ExecResponse
	if err := json.Unmarshal(raw, &parsed); err != nil {
		return 0, 0, fmt.Errorf("exec response (HTTP %d): %w", resp.StatusCode, err)
	}
	return int64(len(raw)), parsed.Count, nil
}

package difftest

import (
	"context"
	"errors"
	"net/http/httptest"
	"time"

	"parj/internal/cluster"
	"parj/internal/core"
	"parj/internal/live"
	"parj/internal/rdf"
	"parj/internal/remote"
	"parj/internal/sparql"
	"parj/internal/store"
)

// parjEngine is PARJ as every front door runs it: a live.Handle whose
// current view plans (View.Plan, with hierarchy expansion under
// entailment) and executes (View.Query) each query with opts.
type parjEngine struct {
	h      *live.Handle
	opts   core.Options
	entail bool
}

func newPARJ(base []rdf.Triple, opts core.Options, entail bool) *parjEngine {
	bo := store.BuildOptions{BuildPosIndex: true} // all four strategies need the index
	return &parjEngine{h: live.New(store.LoadTriples(base, bo), nil, bo), opts: opts, entail: entail}
}

// run plans and executes q on one view under opts.
func (e *parjEngine) run(q *sparql.Query, opts core.Options) (*core.Result, [][]string, error) {
	v := e.h.View()
	plan, err := v.Plan(q, e.entail)
	if err != nil {
		return nil, nil, err
	}
	return v.Query(q, plan, opts)
}

// rows evaluates q under opts instead of the engine's own options.
func (e *parjEngine) rows(q *sparql.Query, opts core.Options) ([][]string, error) {
	_, rows, err := e.run(q, opts)
	return rows, err
}

func (e *parjEngine) Evaluate(q *sparql.Query) ([][]string, error) { return e.rows(q, e.opts) }

func (e *parjEngine) Apply(inserts, deletes []rdf.Triple) error {
	_, err := e.h.Apply(0, inserts, deletes)
	return err
}

func (e *parjEngine) Reconcile() error {
	e.h.Reconcile()
	return nil
}

func (e *parjEngine) Close() { e.h.Quiesce() }

var errReadOnly = errors.New("difftest: engine takes no writes")

// readOnly adapts a baseline's evaluator to Engine.
type readOnly func(q *sparql.Query) ([][]string, error)

func (f readOnly) Evaluate(q *sparql.Query) ([][]string, error) { return f(q) }
func (readOnly) Apply(_, _ []rdf.Triple) error                  { return errReadOnly }
func (readOnly) Reconcile() error                               { return errReadOnly }
func (readOnly) Close()                                         {}

// clusterEngine is the networked leg of the matrix: a 2-group × 2-replica
// loopback fleet where every node holds its own independently built store
// (separate dictionaries — only the identical write order keeps them
// aligned), fed through the coordinator's sequenced Write fan-out and
// queried through its fan-out/gather path and DISTINCT/LIMIT merge.
type clusterEngine struct {
	rem     *cluster.Remote
	servers []*httptest.Server
	// mirror is the coordinator's local replica of the write stream, used
	// to plan and decode gathered rows; it applies exactly the batches the
	// nodes do, so its dictionaries match theirs.
	mirror *live.Handle
}

func newCluster(base []rdf.Triple) (Engine, error) {
	bo := store.BuildOptions{BuildPosIndex: true}
	e := &clusterEngine{}
	var urls []string
	for i := 0; i < 2; i++ {
		// Each node builds its own store from the same triples: independent
		// dictionary instances with identical contents, like real replicas
		// loading the same file.
		n := remote.NewNode(store.LoadTriples(base, bo), nil, remote.NodeOptions{})
		srv := httptest.NewServer(n.Handler())
		e.servers = append(e.servers, srv)
		urls = append(urls, srv.URL)
	}
	e.mirror = live.New(store.LoadTriples(base, bo), nil, bo)

	// Both shard groups list both replicas (full replication — any replica
	// serves any shard range), with the preferred order flipped so each
	// group's first attempt lands on a different replica.
	rem, err := cluster.NewRemote(cluster.RemoteOptions{
		Replicas:        [][]string{{urls[0], urls[1]}, {urls[1], urls[0]}},
		ThreadsPerShard: 2,
		ShardTimeout:    30 * time.Second,
		Seed:            1,
	})
	if err != nil {
		e.Close()
		return nil, err
	}
	e.rem = rem
	return e, nil
}

func (e *clusterEngine) Apply(inserts, deletes []rdf.Triple) error {
	seq, err := e.rem.Write(context.Background(), inserts, deletes)
	if err != nil {
		return err
	}
	_, err = e.mirror.Apply(seq, inserts, deletes)
	return err
}

func (e *clusterEngine) Reconcile() error {
	if err := e.rem.ReconcileAll(context.Background()); err != nil {
		return err
	}
	e.mirror.Reconcile()
	return nil
}

func (e *clusterEngine) Evaluate(q *sparql.Query) ([][]string, error) {
	res, err := e.rem.Execute(context.Background(), sparql.Format(q), false)
	if err != nil {
		return nil, err
	}
	// The mirror plans the same query over the same triples as the nodes,
	// so its plan carries the slot metadata that decodes the gathered
	// dictionary-encoded rows.
	v := e.mirror.View()
	plan, err := v.Plan(q, false)
	if err != nil {
		return nil, err
	}
	return (&core.Result{Plan: plan, Rows: res.Rows}).StringRows(v.Store()), nil
}

func (e *clusterEngine) Close() {
	if e.rem != nil {
		e.rem.Close()
	}
	for _, s := range e.servers {
		s.Close()
	}
}

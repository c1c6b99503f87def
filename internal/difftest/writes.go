package difftest

import (
	"context"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"strings"
	"time"

	"parj"
	"parj/internal/cluster"
	"parj/internal/core"
	"parj/internal/live"
	"parj/internal/rdf"
	"parj/internal/reference"
	"parj/internal/remote"
	"parj/internal/sparql"
	"parj/internal/stats"
	"parj/internal/store"
)

// writes.go — the mutable-store differential harness.
//
// A WriteSchedule is a seeded, replayable interleaving of write batches,
// reconciliations and queries over a generated dataset. The harness replays
// each schedule on every write-capable engine configuration — the live PARJ
// store across the probe-strategy/worker/join-operator matrix, plus the
// networked cluster write path over loopback — and diffs each query result
// against a naive mutable oracle (a plain triple set updated by the same
// batches). The oracle has no epochs, no deltas, no reconciliation: any
// divergence pins a bug in the write path, not in the workload.
//
// The generator deliberately aims at the anomalies set-semantic deltas must
// get right: duplicate inserts, deletes of absent triples, delete-then-
// reinsert across (and within) epoch boundaries, and reconciliations racing
// fresh writes. Failing schedules shrink ddmin-style over both the op list
// and the base dataset into a ready-to-paste repro.

// WriteOp is one step of a write schedule. Exactly one of the three op
// shapes is populated: a write batch (Inserts and/or Deletes; deletes apply
// first, the order the replication protocol fixes), a reconciliation, or a
// query to diff against the oracle.
type WriteOp struct {
	Inserts   []rdf.Triple
	Deletes   []rdf.Triple
	Reconcile bool
	Query     string
}

func (op *WriteOp) kind() string {
	switch {
	case op.Query != "":
		return "query"
	case op.Reconcile:
		return "reconcile"
	default:
		return "write"
	}
}

// WriteSchedule is a replayable mutable-store workload: a base dataset the
// engine loads first, then an op sequence.
type WriteSchedule struct {
	Seed int64
	Base []rdf.Triple
	Ops  []WriteOp
}

// Counts summarizes the schedule for log lines.
func (s *WriteSchedule) Counts() (writes, reconciles, queries int) {
	for i := range s.Ops {
		switch s.Ops[i].kind() {
		case "query":
			queries++
		case "reconcile":
			reconciles++
		default:
			writes++
		}
	}
	return
}

// WriteEngine is a mutable engine under differential test. Apply must
// execute deletes before inserts (the write path's batch order); Evaluate
// must observe every previously applied batch.
type WriteEngine interface {
	Name() string
	Apply(inserts, deletes []rdf.Triple) error
	Reconcile() error
	Evaluate(q *sparql.Query) ([][]string, error)
	Close()
}

// WriteEngineConfig names one mutable engine configuration and builds it
// over a base dataset. Make must be callable repeatedly (the shrinker
// rebuilds engines over reduced schedules).
type WriteEngineConfig struct {
	Name string
	Make func(base []rdf.Triple) (WriteEngine, error)
}

// WriteEngineConfigs returns the mutable differential matrix: the live
// store under every probe strategy at each worker count, the forced join
// operators, a background-auto-reconcile configuration (epoch swaps land at
// arbitrary points of the schedule — results must not care), and the
// cluster write path over a loopback fleet. A nil workers slice selects
// WorkerCounts().
func WriteEngineConfigs(workers []int) []WriteEngineConfig {
	if workers == nil {
		workers = WorkerCounts()
	}
	var out []WriteEngineConfig
	for _, s := range strategies {
		for _, w := range workers {
			s, w := s, w
			name := fmt.Sprintf("live-%s-w%d", s, w)
			out = append(out, WriteEngineConfig{Name: name, Make: func(base []rdf.Triple) (WriteEngine, error) {
				return newLiveWriteEngine(name, base, parj.QueryOptions{Threads: w, Strategy: s}, 0)
			}})
		}
	}
	for _, j := range joinAlgos {
		j := j
		name := fmt.Sprintf("live-%s-%s-w2", j, core.AdaptiveBinary)
		out = append(out, WriteEngineConfig{Name: name, Make: func(base []rdf.Triple) (WriteEngine, error) {
			return newLiveWriteEngine(name, base, parj.QueryOptions{Threads: 2, Strategy: core.AdaptiveBinary, Join: j}, 0)
		}})
	}
	out = append(out,
		// Background reconciliation armed at a tiny threshold: epoch swaps
		// happen mid-schedule at goroutine-scheduling whim, and every query
		// must still match the oracle exactly.
		WriteEngineConfig{Name: "live-autoreconcile", Make: func(base []rdf.Triple) (WriteEngine, error) {
			return newLiveWriteEngine("live-autoreconcile", base, parj.QueryOptions{Threads: 2}, 4)
		}},
		clusterWriteConfig(),
	)
	return out
}

// FindWriteConfig resolves a configuration name as produced by
// WriteEngineConfigs, for replaying shrunk repros on any host.
func FindWriteConfig(name string) (WriteEngineConfig, error) {
	for _, c := range WriteEngineConfigs(nil) {
		if c.Name == name {
			return c, nil
		}
	}
	// Worker counts are host-dependent; parse live-[join-]<strategy>-wN.
	if rest, ok := strings.CutPrefix(name, "live-"); ok {
		join, joinSet := core.JoinAuto, false
		for _, j := range joinAlgos {
			if r, cut := strings.CutPrefix(rest, j.String()+"-"); cut {
				join, joinSet = j, true
				rest = r
				break
			}
		}
		if wIdx := strings.LastIndex(rest, "-w"); wIdx >= 0 {
			var w int
			if _, err := fmt.Sscanf(rest[wIdx+2:], "%d", &w); err == nil && w >= 1 {
				for _, s := range strategies {
					if s.String() == rest[:wIdx] {
						s := s
						return WriteEngineConfig{Name: name, Make: func(base []rdf.Triple) (WriteEngine, error) {
							opts := parj.QueryOptions{Threads: w, Strategy: s}
							if joinSet {
								opts.Join = join
							}
							return newLiveWriteEngine(name, base, opts, 0)
						}}, nil
					}
				}
			}
		}
	}
	return WriteEngineConfig{}, fmt.Errorf("difftest: unknown write engine config %q", name)
}

// liveWriteEngine drives the public parj mutable API.
type liveWriteEngine struct {
	name string
	db   *parj.Store
	opts parj.QueryOptions
}

func newLiveWriteEngine(name string, base []rdf.Triple, opts parj.QueryOptions, autoOps int) (WriteEngine, error) {
	b := parj.NewBuilder(parj.LoadOptions{PosIndex: true, DB: parj.DBOptions{AutoReconcileOps: autoOps}})
	for _, t := range base {
		b.Add(t.S, t.P, t.O)
	}
	return &liveWriteEngine{name: name, db: b.Build(), opts: opts}, nil
}

func (e *liveWriteEngine) Name() string { return e.name }

func (e *liveWriteEngine) Apply(inserts, deletes []rdf.Triple) error {
	if len(deletes) > 0 {
		e.db.Delete(toParjTriples(deletes))
	}
	if len(inserts) > 0 {
		e.db.Insert(toParjTriples(inserts))
	}
	return nil
}

func (e *liveWriteEngine) Reconcile() error {
	e.db.Reconcile()
	return nil
}

func (e *liveWriteEngine) Evaluate(q *sparql.Query) ([][]string, error) {
	res, err := e.db.Query(sparql.Format(q), e.opts)
	if err != nil {
		return nil, err
	}
	return res.Rows, nil
}

func (e *liveWriteEngine) Close() { e.db.Quiesce() }

func toParjTriples(ts []rdf.Triple) []parj.Triple {
	out := make([]parj.Triple, len(ts))
	for i, t := range ts {
		out[i] = parj.Triple(t)
	}
	return out
}

// clusterWriteConfig is the networked leg of the mutable matrix: a 2-group
// × 2-replica loopback fleet where every node holds its own independently
// built store (separate dictionaries — only the identical write order keeps
// them aligned), fed through the coordinator's sequenced Write fan-out.
func clusterWriteConfig() WriteEngineConfig {
	return WriteEngineConfig{Name: "cluster-write-2x2", Make: newClusterWriteEngine}
}

type clusterWriteEngine struct {
	rem     *cluster.Remote
	servers []*httptest.Server
	// mirror is the coordinator's local replica of the write stream, used
	// to plan and decode gathered rows; it applies exactly the batches the
	// nodes do, so its dictionaries match theirs.
	mirror *live.Handle
}

func newClusterWriteEngine(base []rdf.Triple) (WriteEngine, error) {
	e := &clusterWriteEngine{}
	var urls []string
	for i := 0; i < 2; i++ {
		// Each node builds its own store from the same triples: independent
		// dictionary instances with identical contents, like real replicas
		// loading the same file.
		st := store.LoadTriples(append([]rdf.Triple(nil), base...), store.BuildOptions{BuildPosIndex: true})
		n := remote.NewNode(st, nil, remote.NodeOptions{})
		srv := httptest.NewServer(n.Handler())
		e.servers = append(e.servers, srv)
		urls = append(urls, srv.URL)
	}
	mst := store.LoadTriples(append([]rdf.Triple(nil), base...), store.BuildOptions{BuildPosIndex: true})
	e.mirror = live.New(mst, stats.New(mst), store.InferBuildOptions(mst))

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

func (e *clusterWriteEngine) Name() string { return "cluster-write-2x2" }

func (e *clusterWriteEngine) Apply(inserts, deletes []rdf.Triple) error {
	seq, err := e.rem.Write(context.Background(), toWireTriples(inserts), toWireTriples(deletes))
	if err != nil {
		return err
	}
	if _, err := e.mirror.Apply(seq, inserts, deletes); err != nil {
		return err
	}
	return nil
}

func (e *clusterWriteEngine) Reconcile() error {
	if err := e.rem.ReconcileAll(context.Background()); err != nil {
		return err
	}
	e.mirror.Reconcile()
	return nil
}

func (e *clusterWriteEngine) Evaluate(q *sparql.Query) ([][]string, error) {
	res, err := e.rem.Execute(context.Background(), sparql.Format(q), false)
	if err != nil {
		return nil, err
	}
	v := e.mirror.View()
	plan, err := v.Plan(q, false)
	if err != nil {
		return nil, err
	}
	return (&core.Result{Plan: plan, Rows: res.Rows}).StringRows(v.Store()), nil
}

func (e *clusterWriteEngine) Close() {
	if e.rem != nil {
		e.rem.Close()
	}
	for _, s := range e.servers {
		s.Close()
	}
}

func toWireTriples(ts []rdf.Triple) []remote.Triple {
	if len(ts) == 0 {
		return nil
	}
	out := make([]remote.Triple, len(ts))
	for i, t := range ts {
		out[i] = remote.Triple{S: t.S, P: t.P, O: t.O}
	}
	return out
}

// writeOracle is the naive mutable oracle: a plain triple set updated by
// the same batches (deletes first), evaluated by the reference engine.
type writeOracle struct {
	set map[rdf.Triple]bool
	// order lists each ever-present triple exactly once (inOrder guards
	// against re-appending on delete-then-reinsert), keeping evaluation
	// deterministic and duplicate-free.
	order   []rdf.Triple
	inOrder map[rdf.Triple]bool
}

func newWriteOracle(base []rdf.Triple) *writeOracle {
	o := &writeOracle{
		set:     make(map[rdf.Triple]bool, len(base)),
		inOrder: make(map[rdf.Triple]bool, len(base)),
	}
	for _, t := range base {
		o.insert(t)
	}
	return o
}

func (o *writeOracle) insert(t rdf.Triple) {
	o.set[t] = true
	if !o.inOrder[t] {
		o.inOrder[t] = true
		o.order = append(o.order, t)
	}
}

func (o *writeOracle) apply(inserts, deletes []rdf.Triple) {
	for _, t := range deletes {
		delete(o.set, t)
	}
	for _, t := range inserts {
		o.insert(t)
	}
}

// triples returns the current effective triple set.
func (o *writeOracle) triples() []rdf.Triple {
	out := make([]rdf.Triple, 0, len(o.set))
	for _, t := range o.order {
		if o.set[t] {
			out = append(out, t)
		}
	}
	// Compact the order list opportunistically so long churny schedules
	// don't scan an ever-growing tombstone tail.
	if len(out)*2 < len(o.order) {
		o.order = append([]rdf.Triple(nil), out...)
		o.inOrder = make(map[rdf.Triple]bool, len(out))
		for _, t := range out {
			o.inOrder[t] = true
		}
	}
	return out
}

// GenWriteSchedule draws one seeded schedule over ds: a base prefix of the
// dataset, then interleaved write batches (biased toward duplicate inserts,
// deletes of absent triples and delete-then-reinsert churn), explicit
// reconciliations, and queries. Every reconciliation is immediately
// followed by a query, so each epoch boundary is an oracle checkpoint; the
// schedule always ends with a reconcile + query pair.
func GenWriteSchedule(rng *rand.Rand, ds *Dataset, ops int) *WriteSchedule {
	if ops <= 0 {
		ops = 30
	}
	half := len(ds.Triples) / 2
	sched := &WriteSchedule{Seed: ds.Seed, Base: append([]rdf.Triple(nil), ds.Triples[:half]...)}
	heldOut := ds.Triples[half:]

	// present tracks the simulated effective set, to bias deletes toward
	// triples that actually exist.
	present := map[rdf.Triple]bool{}
	var presentList []rdf.Triple
	for _, t := range sched.Base {
		if !present[t] {
			present[t] = true
			presentList = append(presentList, t)
		}
	}
	pickPresent := func() (rdf.Triple, bool) {
		for tries := 0; tries < 8 && len(presentList) > 0; tries++ {
			t := presentList[rng.Intn(len(presentList))]
			if present[t] {
				return t, true
			}
		}
		return rdf.Triple{}, false
	}
	novel := func() rdf.Triple {
		return rdf.Triple{
			S: fmt.Sprintf("<nv-s%d>", rng.Intn(4)),
			P: fmt.Sprintf("<nv-p%d>", rng.Intn(2)),
			O: fmt.Sprintf("<nv-o%d>", rng.Intn(4)),
		}
	}
	record := func(op WriteOp) {
		for _, t := range op.Deletes {
			delete(present, t)
		}
		for _, t := range op.Inserts {
			if !present[t] {
				present[t] = true
				presentList = append(presentList, t)
			}
		}
		sched.Ops = append(sched.Ops, op)
	}
	addQuery := func() {
		q := GenQuery(rng, ds)
		sched.Ops = append(sched.Ops, WriteOp{Query: q.Src()})
	}

	for i := 0; i < ops; i++ {
		switch k := rng.Intn(10); {
		case k < 5: // write batch
			var op WriteOp
			for n := 1 + rng.Intn(4); n > 0; n-- {
				switch c := rng.Intn(10); {
				case c < 3 && len(heldOut) > 0: // fresh triple from the held-out pool
					op.Inserts = append(op.Inserts, heldOut[rng.Intn(len(heldOut))])
				case c < 5: // duplicate insert of a present triple
					if t, ok := pickPresent(); ok {
						op.Inserts = append(op.Inserts, t)
					}
				case c < 6: // novel terms: grows dictionaries mid-flight
					op.Inserts = append(op.Inserts, novel())
				case c < 8: // delete a present triple
					if t, ok := pickPresent(); ok {
						op.Deletes = append(op.Deletes, t)
						// Half the time, schedule the reinsert churn in the
						// same batch (delete wins first, insert reinstates).
						if rng.Intn(2) == 0 {
							op.Inserts = append(op.Inserts, t)
						}
					}
				default: // delete an absent triple: must be a no-op
					op.Deletes = append(op.Deletes, novel())
				}
			}
			if len(op.Inserts) > 0 || len(op.Deletes) > 0 {
				record(op)
			}
		case k < 7: // epoch boundary: reconcile, then checkpoint-query
			sched.Ops = append(sched.Ops, WriteOp{Reconcile: true})
			addQuery()
		default:
			addQuery()
		}
	}
	sched.Ops = append(sched.Ops, WriteOp{Reconcile: true})
	addQuery()
	return sched
}

// WritesConfig controls one mutable differential run.
type WritesConfig struct {
	Seed int64
	// Schedules is the number of generated write schedules (default 6).
	Schedules int
	// OpsPerSchedule is the length of each schedule (default 30).
	OpsPerSchedule int
	// MaxTriples bounds the generated dataset a schedule draws from
	// (default 160).
	MaxTriples int
	// Workers overrides the worker-count axis; nil selects WorkerCounts().
	Workers []int
	// OracleBudget and MaxOracleRows bound the oracle exactly as in Config.
	OracleBudget  int64
	MaxOracleRows int
	// NoShrink reports failures raw instead of minimizing them.
	NoShrink bool
	// MaxFailures stops the run early (default 5).
	MaxFailures int
	// Log, when non-nil, receives per-schedule progress lines.
	Log func(format string, args ...any)
}

func (c *WritesConfig) fill() {
	if c.Schedules <= 0 {
		c.Schedules = 6
	}
	if c.OpsPerSchedule <= 0 {
		c.OpsPerSchedule = 30
	}
	if c.MaxTriples <= 0 {
		c.MaxTriples = 160
	}
	if c.OracleBudget <= 0 {
		c.OracleBudget = 2_000_000
	}
	if c.MaxOracleRows <= 0 {
		c.MaxOracleRows = 20_000
	}
	if c.MaxFailures <= 0 {
		c.MaxFailures = 5
	}
}

// WriteFailure is one detected divergence between a mutable engine and the
// oracle while replaying a schedule.
type WriteFailure struct {
	Engine   string
	Schedule *WriteSchedule
	// OpIndex is the schedule position of the diverging query (or erroring
	// op).
	OpIndex int
	Diff    string
	// Repro is a ready-to-paste Go regression test over the shrunk
	// schedule; empty when shrinking was disabled.
	Repro string
}

func (f *WriteFailure) String() string {
	return fmt.Sprintf("engine %s, schedule seed %d, op %d: %s",
		f.Engine, f.Schedule.Seed, f.OpIndex, f.Diff)
}

// WritesReport summarizes a mutable differential run.
type WritesReport struct {
	Schedules  int
	EngineRuns int
	// Checkpoints counts (engine, query op) comparisons performed.
	Checkpoints int
	Skipped     int
	Failures    []WriteFailure
}

// RunWrites executes the mutable differential matrix. The same config
// always yields the same schedules (engine-internal goroutine timing may
// vary; results must not).
func RunWrites(cfg WritesConfig) *WritesReport {
	cfg.fill()
	rep := &WritesReport{}
	logf := cfg.Log
	if logf == nil {
		logf = func(string, ...any) {}
	}
	configs := WriteEngineConfigs(cfg.Workers)

	for si := 0; si < cfg.Schedules && len(rep.Failures) < cfg.MaxFailures; si++ {
		seed := cfg.Seed + int64(si+1)*2_000_029
		rng := rand.New(rand.NewSource(seed))
		ds := GenDataset(rng, DatasetConfig{
			MaxTriples: cfg.MaxTriples,
			Skewed:     si%3 == 1,
			Dense:      si%4 == 3,
		})
		sched := GenWriteSchedule(rng, ds, cfg.OpsPerSchedule)
		rep.Schedules++

		for _, ec := range configs {
			if len(rep.Failures) >= cfg.MaxFailures {
				break
			}
			rep.EngineRuns++
			opIdx, diff, checks, skipped := replaySchedule(ec, sched, cfg.OracleBudget, cfg.MaxOracleRows)
			rep.Checkpoints += checks
			rep.Skipped += skipped
			if diff == "" {
				continue
			}
			f := WriteFailure{Engine: ec.Name, Schedule: sched, OpIndex: opIdx, Diff: diff}
			if !cfg.NoShrink {
				small := ShrinkWriteSchedule(sched, ec, cfg.OracleBudget, cfg.MaxOracleRows)
				f.Repro = FormatWriteRepro(small, ec.Name)
			}
			rep.Failures = append(rep.Failures, f)
		}
		w, r, q := sched.Counts()
		logf("schedule %d/%d (seed %d: %d base triples, %d writes, %d reconciles, %d queries): %d checkpoints, %d failures",
			si+1, cfg.Schedules, seed, len(sched.Base), w, r, q, rep.Checkpoints, len(rep.Failures))
	}
	return rep
}

// replaySchedule runs one schedule on one engine, diffing every query op
// against the mutable oracle. It returns the first diverging op index and
// diff ("" and -1 on agreement), plus checkpoint/skip counts.
func replaySchedule(ec WriteEngineConfig, sched *WriteSchedule, oracleBudget int64, maxOracleRows int) (opIdx int, diff string, checks, skipped int) {
	eng, err := ec.Make(sched.Base)
	if err != nil {
		return -1, "building engine: " + err.Error(), 0, 0
	}
	defer eng.Close()
	oracle := newWriteOracle(sched.Base)

	for i := range sched.Ops {
		op := &sched.Ops[i]
		switch op.kind() {
		case "write":
			if err := eng.Apply(op.Inserts, op.Deletes); err != nil {
				return i, "apply: " + err.Error(), checks, skipped
			}
			oracle.apply(op.Inserts, op.Deletes)
		case "reconcile":
			if err := eng.Reconcile(); err != nil {
				return i, "reconcile: " + err.Error(), checks, skipped
			}
		case "query":
			parsed, err := sparql.Parse(op.Query)
			if err != nil {
				return i, "generated query does not parse: " + err.Error(), checks, skipped
			}
			want, ok := reference.EvaluateBudget(parsed, oracle.triples(), oracleBudget)
			if !ok || len(want) > maxOracleRows {
				skipped++
				continue
			}
			got, err := eng.Evaluate(parsed)
			if err != nil {
				return i, "evaluate: " + err.Error(), checks, skipped
			}
			checks++
			if d := Compare(parsed, want, got); d != "" {
				return i, d, checks, skipped
			}
		}
	}
	return -1, "", checks, skipped
}

// maxWriteShrinkChecks caps the replays one schedule shrink may spend.
const maxWriteShrinkChecks = 200

// ShrinkWriteSchedule ddmin-minimizes a failing schedule: first the op
// list, then the base dataset, to a joint fixpoint. A candidate counts as
// failing only if its replay still diverges (anywhere — the failure is
// allowed to move as ops disappear).
func ShrinkWriteSchedule(sched *WriteSchedule, ec WriteEngineConfig, oracleBudget int64, maxOracleRows int) *WriteSchedule {
	checks := 0
	fails := func(cand *WriteSchedule) bool {
		if checks >= maxWriteShrinkChecks {
			return false
		}
		checks++
		_, diff, _, _ := replaySchedule(ec, cand, oracleBudget, maxOracleRows)
		return diff != ""
	}

	cur := &WriteSchedule{Seed: sched.Seed, Base: sched.Base, Ops: sched.Ops}
	for changed := true; changed && checks < maxWriteShrinkChecks; {
		changed = false
		if ops, ok := ddmin(cur.Ops, func(ops []WriteOp) bool {
			return fails(&WriteSchedule{Seed: cur.Seed, Base: cur.Base, Ops: ops})
		}); ok {
			cur.Ops = ops
			changed = true
		}
		if base, ok := ddmin(cur.Base, func(base []rdf.Triple) bool {
			return fails(&WriteSchedule{Seed: cur.Seed, Base: base, Ops: cur.Ops})
		}); ok {
			cur.Base = base
			changed = true
		}
	}
	return cur
}

// ddmin is the generic chunk-removal loop shared by the schedule shrinker:
// repeatedly drop ever-smaller chunks of xs while fails still holds.
func ddmin[T any](xs []T, fails func([]T) bool) ([]T, bool) {
	cur := xs
	reduced := false
	n := 2
	for len(cur) >= 1 && n <= len(cur) {
		chunk := (len(cur) + n - 1) / n
		removedAny := false
		for start := 0; start < len(cur); start += chunk {
			end := start + chunk
			if end > len(cur) {
				end = len(cur)
			}
			cand := make([]T, 0, len(cur)-(end-start))
			cand = append(cand, cur[:start]...)
			cand = append(cand, cur[end:]...)
			if fails(cand) {
				cur = cand
				reduced = true
				removedAny = true
				start -= chunk
			}
		}
		if removedAny {
			if n > 2 {
				n--
			}
		} else {
			n *= 2
		}
	}
	return cur, reduced
}

// FormatWriteRepro renders a shrunk failing schedule as a self-contained Go
// regression test ready to paste into internal/difftest/regress_test.go.
func FormatWriteRepro(sched *WriteSchedule, engine string) string {
	var sb strings.Builder
	sb.WriteString("// Shrunk by the write-schedule harness; paste into internal/difftest/regress_test.go\n")
	sb.WriteString("// and rename. CheckWriteRepro fails the test while the divergence exists.\n")
	sb.WriteString("func TestRegressWrite_RENAME_ME(t *testing.T) {\n")
	sb.WriteString("\tbase := []rdf.Triple{\n")
	for _, t := range sched.Base {
		fmt.Fprintf(&sb, "\t\t{S: %q, P: %q, O: %q},\n", t.S, t.P, t.O)
	}
	sb.WriteString("\t}\n\tops := []difftest.WriteOp{\n")
	for i := range sched.Ops {
		op := &sched.Ops[i]
		switch op.kind() {
		case "query":
			fmt.Fprintf(&sb, "\t\t{Query: %q},\n", op.Query)
		case "reconcile":
			sb.WriteString("\t\t{Reconcile: true},\n")
		default:
			sb.WriteString("\t\t{")
			if len(op.Inserts) > 0 {
				sb.WriteString("Inserts: []rdf.Triple{")
				for _, t := range op.Inserts {
					fmt.Fprintf(&sb, "{S: %q, P: %q, O: %q}, ", t.S, t.P, t.O)
				}
				sb.WriteString("}")
			}
			if len(op.Deletes) > 0 {
				if len(op.Inserts) > 0 {
					sb.WriteString(", ")
				}
				sb.WriteString("Deletes: []rdf.Triple{")
				for _, t := range op.Deletes {
					fmt.Fprintf(&sb, "{S: %q, P: %q, O: %q}, ", t.S, t.P, t.O)
				}
				sb.WriteString("}")
			}
			sb.WriteString("},\n")
		}
	}
	sb.WriteString("\t}\n")
	fmt.Fprintf(&sb, "\tCheckWriteRepro(t, base, ops, %q)\n", engine)
	sb.WriteString("}\n")
	return sb.String()
}

// CheckWriteRepro replays a shrunk schedule on the named configuration,
// failing the test on any divergence from the mutable oracle. Regression
// tests recorded from shrunk write failures call this.
func CheckWriteRepro(t testingTB, base []rdf.Triple, ops []WriteOp, engine string) {
	t.Helper()
	ec, err := FindWriteConfig(engine)
	if err != nil {
		t.Fatal(err)
	}
	sched := &WriteSchedule{Base: base, Ops: ops}
	if opIdx, diff, _, _ := replaySchedule(ec, sched, 2_000_000, 20_000); diff != "" {
		t.Errorf("engine %s, op %d: %s", engine, opIdx, diff)
	}
}

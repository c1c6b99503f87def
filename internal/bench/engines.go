package bench

import (
	"runtime"
	"time"

	"parj/internal/baseline/hashjoin"
	"parj/internal/baseline/rdf3x"
	"parj/internal/baseline/triad"
	"parj/internal/core"
	"parj/internal/optimizer"
	"parj/internal/rdf"
	"parj/internal/sparql"
	"parj/internal/stats"
	"parj/internal/store"
)

// Dataset bundles one generated workload with every engine's loaded form.
// Engines are built lazily so experiments that only need PARJ don't pay for
// the baselines.
type Dataset struct {
	Triples []rdf.Triple

	store      *store.Store
	storeStats *stats.Stats

	hash   *hashjoin.Engine
	r3x    *rdf3x.Engine
	triads map[int]*triad.Engine // keyed by summary buckets (0 = plain)

	triadWorkers int
}

// NewDataset wraps generated triples.
func NewDataset(triples []rdf.Triple, triadWorkers int) *Dataset {
	return &Dataset{Triples: triples, triadWorkers: triadWorkers}
}

// Store returns the PARJ store (built with ID-to-Position indexes so all
// four strategies are available).
func (d *Dataset) Store() (*store.Store, *stats.Stats) {
	if d.store == nil {
		d.store = store.LoadTriples(d.Triples, store.BuildOptions{BuildPosIndex: true})
		d.storeStats = stats.New(d.store)
	}
	return d.store, d.storeStats
}

// PARJ returns a silent (counting) PARJ engine running with opts. When the
// requested thread count exceeds the host's cores (threads 0 resolves to
// GOMAXPROCS, which never does), or when opts asks for it, the engine
// measures its morsels sequentially and reports the simulated N-core elapsed
// time: the list-schedule makespan of its morsels (its slowest shard when
// they are left uncut), for the pipeline and the WCOJ operator alike. That
// stands in for a real N-core run only as far as workers do not slow each
// other down — which holds for the cache lines they write
// (core.TestWorkersShareNoCacheLine) and is measured against the wall clock
// up to the host's core count (core.TestTwoWorkersNotSlowerThanOne, Fig2's
// "real" columns), not beyond it.
func (d *Dataset) PARJ(name string, opts core.Options) Engine {
	st, ss := d.Store()
	opts.Silent = true
	if opts.Threads > runtime.NumCPU() {
		opts.MeasureShards = true
	}
	// The elapsed time includes query optimization, as the paper's does.
	// Under simulation (opts.MeasureShards) the morsel execution portion is
	// replaced by its simulated parallel makespan; planning and result
	// merging stay serial.
	return engine{name, func(q *sparql.Query) (int64, time.Duration, error) {
		start := time.Now()
		plan, err := optimizer.Optimize(q, st, ss)
		if err != nil {
			return 0, 0, err
		}
		res, err := core.Execute(st, plan, opts)
		if err != nil {
			return 0, 0, err
		}
		wall := time.Since(start)
		if opts.MeasureShards {
			wall = max(wall-(res.SumShardTime()-res.MaxShardTime()), 0)
		}
		return res.Count, wall, nil
	}}
}

// loadHashJoin loads the RDFox-like baseline on first use.
func (d *Dataset) loadHashJoin() *hashjoin.Engine {
	if d.hash == nil {
		d.hash = hashjoin.Load(d.Triples)
	}
	return d.hash
}

// loadRDF3X loads the RDF-3X-like baseline on first use.
func (d *Dataset) loadRDF3X() *rdf3x.Engine {
	if d.r3x == nil {
		d.r3x = rdf3x.Load(d.Triples)
	}
	return d.r3x
}

// loadTriAD loads the TriAD-like baseline with the given summary buckets on
// first use. On hosts with fewer cores than the worker count it simulates
// parallel phases (see triad.Options.SimulateParallel).
func (d *Dataset) loadTriAD(buckets int) *triad.Engine {
	if d.triads == nil {
		d.triads = map[int]*triad.Engine{}
	}
	if d.triads[buckets] == nil {
		workers := d.triadWorkers
		if workers <= 0 {
			workers = runtime.GOMAXPROCS(0)
		}
		d.triads[buckets] = triad.Load(d.Triples, triad.Options{
			Workers:          workers,
			SummaryBuckets:   buckets,
			SimulateParallel: workers > runtime.NumCPU(),
		})
	}
	return d.triads[buckets]
}

// HashJoin returns the RDFox-like single-threaded baseline.
func (d *Dataset) HashJoin() Engine {
	return wallClock("HashJoin-1", d.loadHashJoin().Count)
}

// RDF3X returns the RDF-3X-like single-threaded baseline.
func (d *Dataset) RDF3X() Engine {
	return wallClock("BTree6-1", d.loadRDF3X().Count)
}

// TriAD returns the TriAD-like distributed baseline; buckets > 0 selects
// the summary-graph (SG) mode. When the engine simulates parallel phases
// it reports the simulated parallel elapsed time: wall clock minus the
// per-phase worker time a real cluster would overlap away (each barrier
// phase costs its slowest worker; nothing when the workers run in
// parallel).
func (d *Dataset) TriAD(buckets int) Engine {
	name := "MsgJoin"
	if buckets > 0 {
		name = "MsgJoin-SG"
	}
	e := d.loadTriAD(buckets)
	return engine{name, func(q *sparql.Query) (int64, time.Duration, error) {
		start := time.Now()
		n, err := e.Count(q)
		return n, max(time.Since(start)-e.SerialExcess(), 0), err
	}}
}

// RowEngine is an engine that materializes decoded result rows, the form
// differential tests diff against the reference oracle. Timing harnesses
// use Engine (silent counts); correctness harnesses use RowEngine.
type RowEngine interface {
	Name() string
	Evaluate(q *sparql.Query) ([][]string, error)
}

type rowEngine struct {
	name string
	fn   func(q *sparql.Query) ([][]string, error)
}

func (e rowEngine) Name() string                                 { return e.name }
func (e rowEngine) Evaluate(q *sparql.Query) ([][]string, error) { return e.fn(q) }

// PARJRows returns a row-materializing PARJ engine running with opts — the
// engine the differential matrix builds for every point of its strategy ×
// workers × morsel size × join operator axes. x, when non-nil, plans with
// hierarchy expansion (RDFS entailment); pass nil for plain BGP semantics.
func (d *Dataset) PARJRows(name string, opts core.Options, x optimizer.Expander) RowEngine {
	st, ss := d.Store()
	return rowEngine{name, func(q *sparql.Query) ([][]string, error) {
		plan, err := optimizer.OptimizeExpanded(q, st, ss, x)
		if err != nil {
			return nil, err
		}
		res, err := core.Execute(st, plan, opts)
		if err != nil {
			return nil, err
		}
		return res.StringRows(st), nil
	}}
}

// HashJoinRows returns the row-materializing form of the RDFox-like
// baseline.
func (d *Dataset) HashJoinRows() RowEngine {
	return rowEngine{"hashjoin", d.loadHashJoin().Evaluate}
}

// RDF3XRows returns the row-materializing form of the RDF-3X-like baseline.
func (d *Dataset) RDF3XRows() RowEngine {
	return rowEngine{"rdf3x", d.loadRDF3X().Evaluate}
}

// BTreeRows returns an RDF-3X-like baseline over deliberately tiny B+ tree
// pages, so that every scan and sideways skip crosses many page boundaries
// — the configuration that stresses the btree cursor logic itself rather
// than the join order.
func (d *Dataset) BTreeRows(pageSize int) RowEngine {
	e := rdf3x.LoadWithPageSize(d.Triples, pageSize)
	return rowEngine{"btree", e.Evaluate}
}

// TriADRows returns the row-materializing form of the TriAD-like baseline;
// buckets > 0 selects summary-graph pruning, as in TriAD.
func (d *Dataset) TriADRows(buckets int) RowEngine {
	name := "triad"
	if buckets > 0 {
		name = "triad-sg"
	}
	return rowEngine{name, d.loadTriAD(buckets).Evaluate}
}

package difftest

import (
	"fmt"
	"math/rand"
	"strings"

	"parj/internal/core"
	"parj/internal/rdf"
	"parj/internal/rdfs"
	"parj/internal/reference"
	"parj/internal/sparql"
)

// Config controls one differential run.
type Config struct {
	// Seed makes the whole run reproducible: datasets, queries, and skip
	// decisions are all derived from it.
	Seed int64
	// Datasets is the number of generated datasets (default 25).
	Datasets int
	// QueriesPerDataset is the target number of completed query pairs per
	// dataset (default 8).
	QueriesPerDataset int
	// MaxTriples bounds dataset size (default 300).
	MaxTriples int
	// Workers overrides the worker-count axis; nil selects WorkerCounts().
	Workers []int
	// OracleBudget caps the naive oracle's backtracking cost per query;
	// over-budget pairs are skipped deterministically (default 2e6).
	OracleBudget int64
	// MaxOracleRows skips pairs whose full result exceeds this many rows,
	// keeping engine evaluation time bounded (default 20000).
	MaxOracleRows int
	// NoShrink reports failures raw instead of minimizing them (the
	// shrinker re-evaluates engines many times; tests that only assert
	// "no failures" never pay the cost either way).
	NoShrink bool
	// MaxFailures stops the run early once this many failures were
	// collected (default 5).
	MaxFailures int
	// Log, when non-nil, receives per-dataset progress lines.
	Log func(format string, args ...any)
}

func (c *Config) fill() {
	if c.Datasets <= 0 {
		c.Datasets = 25
	}
	if c.QueriesPerDataset <= 0 {
		c.QueriesPerDataset = 8
	}
	if c.MaxTriples <= 0 {
		c.MaxTriples = 300
	}
	if c.OracleBudget <= 0 {
		c.OracleBudget = defaultLimits.budget
	}
	if c.MaxOracleRows <= 0 {
		c.MaxOracleRows = defaultLimits.maxRows
	}
	if c.MaxFailures <= 0 {
		c.MaxFailures = 5
	}
}

func (c *Config) limits() limits { return limits{budget: c.OracleBudget, maxRows: c.MaxOracleRows} }

// Failure is one detected divergence between an engine configuration and
// the oracle (or a violated metamorphic invariant) while replaying a case.
type Failure struct {
	Engine string
	Case   *Case
	// OpIndex is the case position of the diverging query (or erroring
	// op); -1 when the engine could not be built.
	OpIndex int
	Diff    string
	// Repro is a ready-to-paste Go regression test over the shrunk case;
	// empty when shrinking was disabled or the failure came from a
	// metamorphic check.
	Repro string
}

func (f *Failure) String() string {
	at := fmt.Sprintf("op %d", f.OpIndex)
	if f.OpIndex >= 0 && f.Case.Ops[f.OpIndex].Query != "" {
		at += fmt.Sprintf(" %q", f.Case.Ops[f.OpIndex].Query)
	}
	return fmt.Sprintf("engine %s, case seed %d (%d base triples, %d ops), %s: %s",
		f.Engine, f.Case.Seed, len(f.Case.Base), len(f.Case.Ops), at, f.Diff)
}

// Report summarizes a run.
type Report struct {
	Datasets int
	// Pairs is the number of completed (dataset, query) pairs of the read
	// cases — each one diffed on its whole engine matrix.
	Pairs int
	// Checkpoints counts the (engine, query op) comparisons of the write
	// cases.
	Checkpoints int
	// EngineRuns counts every (engine, query) comparison, reads and
	// writes alike.
	EngineRuns int
	// Skipped counts queries abandoned by the oracle limits or refused by
	// a governance policy.
	Skipped  int
	Failures []Failure
}

// writeCaseEvery spaces the write cases: dataset i yields one when
// i%writeCaseEvery == 1, its ops four times the per-dataset query quota.
const writeCaseEvery = 4

// Run executes the differential matrix and returns what it found. Every
// dataset yields a read case on the plain matrix, a second one on the
// entailment matrix when it carries an ontology, and every fourth a write
// case on the writable engines. The same Config always yields the same
// cases (engine-internal goroutine timing may vary; results must not).
func Run(cfg Config) *Report {
	cfg.fill()
	rep := &Report{}
	logf := cfg.Log
	if logf == nil {
		logf = func(string, ...any) {}
	}
	plain, entail := Configs(cfg.Workers), EntailConfigs(cfg.Workers)
	var writable []EngineConfig
	for _, ec := range plain {
		if !ec.ReadOnly {
			writable = append(writable, ec)
		}
	}

	for di := 0; di < cfg.Datasets && len(rep.Failures) < cfg.MaxFailures; di++ {
		dsSeed := cfg.Seed + int64(di+1)*1_000_003
		dsRng := rand.New(rand.NewSource(dsSeed))
		ds := GenDataset(dsRng, DatasetConfig{
			MaxTriples: cfg.MaxTriples,
			// Every fifth dataset goes wide so dictionary IDs straddle
			// posindex anchor boundaries; every third is subject-skewed so
			// the morsel scheduler sees hot keys; every seventh is dense so
			// cyclic patterns close and the WCOJ operator does real work.
			Wide:   di%5 == 4,
			Skewed: di%3 == 2,
			Dense:  di%7 == 5,
		})
		rep.Datasets++
		c, ans := rep.readCase(&cfg, ds, dsSeed, false)
		rep.run(&cfg, plain, c, ans)
		if ds.HasOntology() {
			c, ans := rep.readCase(&cfg, ds, dsSeed, true)
			rep.run(&cfg, entail, c, ans)
		}
		if di%writeCaseEvery == 1 {
			c := GenWriteCase(rand.New(rand.NewSource(dsSeed^1<<41)), ds, 4*cfg.QueriesPerDataset)
			c.Seed = dsSeed
			ans, skipped, opIdx, err := cfg.limits().answers(c, false)
			rep.Skipped += skipped
			if err != nil {
				rep.Failures = append(rep.Failures, Failure{Engine: "sparql-parse", Case: c, OpIndex: opIdx, Diff: err.Error()})
			} else {
				rep.run(&cfg, writable, c, ans)
			}
		}
		logf("dataset %d/%d (seed %d, %d triples, ontology %v): %d pairs, %d checkpoints, %d engine runs, %d failures",
			di+1, cfg.Datasets, dsSeed, len(ds.Triples), ds.HasOntology(), rep.Pairs, rep.Checkpoints, rep.EngineRuns, len(rep.Failures))
	}
	return rep
}

// readCase draws the read case of one dataset: generated queries the
// oracle answers within its limits, up to the per-dataset quota (a third
// of it for entailment). Every plain query also passes the metamorphic
// checks.
func (rep *Report) readCase(cfg *Config, ds *Dataset, dsSeed int64, entail bool) (*Case, []*answer) {
	quota := cfg.QueriesPerDataset
	oracleTriples := ds.Triples
	var meta *parjEngine
	if entail {
		quota = quota/3 + 1
		oracleTriples = rdfs.ForwardChain(ds.Triples, "", "", "")
	} else {
		meta = newPARJ(ds.Triples, core.Options{Threads: 2, Strategy: core.AdaptiveBinary}, false)
	}
	c := &Case{Seed: dsSeed, Base: ds.Triples}
	var ans []*answer
	for qi := 0; len(c.Ops) < quota && qi < quota*4 && len(rep.Failures) < cfg.MaxFailures; qi++ {
		qSeed := dsSeed ^ (int64(qi+1) * 7919)
		if entail {
			qSeed ^= 1 << 40
		}
		qRng := rand.New(rand.NewSource(qSeed))
		var q *Query
		if entail {
			q = GenEntailQuery(qRng, ds)
		} else {
			q = GenQuery(qRng, ds)
		}
		a, err := cfg.limits().ask(q.Src(), oracleTriples)
		if err != nil {
			rep.Failures = append(rep.Failures, Failure{
				Engine: "sparql-parse", Case: queryCase(dsSeed, ds.Triples, q.Src()), Diff: err.Error(),
			})
			continue
		}
		if a == nil {
			rep.Skipped++
			continue
		}
		c.Ops = append(c.Ops, Op{Query: q.Src()})
		ans = append(ans, a)
		rep.Pairs++
		if meta != nil {
			rep.Failures = append(rep.Failures, metamorphicChecks(qRng, meta, c, q, a.q, len(c.Ops) == 1)...)
		}
	}
	return c, ans
}

// run replays c on every engine of configs against the oracle's answers
// ans, shrinking each divergence into a repro unless cfg.NoShrink.
func (rep *Report) run(cfg *Config, configs []EngineConfig, c *Case, ans []*answer) {
	writes := c.hasWrites()
	for _, ec := range configs {
		if len(rep.Failures) >= cfg.MaxFailures {
			return
		}
		opIdx, diff, checks, skipped := replay(ec, c, ans)
		rep.EngineRuns += checks
		if writes {
			rep.Checkpoints += checks
		}
		rep.Skipped += skipped
		if diff == "" {
			continue
		}
		f := Failure{Engine: ec.Name, Case: c, OpIndex: opIdx, Diff: diff}
		if !cfg.NoShrink {
			f.Repro = FormatRepro(Shrink(c, ec, cfg.OracleBudget, cfg.MaxOracleRows), ec.Name)
		}
		rep.Failures = append(rep.Failures, f)
	}
}

// Compare diffs an engine's result against the oracle's under the query's
// semantics. The oracle ignores positive LIMITs (it computes the complete
// result), so limited queries are checked by containment: the engine must
// return exactly min(LIMIT, |full result|) rows, each of which occurs in
// the full result with sufficient multiplicity. Everything else is an exact
// multiset comparison. It returns "" on agreement.
func Compare(q *sparql.Query, want, got [][]string) string {
	if q.HasLimit && q.Limit > 0 {
		exp := q.Limit
		if len(want) < exp {
			exp = len(want)
		}
		if len(got) != exp {
			return fmt.Sprintf("LIMIT %d over %d total rows: want %d rows, got %d",
				q.Limit, len(want), exp, len(got))
		}
		wm := reference.Multiset(want)
		for _, r := range got {
			k := strings.Join(r, "\x00")
			wm[k]--
			if wm[k] < 0 {
				return fmt.Sprintf("LIMIT %d: row [%s] not in the full result (or returned too often)",
					q.Limit, strings.Join(r, " | "))
			}
		}
		return ""
	}
	return reference.DiffMultisets(want, got)
}

// CheckRepro replays a shrunk case — base triples, then ops — on the named
// engine configuration and on the oracle, failing the test on any
// divergence. Regression tests recorded from shrunk failures call this.
func CheckRepro(t testingTB, base []rdf.Triple, ops []Op, engine string) {
	t.Helper()
	ec, err := FindConfig(engine)
	if err != nil {
		t.Fatal(err)
		return
	}
	checkCase(t, &Case{Base: base, Ops: ops}, ec)
}

// checkCase is CheckRepro on a resolved configuration.
func checkCase(t testingTB, c *Case, ec EngineConfig) {
	t.Helper()
	if opIdx, diff := defaultLimits.check(ec, c); diff != "" {
		t.Errorf("engine %s, op %d: %s", ec.Name, opIdx, diff)
	}
}

// testingTB is the subset of testing.TB CheckRepro needs; declaring it here
// keeps the testing package out of the non-test build.
type testingTB interface {
	Helper()
	Fatal(args ...any)
	Fatalf(format string, args ...any)
	Errorf(format string, args ...any)
}

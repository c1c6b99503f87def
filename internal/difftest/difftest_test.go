package difftest

import (
	"flag"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"parj/internal/core"
	"parj/internal/optimizer"
	"parj/internal/rdf"
	"parj/internal/reference"
	"parj/internal/sparql"
	"parj/internal/stats"
	"parj/internal/store"
)

// -long widens the matrix well past the default smoke run:
//
//	go test ./internal/difftest/ -long -timeout 30m
var long = flag.Bool("long", false, "run the large differential matrix")

// matrix is the one seed-matrix run: TestDifferentialMatrix asserts its read
// cases and TestWriteMatrix its write cases, and whichever runs first pays
// for it. Deterministic for the fixed seed.
var matrix struct {
	once sync.Once
	rep  *Report
}

// matrixReport returns the seed-matrix run, running it on first use.
func matrixReport(t *testing.T) *Report {
	matrix.once.Do(func() {
		cfg := Config{Seed: 1}
		if *long {
			cfg.Datasets = 150
			cfg.QueriesPerDataset = 20
		}
		if testing.Verbose() {
			cfg.Log = t.Logf
		}
		matrix.rep = Run(cfg)
	})
	rep := matrix.rep
	t.Logf("datasets=%d pairs=%d checkpoints=%d engineRuns=%d skipped=%d failures=%d",
		rep.Datasets, rep.Pairs, rep.Checkpoints, rep.EngineRuns, rep.Skipped, len(rep.Failures))
	return rep
}

// reportFailures fails t on every failure of rep from a write case (writes)
// or from a read case (!writes).
func reportFailures(t *testing.T, rep *Report, writes bool) {
	t.Helper()
	for i := range rep.Failures {
		f := &rep.Failures[i]
		if f.Case.hasWrites() != writes {
			continue
		}
		t.Errorf("%s", f.String())
		if f.Repro != "" {
			t.Logf("shrunk repro:\n%s", f.Repro)
		}
	}
}

// TestDifferentialMatrix is the read half of the seed-matrix smoke run:
// every engine configuration against the oracle on hundreds of (dataset,
// query) pairs.
func TestDifferentialMatrix(t *testing.T) {
	rep := matrixReport(t)
	if rep.Pairs < 200 {
		t.Errorf("completed only %d pairs, want >= 200 (skipped %d)", rep.Pairs, rep.Skipped)
	}
	reportFailures(t, rep, false)
}

// TestWriteMatrix is the write half of the seed-matrix smoke run: seeded
// write cases replayed on every writable engine configuration (PARJ across
// the strategy/worker/join matrix, background auto-reconcile, and the
// loopback cluster write path), diffed against the mutable oracle at every
// query.
func TestWriteMatrix(t *testing.T) {
	rep := matrixReport(t)
	if rep.Checkpoints < 100 {
		t.Errorf("completed only %d write checkpoints, want >= 100 (skipped %d)", rep.Checkpoints, rep.Skipped)
	}
	reportFailures(t, rep, true)
}

// TestDeterminism re-runs a slice of the matrix — read and write cases —
// with the same seed and requires identical reports, as repro-ability
// depends on it.
func TestDeterminism(t *testing.T) {
	cfg := Config{Seed: 42, Datasets: 4, QueriesPerDataset: 4, NoShrink: true}
	a, b := Run(cfg), Run(cfg)
	fp := func(r *Report) string {
		s := fmt.Sprintf("pairs=%d checkpoints=%d runs=%d skipped=%d", r.Pairs, r.Checkpoints, r.EngineRuns, r.Skipped)
		for i := range r.Failures {
			s += "\n" + r.Failures[i].String()
		}
		return s
	}
	if fp(a) != fp(b) {
		t.Errorf("same seed, different reports:\n--- first\n%s\n--- second\n%s", fp(a), fp(b))
	}
	if a.Checkpoints == 0 {
		t.Errorf("no write checkpoints in %s", fp(a))
	}
}

// corrupt wraps an Engine and tampers with its results — the harness
// self-check: a matrix that cannot flag these corruptions would be testing
// nothing.
type corrupt struct {
	Engine
	mode string // "drop", "dup", "mutate"
}

func (c corrupt) Evaluate(q *sparql.Query) ([][]string, error) {
	rows, err := c.Engine.Evaluate(q)
	if err != nil || len(rows) == 0 {
		return rows, err
	}
	switch c.mode {
	case "drop":
		return rows[1:], nil
	case "dup":
		return append(rows, rows[0]), nil
	default: // mutate
		out := append([][]string(nil), rows...)
		out[0] = append([]string(nil), out[0]...)
		out[0][0] = "<corrupted>"
		return out, nil
	}
}

// recorder is a testingTB that records instead of failing, so a
// self-check can require that a repro does fail.
type recorder struct{ errs []string }

func (r *recorder) Helper()           {}
func (r *recorder) Fatal(args ...any) { r.errs = append(r.errs, fmt.Sprint(args...)) }
func (r *recorder) Fatalf(format string, a ...any) {
	r.errs = append(r.errs, fmt.Sprintf(format, a...))
}
func (r *recorder) Errorf(format string, a ...any) {
	r.errs = append(r.errs, fmt.Sprintf(format, a...))
}

// requireRepro replays a shrunk case through the repro path: it must still
// fail on bad and pass on the correct configuration named good.
func requireRepro(t *testing.T, small *Case, bad EngineConfig, good string) {
	t.Helper()
	var onBad, onGood recorder
	checkCase(&onBad, small, bad)
	if len(onBad.errs) == 0 {
		t.Errorf("shrunk case no longer fails on %s:\n%s", bad.Name, FormatRepro(small, bad.Name))
	}
	CheckRepro(&onGood, small.Base, small.Ops, good)
	if len(onGood.errs) > 0 {
		t.Errorf("shrunk case fails on the correct engine %s: %v", good, onGood.errs)
	}
}

// TestHarnessCatchesCorruptEngine injects row drops, duplicates and
// mutations behind a correct engine and requires a diff for each, then
// checks the shrinker still reproduces (and does not grow) the failure.
func TestHarnessCatchesCorruptEngine(t *testing.T) {
	// Find a deterministic (dataset, query) pair with a healthy result
	// size and no LIMIT (a drop behind LIMIT can legitimately hide).
	var (
		ds     *Dataset
		q      *Query
		parsed *sparql.Query
		want   [][]string
	)
	for seed := int64(1); ; seed++ {
		if seed > 500 {
			t.Fatal("no suitable (dataset, query) pair found in 500 seeds")
		}
		rng := rand.New(rand.NewSource(seed))
		ds = GenDataset(rng, DatasetConfig{MaxTriples: 120})
		q = GenQuery(rng, ds)
		if q.HasLimit {
			continue
		}
		var err error
		parsed, err = sparql.Parse(q.Src())
		if err != nil {
			t.Fatalf("parse %q: %v", q.Src(), err)
		}
		var ok bool
		want, ok = reference.EvaluateBudget(parsed, ds.Triples, 1_000_000)
		if ok && len(want) >= 3 && len(want) <= 200 {
			break
		}
	}

	hashjoin, err := FindConfig("hashjoin")
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []string{"drop", "dup", "mutate"} {
		t.Run(mode, func(t *testing.T) {
			ec := EngineConfig{
				Name:     "corrupt-" + mode,
				ReadOnly: true,
				Make: func(base []rdf.Triple) (Engine, error) {
					inner, err := hashjoin.Make(base)
					return corrupt{inner, mode}, err
				},
			}
			eng, err := ec.Make(ds.Triples)
			if err != nil {
				t.Fatal(err)
			}
			got, err := eng.Evaluate(parsed)
			if err != nil {
				t.Fatal(err)
			}
			diff := Compare(parsed, want, got)
			if diff == "" {
				t.Fatalf("corruption %q not detected on %q", mode, q.Src())
			}
			t.Logf("detected: %s", diff)

			small := Shrink(queryCase(ds.Seed, ds.Triples, q.Src()), ec, 1_000_000, 20_000)
			sq, err := sparql.Parse(small.Ops[0].Query)
			if err != nil {
				t.Fatal(err)
			}
			if len(small.Ops) != 1 || len(small.Base) > len(ds.Triples) || len(sq.Patterns) > len(q.Patterns) {
				t.Errorf("shrink grew the repro: %d->%d triples, %d->%d patterns, %d ops",
					len(ds.Triples), len(small.Base), len(q.Patterns), len(sq.Patterns), len(small.Ops))
			}
			requireRepro(t, small, ec, hashjoin.Name)
			t.Logf("shrunk to %d triples (from %d), query %q", len(small.Base), len(ds.Triples), small.Ops[0].Query)
		})
	}
}

// TestFindConfigRoundTrip pins the one engine-name grammar: every
// generated configuration resolves to itself, names from a wider host than
// this one resolve, and malformed names — trailing garbage included — are
// rejected.
func TestFindConfigRoundTrip(t *testing.T) {
	all := append(Configs(nil), EntailConfigs(nil)...)
	all = append(all, MorselConfigs(nil, nil)...)
	all = append(all, WCOJConfigs(nil)...)
	for _, c := range all {
		got, err := FindConfig(c.Name)
		if err != nil {
			t.Errorf("FindConfig(%q): %v", c.Name, err)
			continue
		}
		if got.Name != c.Name || got.Entail != c.Entail || got.ReadOnly != c.ReadOnly {
			t.Errorf("FindConfig(%q) = {%q, entail %v, read-only %v}, want {%q, entail %v, read-only %v}",
				c.Name, got.Name, got.Entail, got.ReadOnly, c.Name, c.Entail, c.ReadOnly)
		}
	}
	for _, tc := range []struct {
		name string
		ok   bool
	}{
		// A repro recorded on a wider host than this one must replay
		// anywhere: every grammar — plain, entail, morsel-bounded, and
		// join-forced — with worker counts no host here has.
		{"parj-AdBinary-w64", true},
		{"parj-entail-Index-w8", true},
		{"parj-AdIndex-w16-m7", true},
		{"parj-wcoj-AdBinary-w64", true},
		{"parj-pipe-Index-w8-m7", true},
		{"parj-auto-AdIndex-w3", true},
		{"parj-entail-wcoj-AdIndex-w16", true},
		{"parj-Index-w7", true},
		{"parj-wcoj-AdBinary-w3", true},
		{"parj-NoSuch-w2", false},
		{"parj-AdBinary-w0", false},
		{"nonsense", false},
		{"no-such-engine", false},
		{"parj-wcoj-NoSuch-w2", false},
		{"parj-wcoj-AdBinary-w0", false},
		{"parj-wcoj-w2", false},
		{"parj-AdBinary-w2junk", false},
		{"parj-Index-w 3", false},
		{"parj-AdBinary-w+3", false},
		{"parj-AdBinary-w2-m07", false},
		{"live-AdBinary-w2junk", false},
		{"live-Index-w 3", false},
	} {
		if _, err := FindConfig(tc.name); (err == nil) != tc.ok {
			t.Errorf("FindConfig(%q): err %v, want resolved %v", tc.name, err, tc.ok)
		}
	}
}

// TestFindWriteConfig requires every configuration name — worker counts
// this host does not enumerate included — to resolve to a factory whose
// engine takes writes exactly when the configuration is writable: a shrunk
// write case's repro replays through it.
func TestFindWriteConfig(t *testing.T) {
	names := []string{"parj-Index-w7", "parj-wcoj-AdBinary-w3"}
	for _, ec := range Configs(nil) {
		names = append(names, ec.Name)
	}
	c := &Case{
		Base: []rdf.Triple{{S: "<a>", P: "<p>", O: "<b>"}},
		Ops: []Op{
			{Inserts: []rdf.Triple{{S: "<a>", P: "<p>", O: "<c>"}}, Deletes: []rdf.Triple{{S: "<a>", P: "<p>", O: "<b>"}}},
			{Query: "SELECT ?o WHERE { <a> <p> ?o }"},
			{Reconcile: true},
			{Query: "SELECT ?o WHERE { <a> <p> ?o }"},
		},
	}
	writable := 0
	for _, name := range names {
		ec, err := FindConfig(name)
		if err != nil {
			t.Errorf("FindConfig(%q): %v", name, err)
			continue
		}
		_, diff := defaultLimits.check(ec, c)
		switch {
		case ec.ReadOnly && !strings.HasPrefix(diff, "apply: "):
			t.Errorf("read-only %s took a write batch: %q", name, diff)
		case !ec.ReadOnly && diff != "":
			t.Errorf("writable %s: %s", name, diff)
		case !ec.ReadOnly:
			writable++
		}
	}
	if writable < len(names)/2 {
		t.Errorf("only %d of %d configurations writable", writable, len(names))
	}
}

// TestStringRowsMatchesDecode: Result.StringRows decodes a result as one
// batch; over generated datasets and queries (predicate variables, literals,
// DISTINCT and LIMIT among them) it must equal the per-row Decode loop.
func TestStringRowsMatchesDecode(t *testing.T) {
	queries, rows := 0, 0
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ds := GenDataset(rng, DatasetConfig{MaxTriples: 150})
		st := store.LoadTriples(ds.Triples, store.BuildOptions{})
		ss := stats.New(st)
		for i := 0; i < 8; i++ {
			src := GenQuery(rng, ds).Src()
			parsed, err := sparql.Parse(src)
			if err != nil {
				t.Fatalf("parse %q: %v", src, err)
			}
			plan, err := optimizer.Optimize(parsed, st, ss)
			if err != nil {
				continue // a shape the optimizer rejects has no rows to decode
			}
			res, err := core.Execute(st, plan, core.Options{Threads: 2, MaxResultRows: 200_000})
			if err != nil {
				continue // a cross product past the row budget
			}
			got := res.StringRows(st)
			if len(got) != len(res.Rows) {
				t.Fatalf("seed %d %q: %d decoded rows for %d ID rows", seed, src, len(got), len(res.Rows))
			}
			for r, row := range res.Rows {
				if want := res.Decode(st, row); !reflect.DeepEqual(got[r], want) {
					t.Fatalf("seed %d %q: row %d decodes to %q, Decode gives %q", seed, src, r, got[r], want)
				}
			}
			queries++
			rows += len(got)
		}
	}
	if queries < 100 || rows < 1000 {
		t.Fatalf("corpus too thin to pin anything: %d queries, %d rows", queries, rows)
	}
}

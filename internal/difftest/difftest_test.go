package difftest

import (
	"flag"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"parj/internal/bench"
	"parj/internal/core"
	"parj/internal/optimizer"
	"parj/internal/reference"
	"parj/internal/sparql"
	"parj/internal/stats"
	"parj/internal/store"
)

// -long widens the matrix well past the default smoke run:
//
//	go test ./internal/difftest/ -long -timeout 30m
var long = flag.Bool("long", false, "run the large differential matrix")

// TestDifferentialMatrix is the seed-matrix smoke run: every engine
// configuration against the oracle on hundreds of (dataset, query) pairs.
// Deterministic for the fixed seed.
func TestDifferentialMatrix(t *testing.T) {
	cfg := Config{Seed: 1}
	if *long {
		cfg.Datasets = 150
		cfg.QueriesPerDataset = 20
	}
	if testing.Verbose() {
		cfg.Log = t.Logf
	}
	rep := Run(cfg)
	t.Logf("datasets=%d pairs=%d engineRuns=%d skipped=%d failures=%d",
		rep.Datasets, rep.Pairs, rep.EngineRuns, rep.Skipped, len(rep.Failures))
	if rep.Pairs < 200 {
		t.Errorf("completed only %d pairs, want >= 200 (skipped %d)", rep.Pairs, rep.Skipped)
	}
	for i := range rep.Failures {
		f := &rep.Failures[i]
		t.Errorf("%s", f.String())
		if f.Repro != "" {
			t.Logf("shrunk repro:\n%s", f.Repro)
		}
	}
}

// TestDeterminism re-runs a slice of the matrix with the same seed and
// requires identical reports, as repro-ability depends on it.
func TestDeterminism(t *testing.T) {
	cfg := Config{Seed: 42, Datasets: 4, QueriesPerDataset: 4, NoShrink: true}
	a, b := Run(cfg), Run(cfg)
	fp := func(r *Report) string {
		s := fmt.Sprintf("pairs=%d runs=%d skipped=%d", r.Pairs, r.EngineRuns, r.Skipped)
		for i := range r.Failures {
			s += "\n" + r.Failures[i].String()
		}
		return s
	}
	if fp(a) != fp(b) {
		t.Errorf("same seed, different reports:\n--- first\n%s\n--- second\n%s", fp(a), fp(b))
	}
}

// corrupt wraps a RowEngine and tampers with its results — the harness
// self-check: a matrix that cannot flag these corruptions would be testing
// nothing.
type corrupt struct {
	inner bench.RowEngine
	mode  string // "drop", "dup", "mutate"
}

func (c corrupt) Name() string { return "corrupt-" + c.mode }

func (c corrupt) Evaluate(q *sparql.Query) ([][]string, error) {
	rows, err := c.inner.Evaluate(q)
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

	for _, mode := range []string{"drop", "dup", "mutate"} {
		mode := mode
		t.Run(mode, func(t *testing.T) {
			ec := EngineConfig{
				Name: "corrupt-" + mode,
				Make: func(d *bench.Dataset) bench.RowEngine {
					return corrupt{inner: d.HashJoinRows(), mode: mode}
				},
			}
			got, err := ec.Make(bench.NewDataset(ds.Triples, 2)).Evaluate(parsed)
			if err != nil {
				t.Fatal(err)
			}
			diff := Compare(parsed, want, got)
			if diff == "" {
				t.Fatalf("corruption %q not detected on %q", mode, q.Src())
			}
			t.Logf("detected: %s", diff)

			st, sq := Shrink(ds.Triples, q, ec, 1_000_000, 20_000)
			if len(st) > len(ds.Triples) || len(sq.Patterns) > len(q.Patterns) {
				t.Errorf("shrink grew the repro: %d->%d triples, %d->%d patterns",
					len(ds.Triples), len(st), len(q.Patterns), len(sq.Patterns))
			}
			t.Logf("shrunk to %d triples (from %d), query %q", len(st), len(ds.Triples), sq.Src())
		})
	}
}

// TestFindConfigRoundTrip resolves every generated configuration name plus
// a name from a wider host than this one.
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
		if got.Name != c.Name || got.Entail != c.Entail {
			t.Errorf("FindConfig(%q) = {%q, entail %v}, want {%q, entail %v}",
				c.Name, got.Name, got.Entail, c.Name, c.Entail)
		}
	}
	// A repro recorded on a wider host than this one must replay anywhere:
	// every grammar — plain, entail, morsel-bounded, and join-forced — with
	// worker counts no host here has.
	for _, name := range []string{
		"parj-AdBinary-w64",
		"parj-entail-Index-w8",
		"parj-AdIndex-w16-m7",
		"parj-wcoj-AdBinary-w64",
		"parj-pipe-Index-w8-m7",
		"parj-auto-AdIndex-w3",
		"parj-entail-wcoj-AdIndex-w16",
	} {
		if _, err := FindConfig(name); err != nil {
			t.Errorf("FindConfig(%q): %v", name, err)
		}
	}
	for _, name := range []string{
		"parj-NoSuch-w2", "parj-AdBinary-w0", "nonsense",
		"parj-wcoj-NoSuch-w2", "parj-wcoj-AdBinary-w0", "parj-wcoj-w2",
	} {
		if _, err := FindConfig(name); err == nil {
			t.Errorf("FindConfig(%q) unexpectedly resolved", name)
		}
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

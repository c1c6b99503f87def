package difftest

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"parj/internal/rdf"
	"parj/internal/sparql"
)

// TestWriteScheduleShape checks the generator keeps its structural
// promises: every reconcile is followed by a query checkpoint, the schedule
// ends on a reconcile+query pair, and the churn the harness exists for
// (duplicate inserts, deletes, same-batch delete+reinsert) actually occurs.
func TestWriteScheduleShape(t *testing.T) {
	var dupIns, sameBatchChurn, dels int
	for seed := int64(1); seed <= 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ds := GenDataset(rng, DatasetConfig{MaxTriples: 150})
		sched := GenWriteCase(rng, ds, 40)
		if len(sched.Base) == 0 {
			t.Fatalf("seed %d: empty base", seed)
		}
		for i := range sched.Ops {
			op := &sched.Ops[i]
			if op.Reconcile {
				if i+1 >= len(sched.Ops) || sched.Ops[i+1].Query == "" {
					t.Fatalf("seed %d: reconcile at op %d has no checkpoint query", seed, i)
				}
			}
			seen := map[rdf.Triple]bool{}
			for _, tr := range op.Inserts {
				if seen[tr] {
					dupIns++
				}
				seen[tr] = true
			}
			dels += len(op.Deletes)
			for _, tr := range op.Deletes {
				for _, ins := range op.Inserts {
					if tr == ins {
						sameBatchChurn++
					}
				}
			}
		}
		n := len(sched.Ops)
		if n < 2 || !sched.Ops[n-2].Reconcile || sched.Ops[n-1].Query == "" {
			t.Fatalf("seed %d: schedule does not end with reconcile+query", seed)
		}
	}
	if dels == 0 || sameBatchChurn == 0 {
		t.Errorf("generator produced no churn: dels=%d sameBatchChurn=%d", dels, sameBatchChurn)
	}
}

// TestWriteDeterminism: the same seed draws the same write cases, and
// every writable engine — background reconciliation and the cluster among
// them — replays each to the same verdict twice; a write failure's repro
// depends on both.
func TestWriteDeterminism(t *testing.T) {
	draw := func(seed int64) *Case {
		rng := rand.New(rand.NewSource(seed))
		return GenWriteCase(rng, GenDataset(rng, DatasetConfig{MaxTriples: 150}), 15)
	}
	checks := 0
	for seed := int64(42); seed < 44; seed++ {
		c := draw(seed)
		if !reflect.DeepEqual(c, draw(seed)) {
			t.Fatalf("seed %d: same seed, different write cases", seed)
		}
		ans, _, _, err := defaultLimits.answers(c, false)
		if err != nil {
			t.Fatal(err)
		}
		for _, ec := range Configs([]int{2}) {
			if ec.ReadOnly {
				continue
			}
			verdict := func() string {
				opIdx, diff, n, skipped := replay(ec, c, ans)
				checks += n
				return fmt.Sprintf("op %d, %d checks, %d skipped: %q", opIdx, n, skipped, diff)
			}
			if a, b := verdict(), verdict(); a != b {
				t.Errorf("seed %d, %s: same case, different verdicts:\n%s\n%s", seed, ec.Name, a, b)
			}
		}
	}
	if checks == 0 {
		t.Error("no write checkpoints compared")
	}
}

// lossyConfig wraps the correct engine good in dropDeletes.
func lossyConfig(good EngineConfig) EngineConfig {
	return EngineConfig{Name: "lossy", Make: func(base []rdf.Triple) (Engine, error) {
		inner, err := good.Make(base)
		return &dropDeletes{inner}, err
	}}
}

// dropDeletes is the minimal broken engine used by the self-checks.
type dropDeletes struct{ Engine }

func (e *dropDeletes) Apply(inserts, deletes []rdf.Triple) error {
	return e.Engine.Apply(inserts, nil)
}

// TestWriteHarnessCatchesLossyEngine is the harness self-check: an engine
// that drops deletes must produce a divergence, and the shrinker must
// reduce the failing case without losing the failure.
func TestWriteHarnessCatchesLossyEngine(t *testing.T) {
	good, err := FindConfig("parj-AdBinary-w2")
	if err != nil {
		t.Fatal(err)
	}
	bad := lossyConfig(good)

	// Find a case where dropping deletes is observable.
	for seed := int64(1); ; seed++ {
		if seed > 200 {
			t.Fatal("no case exposed the lossy engine in 200 seeds")
		}
		rng := rand.New(rand.NewSource(seed))
		ds := GenDataset(rng, DatasetConfig{MaxTriples: 120})
		c := GenWriteCase(rng, ds, 30)
		opIdx, diff := defaultLimits.check(bad, c)
		if diff == "" {
			continue
		}

		// Sanity: the correct engine passes the same case.
		if _, d := defaultLimits.check(good, c); d != "" {
			t.Fatalf("correct engine diverged on seed %d: %s", seed, d)
		}

		small := Shrink(c, bad, defaultLimits.budget, defaultLimits.maxRows)
		if len(small.Ops) > len(c.Ops) || len(small.Base) > len(c.Base) {
			t.Fatalf("shrinker grew the case: ops %d -> %d, base %d -> %d",
				len(c.Ops), len(small.Ops), len(c.Base), len(small.Base))
		}
		requireRepro(t, small, bad, good.Name)
		repro := FormatRepro(small, good.Name)
		for _, want := range []string{"CheckRepro(t, base, ops,", "[]Op{", good.Name} {
			if !strings.Contains(repro, want) {
				t.Errorf("repro missing %q:\n%s", want, repro)
			}
		}
		t.Logf("seed %d: failure at op %d shrank %d -> %d ops, %d -> %d base triples",
			seed, opIdx, len(c.Ops), len(small.Ops), len(c.Base), len(small.Base))
		return
	}
}

// TestShrinkSimplifiesQueriesInWriteCases: a lossy engine's divergence
// shows on a three-pattern DISTINCT/LIMIT query after a delete, and the
// shrinker must reduce that query op too — one pattern already shows the
// surviving triple — not only drop ops and base triples.
func TestShrinkSimplifiesQueriesInWriteCases(t *testing.T) {
	good, err := FindConfig("parj-AdBinary-w2")
	if err != nil {
		t.Fatal(err)
	}
	bad := lossyConfig(good)
	c := &Case{
		Base: []rdf.Triple{
			{S: "<a>", P: "<p>", O: "<b>"},
			{S: "<b>", P: "<q>", O: "<c>"},
			{S: "<c>", P: "<r>", O: "<d>"},
			{S: "<e>", P: "<p>", O: "<f>"},
			{S: "<f>", P: "<r>", O: "<g>"},
		},
		Ops: []Op{
			{Inserts: []rdf.Triple{{S: "<x>", P: "<q>", O: "<y>"}}},
			{Query: "SELECT * WHERE { ?s <p> ?o }"},
			{Deletes: []rdf.Triple{{S: "<a>", P: "<p>", O: "<b>"}}},
			{Reconcile: true},
			{Query: "SELECT DISTINCT ?x WHERE { ?x <p> ?y . ?y <q> ?z . ?z <r> ?w } LIMIT 5"},
		},
	}
	if _, d := defaultLimits.check(good, c); d != "" {
		t.Fatalf("correct engine diverged: %s", d)
	}
	if _, d := defaultLimits.check(bad, c); d == "" {
		t.Fatal("lossy engine not detected")
	}
	small := Shrink(c, bad, defaultLimits.budget, defaultLimits.maxRows)
	requireRepro(t, small, bad, good.Name)
	var queries []*sparql.Query
	for _, op := range small.Ops {
		if op.Query != "" {
			q, err := sparql.Parse(op.Query)
			if err != nil {
				t.Fatal(err)
			}
			queries = append(queries, q)
		}
	}
	if len(queries) != 1 {
		t.Fatalf("shrunk case keeps %d queries, want 1:\n%s", len(queries), FormatRepro(small, bad.Name))
	}
	if q := queries[0]; len(q.Patterns) >= 3 || q.Distinct || q.HasLimit {
		t.Errorf("shrunk query %q not simplified from %q", sparql.Format(q), c.Ops[4].Query)
	}
	t.Logf("shrunk to:\n%s", FormatRepro(small, bad.Name))
}

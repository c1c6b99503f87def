package store

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"parj/internal/rdf"
)

// tripleSet collects a store's triples as decoded strings, for semantic
// comparison between a merged store and one built from scratch.
func tripleSet(t *testing.T, st *Store) map[rdf.Triple]bool {
	t.Helper()
	out := make(map[rdf.Triple]bool, st.NumTriples())
	for p := 1; p <= st.NumPredicates(); p++ {
		pred := st.Predicates.Decode(uint32(p))
		so := st.SO(uint32(p))
		for i, k := range so.Keys {
			s := st.Resources.Decode(k)
			for _, o := range so.Run(i) {
				tr := rdf.Triple{S: s, P: pred, O: st.Resources.Decode(o)}
				if out[tr] {
					t.Fatalf("duplicate triple %v in S-O tables", tr)
				}
				out[tr] = true
			}
		}
	}
	return out
}

// osTripleCount sums the O-S replica's triples, which must mirror S-O.
func osTripleCount(st *Store) int {
	n := 0
	for p := 1; p <= st.NumPredicates(); p++ {
		n += st.OS(uint32(p)).NumTriples()
	}
	return n
}

func checkTablesSorted(t *testing.T, st *Store) {
	t.Helper()
	for p := 1; p <= st.NumPredicates(); p++ {
		for _, tab := range []*Table{st.SO(uint32(p)), st.OS(uint32(p))} {
			if !sort.SliceIsSorted(tab.Keys, func(i, j int) bool { return tab.Keys[i] < tab.Keys[j] }) {
				t.Fatalf("predicate %d: keys not sorted", p)
			}
			for i := range tab.Keys {
				run := tab.Run(i)
				if !sort.SliceIsSorted(run, func(a, b int) bool { return run[a] < run[b] }) {
					t.Fatalf("predicate %d key %d: run not sorted", p, tab.Keys[i])
				}
			}
		}
	}
}

func TestDeltaVerdictSemantics(t *testing.T) {
	d := &Delta{}
	if !d.Empty() {
		t.Fatal("zero delta not empty")
	}
	ins, del := Verdict{S: 1, P: 1, O: 2, Insert: true}, Verdict{S: 1, P: 1, O: 2}
	d = d.With([]Verdict{ins, ins}) // duplicate insert: set semantics
	adds, dels := d.Counts()
	if adds != 1 || dels != 0 {
		t.Fatalf("after double insert: adds=%d dels=%d, want 1,0", adds, dels)
	}
	if d.Ops() != 2 {
		t.Fatalf("Ops = %d, want 2 (ops count verdicts, not net pairs)", d.Ops())
	}
	d = d.With([]Verdict{del}) // delete moves the pair from adds to dels
	adds, dels = d.Counts()
	if adds != 0 || dels != 1 {
		t.Fatalf("after delete: adds=%d dels=%d, want 0,1", adds, dels)
	}
	d = d.With([]Verdict{ins}) // reinsert: tombstone removed, add restored
	adds, dels = d.Counts()
	if adds != 1 || dels != 0 {
		t.Fatalf("after reinsert: adds=%d dels=%d, want 1,0 (no resurrection ambiguity)", adds, dels)
	}

	// Within one call the last verdict on a pair wins too, and the
	// receiver never observes the new version.
	e := d.With([]Verdict{del, ins, del, {S: 2, P: 3, O: 4, Insert: true}})
	if adds, dels := e.Counts(); adds != 1 || dels != 1 || e.Ops() != d.Ops()+4 {
		t.Fatalf("after delete, reinsert, delete and a new pair: adds=%d dels=%d ops=%d", adds, dels, e.Ops())
	}
	if adds, dels := d.Counts(); adds != 1 || dels != 0 || d.NumPredicates() != 1 {
		t.Fatal("With changed its receiver")
	}
}

// TestDeltaWith drives random verdict sequences — one pair repeated inside
// a call and across calls, predicates named out of order, empty calls —
// through With and holds every version to a map of last verdicts. Each call
// must also leave its receiver and its argument as they were, share the
// receiver's arrays for every predicate the call does not name, and keep
// adds and dels sorted and disjoint.
func TestDeltaWith(t *testing.T) {
	type key struct{ p, s, o uint32 }
	snapshot := func(d *Delta) ([][]uint64, [][]uint64) {
		if d == nil {
			return nil, nil
		}
		var adds, dels [][]uint64
		for p := range d.adds {
			adds, dels = append(adds, slices.Clone(d.adds[p])), append(dels, slices.Clone(d.dels[p]))
		}
		return adds, dels
	}
	for round := 0; round < 60; round++ {
		rng := rand.New(rand.NewSource(int64(round)))
		oracle := map[key]bool{} // pair → last verdict was an insert
		var d *Delta
		ops := 0
		for call := 0; call < 25; call++ {
			vs := make([]Verdict, rng.Intn(14))
			for i := range vs {
				vs[i] = Verdict{S: uint32(1 + rng.Intn(5)), P: uint32(1 + rng.Intn(6)), O: uint32(1 + rng.Intn(3)), Insert: rng.Intn(2) == 0}
				if i > 0 && rng.Intn(4) == 0 {
					vs[i].S, vs[i].P, vs[i].O = vs[i-1].S, vs[i-1].P, vs[i-1].O // the same pair again
				}
			}
			arg := slices.Clone(vs)
			wasAdds, wasDels := snapshot(d)
			nd := d.With(vs)
			ops += len(vs)

			if !slices.Equal(vs, arg) {
				t.Fatalf("round %d call %d: With reordered its argument", round, call)
			}
			if adds, dels := snapshot(d); !slices.EqualFunc(adds, wasAdds, slices.Equal) || !slices.EqualFunc(dels, wasDels, slices.Equal) {
				t.Fatalf("round %d call %d: With changed its receiver", round, call)
			}
			named := map[uint32]bool{}
			for _, v := range vs {
				named[v.P] = true
				oracle[key{v.P, v.S, v.O}] = v.Insert
			}
			for p := 0; p < d.NumPredicates(); p++ {
				if named[uint32(p+1)] {
					continue
				}
				for _, pair := range [][2][]uint64{{nd.adds[p], d.adds[p]}, {nd.dels[p], d.dels[p]}} {
					if len(pair[0]) != len(pair[1]) || len(pair[0]) > 0 && &pair[0][0] != &pair[1][0] {
						t.Fatalf("round %d call %d: untouched predicate %d does not share the receiver's arrays", round, call, p+1)
					}
				}
			}

			if nd.Ops() != ops {
				t.Fatalf("round %d call %d: Ops = %d, want %d", round, call, nd.Ops(), ops)
			}
			got := map[key]bool{}
			for p := range nd.adds {
				for i, in := range []bool{true, false} {
					pairs := [][]uint64{nd.adds[p], nd.dels[p]}[i]
					if !slices.IsSorted(pairs) || len(slices.Compact(slices.Clone(pairs))) != len(pairs) {
						t.Fatalf("round %d call %d: predicate %d pairs not strictly ascending", round, call, p+1)
					}
					for _, pair := range pairs {
						k := key{uint32(p + 1), uint32(pair >> 32), uint32(pair)}
						if _, dup := got[k]; dup {
							t.Fatalf("round %d call %d: %v both added and tombstoned", round, call, k)
						}
						got[k] = in
					}
				}
			}
			if !maps.Equal(got, oracle) {
				t.Fatalf("round %d call %d: delta holds %v, last verdicts are %v", round, call, got, oracle)
			}
			d = nd
		}
	}
}

func TestHasTriple(t *testing.T) {
	st := LoadTriples(paperExample, BuildOptions{})
	teaches := st.Predicates.Lookup("<teaches>")
	profA := st.Resources.Lookup("<ProfessorA>")
	math := st.Resources.Lookup("<Mathematics>")
	chem := st.Resources.Lookup("<Chemistry>")
	if !st.HasTriple(profA, teaches, math) {
		t.Fatal("present triple reported absent")
	}
	if st.HasTriple(profA, teaches, chem) {
		t.Fatal("absent triple reported present")
	}
	// Out-of-range predicate and unknown IDs must be safe, not panic.
	if st.HasTriple(profA, 0, math) || st.HasTriple(profA, uint32(st.NumPredicates()+5), math) {
		t.Fatal("out-of-range predicate reported present")
	}
}

func TestApplyDeltaSharesUntouchedTables(t *testing.T) {
	st := LoadTriples(paperExample, BuildOptions{BuildPosIndex: true})
	teaches := st.Predicates.Lookup("<teaches>")
	worksFor := st.Predicates.Lookup("<worksFor>")

	d := (&Delta{}).With([]Verdict{{S: st.Resources.Lookup("<ProfessorB>"), P: teaches, O: st.Resources.Lookup("<Physics>"), Insert: true}})
	merged := ApplyDelta(st, d, InferBuildOptions(st))

	// worksFor untouched: its slices must alias the base store's.
	if &merged.SO(worksFor).Keys[0] != &st.SO(worksFor).Keys[0] {
		t.Error("untouched predicate's S-O keys were rebuilt, want aliased")
	}
	if &merged.OS(worksFor).Vals[0] != &st.OS(worksFor).Vals[0] {
		t.Error("untouched predicate's O-S vals were rebuilt, want aliased")
	}
	// teaches touched: rebuilt storage, one more triple.
	if &merged.SO(teaches).Keys[0] == &st.SO(teaches).Keys[0] {
		t.Error("touched predicate still aliases the base")
	}
	if merged.SO(teaches).NumTriples() != st.SO(teaches).NumTriples()+1 {
		t.Errorf("touched predicate triples = %d, want %d",
			merged.SO(teaches).NumTriples(), st.SO(teaches).NumTriples()+1)
	}
	// The base store is untouched by the merge.
	if st.NumTriples() != len(paperExample) {
		t.Errorf("base store mutated: %d triples", st.NumTriples())
	}
	// Physical shape carried over: position indexes rebuilt for touched tables.
	if merged.SO(teaches).Index == nil {
		t.Error("merged table lost its ID-to-Position index")
	}
}

// TestApplyDeltaEquivalence drives randomized insert/delete batches and
// checks that the merged store holds exactly the effective triple set, that
// both replicas agree, and that a store built from the effective triples
// from scratch answers identically.
func TestApplyDeltaEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	subjects := []string{"<s1>", "<s2>", "<s3>", "<s4>", "<s5>"}
	preds := []string{"<p1>", "<p2>", "<p3>"}
	objects := []string{"<o1>", "<o2>", "<o3>", "<o4>"}
	randTriple := func() rdf.Triple {
		return rdf.Triple{
			S: subjects[rng.Intn(len(subjects))],
			P: preds[rng.Intn(len(preds))],
			O: objects[rng.Intn(len(objects))],
		}
	}

	for round := 0; round < 50; round++ {
		var seed []rdf.Triple
		seen := map[rdf.Triple]bool{}
		for i := 0; i < rng.Intn(20); i++ {
			tr := randTriple()
			if !seen[tr] {
				seen[tr] = true
				seed = append(seed, tr)
			}
		}
		base := LoadTriples(seed, BuildOptions{BuildPosIndex: round%2 == 0})

		// Random verdicts, including terms and predicates the base has
		// never seen (dictionary growth through the shared dicts).
		oracle := map[rdf.Triple]bool{}
		for tr := range seen {
			oracle[tr] = true
		}
		var vs []Verdict
		for i := 0; i < 30; i++ {
			tr := randTriple()
			if rng.Intn(4) == 0 {
				tr.P = fmt.Sprintf("<new-p%d>", rng.Intn(2))
			}
			if rng.Intn(4) == 0 {
				tr.O = fmt.Sprintf("<new-o%d>", rng.Intn(3))
			}
			if rng.Intn(2) == 0 {
				vs = append(vs, Verdict{S: base.Resources.Encode(tr.S), P: base.Predicates.Encode(tr.P), O: base.Resources.Encode(tr.O), Insert: true})
				oracle[tr] = true
			} else {
				s, p, o := base.Resources.Lookup(tr.S), base.Predicates.Lookup(tr.P), base.Resources.Lookup(tr.O)
				if s != 0 && p != 0 && o != 0 {
					vs = append(vs, Verdict{S: s, P: p, O: o})
				}
				delete(oracle, tr)
			}
		}
		d := (&Delta{}).With(vs)

		merged := ApplyDelta(base, d, InferBuildOptions(base))
		got := tripleSet(t, merged)
		if len(got) != len(oracle) {
			t.Fatalf("round %d: merged has %d triples, oracle %d", round, len(got), len(oracle))
		}
		for tr := range oracle {
			if !got[tr] {
				t.Fatalf("round %d: merged missing %v", round, tr)
			}
		}
		if merged.NumTriples() != len(oracle) {
			t.Fatalf("round %d: NumTriples = %d, want %d", round, merged.NumTriples(), len(oracle))
		}
		if osTripleCount(merged) != len(oracle) {
			t.Fatalf("round %d: O-S replica has %d triples, want %d", round, osTripleCount(merged), len(oracle))
		}
		checkTablesSorted(t, merged)

		// The residual of the applied delta against its own merge is empty.
		if res := d.Prune(merged); !res.Empty() {
			t.Fatalf("round %d: residual after merge not empty: %+v", round, res)
		}

		// HasTriple agrees with the oracle over the whole universe.
		for _, s := range subjects {
			for _, p := range preds {
				for _, o := range objects {
					tr := rdf.Triple{S: s, P: p, O: o}
					sid, pid, oid := merged.Resources.Lookup(s), merged.Predicates.Lookup(p), merged.Resources.Lookup(o)
					has := sid != 0 && pid != 0 && oid != 0 && merged.HasTriple(sid, pid, oid)
					if has != oracle[tr] {
						t.Fatalf("round %d: HasTriple(%v) = %v, oracle %v", round, tr, has, oracle[tr])
					}
				}
			}
		}
	}
}

func TestPruneResidual(t *testing.T) {
	st := LoadTriples(paperExample, BuildOptions{})
	teaches := st.Predicates.Lookup("<teaches>")
	profA := st.Resources.Lookup("<ProfessorA>")
	math := st.Resources.Lookup("<Mathematics>")
	phys := st.Resources.Lookup("<Physics>")
	novel := st.Resources.Encode("<Robotics>")

	d := (&Delta{}).With([]Verdict{
		{S: profA, P: teaches, O: math, Insert: true},  // already in base: prunes away
		{S: profA, P: teaches, O: phys},                // in base: survives as tombstone
		{S: profA, P: teaches, O: novel, Insert: true}, // not in base: survives as add
		{S: profA, P: teaches, O: novel},               // verdict flips: tombstone of absent pair prunes
	})

	res := d.Prune(st)
	adds, dels := res.Counts()
	if adds != 0 || dels != 1 {
		t.Fatalf("residual adds=%d dels=%d, want 0,1", adds, dels)
	}
	if res.Ops() != 1 {
		t.Fatalf("residual Ops = %d, want net pair count 1", res.Ops())
	}
	if !st.HasTriple(profA, teaches, phys) {
		t.Fatal("precondition: base should contain the tombstoned pair")
	}
}

func TestInferBuildOptions(t *testing.T) {
	with := LoadTriples(paperExample, BuildOptions{BuildPosIndex: true})
	without := LoadTriples(paperExample, BuildOptions{})
	if !InferBuildOptions(with).BuildPosIndex {
		t.Error("indexed store inferred as unindexed")
	}
	if InferBuildOptions(without).BuildPosIndex {
		t.Error("unindexed store inferred as indexed")
	}
}

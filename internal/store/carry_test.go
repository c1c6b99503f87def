package store

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"parj/internal/rdf"
	"parj/internal/search"
)

// rebuiltSnapshot is the reference a carried store is held to: the snapshot
// bytes of a store built by the Builder from the effective triples alone,
// over dictionaries pre-seeded in ID order (a snapshot embeds the
// dictionaries, and a live store's have grown in write order).
func rebuiltSnapshot(t testing.TB, like *Store, triples map[rdf.Triple]bool, opts BuildOptions) []byte {
	t.Helper()
	b := NewBuilder()
	for _, s := range like.Resources.SnapshotStrings() {
		b.Resources().Encode(s)
	}
	for _, s := range like.Predicates.SnapshotStrings() {
		b.Predicates().Encode(s)
	}
	for tr := range triples {
		b.AddTriple(tr)
	}
	st := b.Build(opts)
	// A predicate the dictionary knows but no triple uses has a slot in a
	// carried store and none in the builder's: pad, as LoadSnapshot would.
	for st.NumPredicates() < like.NumPredicates() {
		so, os := buildCSR(nil), buildCSR(nil)
		finishTable(&so, opts, st.Resources.MaxID())
		finishTable(&os, opts, st.Resources.MaxID())
		st.so, st.os = append(st.so, so), append(st.os, os)
	}
	return savedBytes(t, st)
}

func savedBytes(t testing.TB, st *Store) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := st.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestCarryForwardMatchesRebuild is the store-level half of the
// carry-forward property: over random verdict sequences (duplicate inserts,
// delete-then-reinsert, emptied keys, an emptied table, brand-new
// predicates and terms, position index on and off, default and configured
// windows), a store carried forward every k-th version — from the previous
// carried store and the difference of the two deltas — saves to exactly the
// bytes of a store built from the effective triples, and so does the
// from-the-base materialization of the same delta.
func TestCarryForwardMatchesRebuild(t *testing.T) {
	for round := 0; round < 40; round++ {
		rng := rand.New(rand.NewSource(int64(round)))
		opts := BuildOptions{BuildPosIndex: round%2 == 0}
		if round%5 == 4 {
			opts.BinaryWindow, opts.IndexWindow = 64, 6
		}
		term := func(prefix string, n int) string { return fmt.Sprintf("<%s%d>", prefix, rng.Intn(n)) }
		randTriple := func() rdf.Triple {
			return rdf.Triple{S: term("s", 12), P: term("p", 3), O: term("o", 8)}
		}
		oracle := map[rdf.Triple]bool{}
		var seed []rdf.Triple
		for i := 0; i < rng.Intn(40); i++ {
			tr := randTriple()
			if !oracle[tr] {
				oracle[tr] = true
				seed = append(seed, tr)
			}
		}
		base := LoadTriples(seed, opts)
		k := []int{1, 3, 17}[round%3]

		d := &Delta{}
		prev, from := base, (*Delta)(nil)
		for step := 1; step <= 60; step++ {
			d = d.Clone()
			for i := 0; i < 1+rng.Intn(6); i++ {
				tr := randTriple()
				switch rng.Intn(8) {
				case 0:
					tr.P = term("new-p", 2) // a predicate the base never had
				case 1:
					tr.S = term("new-s", 5) // dictionary growth
				}
				if step%20 == 0 {
					tr.P = "<p0>" // with the deletes below: empty a whole table
				}
				del := rng.Intn(2) == 0 || step%20 == 0
				if del {
					s, p, o := base.Resources.Lookup(tr.S), base.Predicates.Lookup(tr.P), base.Resources.Lookup(tr.O)
					if s != 0 && p != 0 && o != 0 {
						d.Delete(s, p, o)
					}
					delete(oracle, tr)
				} else {
					d.Insert(base.Resources.Encode(tr.S), base.Predicates.Encode(tr.P), base.Resources.Encode(tr.O))
					oracle[tr] = true
				}
			}
			if step%20 == 0 {
				for tr := range oracle {
					if tr.P == "<p0>" {
						d.Delete(base.Resources.Lookup(tr.S), base.Predicates.Lookup(tr.P), base.Resources.Lookup(tr.O))
						delete(oracle, tr)
					}
				}
			}
			if step%k != 0 {
				continue
			}
			carried := CarryForward(prev, from, d, opts)
			want := rebuiltSnapshot(t, carried, oracle, opts)
			if got := savedBytes(t, carried); !bytes.Equal(got, want) {
				t.Fatalf("round %d step %d (k=%d): carried store differs from a rebuild of the effective triples", round, step, k)
			}
			if got := savedBytes(t, ApplyDelta(base, d, opts)); !bytes.Equal(got, want) {
				t.Fatalf("round %d step %d: base + whole delta differs from a rebuild of the effective triples", round, step)
			}
			if carried.NumTriples() != len(oracle) {
				t.Fatalf("round %d step %d: NumTriples = %d, oracle %d", round, step, carried.NumTriples(), len(oracle))
			}
			checkTablesSorted(t, carried)
			for p := 1; p <= carried.NumPredicates(); p++ {
				if (carried.SO(uint32(p)).Index != nil) != opts.BuildPosIndex {
					t.Fatalf("round %d step %d: predicate %d index presence != BuildPosIndex %v", round, step, p, opts.BuildPosIndex)
				}
			}
			prev, from = carried, d
		}
	}
}

// TestDeltaCloneIsPersistentPerPredicate: a clone shares every predicate's
// arrays with its parent and copies only the predicate it writes, and the
// parent never observes the write.
func TestDeltaCloneIsPersistentPerPredicate(t *testing.T) {
	d := &Delta{}
	for i := uint32(1); i <= 100; i++ {
		d.Insert(i, 1, i+1)
		d.Delete(i, 2, i+1)
	}
	c := d.Clone()
	if &c.adds[0][0] != &d.adds[0][0] || &c.dels[1][0] != &d.dels[1][0] {
		t.Fatal("clone copied arrays before writing them")
	}
	c.Insert(7, 1, 1) // sorts before every pair of predicate 1
	c.Delete(3, 1, 4) // removes a shared pair in place — on the copy only
	if &c.adds[0][0] == &d.adds[0][0] {
		t.Fatal("written predicate still shares its adds with the parent")
	}
	if &c.dels[1][0] != &d.dels[1][0] {
		t.Fatal("untouched predicate was copied")
	}
	if adds, dels := d.Counts(); adds != 100 || dels != 100 || d.adds[0][0] != 1<<32|2 || d.adds[0][2] != 3<<32|4 {
		t.Fatalf("parent observed the clone's writes: %d adds %d dels, first %x", adds, dels, d.adds[0][0])
	}
	if adds, dels := c.Counts(); adds != 100 || dels != 101 {
		t.Fatalf("clone holds %d adds %d dels, want 100 and 101", adds, dels)
	}
	// The difference a carry-forward merges is exactly what the clone wrote.
	if got := diffPairs(c.adds[0], d.adds[0]); len(got) != 1 || got[0] != 7<<32|1 {
		t.Fatalf("adds difference = %x, want the one new pair", got)
	}
	if got := diffPairs(c.dels[1], d.dels[1]); got != nil {
		t.Fatalf("shared arrays differ: %x", got)
	}
}

// TestMergeCarriesWindowsAndNeverCalibrates: a merged table keeps the
// search windows of the table it replaces — configured ones, and calibrated
// ones even when the merge is handed Calibrate (the timing-based Algorithm 2
// belongs to the load, not to a read) — with thresholds re-derived over the
// new key range; only a predicate with no table yet takes opts' windows.
func TestMergeCarriesWindowsAndNeverCalibrates(t *testing.T) {
	var triples []rdf.Triple
	for i := 0; i < 3000; i++ {
		triples = append(triples, rdf.Triple{S: fmt.Sprintf("<s%d>", i), P: "<p>", O: fmt.Sprintf("<o%d>", i%700)})
	}
	for _, opts := range []BuildOptions{
		{BinaryWindow: 37, IndexWindow: 5, BuildPosIndex: true},
		{Calibrate: true, BuildPosIndex: true},
	} {
		base := LoadTriples(triples, opts)
		p := base.Predicates.Lookup("<p>")
		d := &Delta{}
		for i := 0; i < 64; i++ { // widen the key range on both replicas
			d.Insert(base.Resources.Encode(fmt.Sprintf("<late-s%d>", i)), p, base.Resources.Encode(fmt.Sprintf("<late-o%d>", i)))
		}
		d.Insert(base.Resources.Encode("<x>"), base.Predicates.Encode("<fresh>"), base.Resources.Encode("<y>"))
		merged := ApplyDelta(base, d, BuildOptions{Calibrate: opts.Calibrate, BuildPosIndex: true})
		for _, pair := range [][2]*Table{{base.SO(p), merged.SO(p)}, {base.OS(p), merged.OS(p)}} {
			was, now := pair[0], pair[1]
			if now.BinaryWindow != was.BinaryWindow || now.IndexWindow != was.IndexWindow {
				t.Errorf("%+v: merged windows %d/%d, table had %d/%d", opts, now.BinaryWindow, now.IndexWindow, was.BinaryWindow, was.IndexWindow)
			}
			if now.Threshold != search.ValueThreshold(now.Keys, int(was.BinaryWindow)) ||
				now.IndexThreshold != search.ValueThreshold(now.Keys, int(was.IndexWindow)) {
				t.Errorf("%+v: merged thresholds %d/%d not derived from the carried windows over the new keys", opts, now.Threshold, now.IndexThreshold)
			}
			if opts.BinaryWindow != 0 && now.Threshold == was.Threshold {
				t.Errorf("%+v: threshold %d unchanged although the key range widened: the check above is vacuous", opts, now.Threshold)
			}
		}
		if opts.BinaryWindow != 0 && int(base.SO(p).BinaryWindow) != opts.BinaryWindow {
			t.Errorf("built table window %d, configured %d", base.SO(p).BinaryWindow, opts.BinaryWindow)
		}
		fresh := merged.SO(merged.Predicates.Lookup("<fresh>"))
		if fresh.BinaryWindow != search.DefaultBinaryWindow || fresh.IndexWindow != search.DefaultIndexWindow || fresh.Index == nil {
			t.Errorf("new predicate shaped %d/%d index %v, want the merge options' defaults and an index", fresh.BinaryWindow, fresh.IndexWindow, fresh.Index != nil)
		}
	}
}

// TestSnapshotRecoversWindows: the snapshot format stores thresholds only;
// loading recovers the windows they came from, so a store that went through
// Save/LoadSnapshot merges exactly like the one that was saved.
func TestSnapshotRecoversWindows(t *testing.T) {
	var triples []rdf.Triple
	for i := 0; i < 500; i++ {
		triples = append(triples, rdf.Triple{S: fmt.Sprintf("<s%d>", i*i%977), P: fmt.Sprintf("<p%d>", i%3), O: fmt.Sprintf("<o%d>", i%41)})
	}
	for _, opts := range []BuildOptions{{}, {BinaryWindow: 37, IndexWindow: 5}, {BuildPosIndex: true, BinaryWindow: 1000, IndexWindow: 1}} {
		built := LoadTriples(triples, opts)
		loaded, err := LoadSnapshot(bytes.NewReader(savedBytes(t, built)))
		if err != nil {
			t.Fatal(err)
		}
		for p := 1; p <= built.NumPredicates(); p++ {
			for i, pair := range [][2]*Table{{built.SO(uint32(p)), loaded.SO(uint32(p))}, {built.OS(uint32(p)), loaded.OS(uint32(p))}} {
				if pair[0].BinaryWindow != pair[1].BinaryWindow || pair[0].IndexWindow != pair[1].IndexWindow {
					t.Errorf("%+v predicate %d replica %d: loaded windows %d/%d, built %d/%d", opts, p, i,
						pair[1].BinaryWindow, pair[1].IndexWindow, pair[0].BinaryWindow, pair[0].IndexWindow)
				}
			}
		}
	}
}

package live

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"parj/internal/dict"
	"parj/internal/rdf"
	"parj/internal/search"
	"parj/internal/store"
	"parj/internal/wal"
)

func saved(t *testing.T, st *store.Store) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := st.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// rebuilt saves a store built by the Builder from the effective triples
// alone, over dictionaries pre-seeded in the live store's ID order (a
// snapshot embeds the dictionaries; the live ones grew in write order).
func rebuilt(t *testing.T, like *store.Store, triples map[rdf.Triple]bool, opts store.BuildOptions) []byte {
	t.Helper()
	b := store.NewBuilder()
	for _, d := range [][2]*dict.Dict{{like.Resources, b.Resources()}, {like.Predicates, b.Predicates()}} {
		v := d[0].SnapshotStrings()
		for id := uint32(1); id <= uint32(v.Len()); id++ {
			d[1].Encode(v.At(id))
		}
	}
	for tr := range triples {
		b.AddTriple(tr)
	}
	st := b.Build(opts)
	if last := uint32(like.NumPredicates()); st.NumPredicates() < int(last) {
		// The newest predicates have lost every triple: a live store keeps
		// their (empty) tables, the Builder never made them. Tombstoning an
		// absent pair pads the reference with the missing empty tables and
		// shares every table the Builder did make.
		d := (&store.Delta{}).With([]store.Verdict{{S: 1, P: last, O: 1}})
		st = store.ApplyDelta(st, d, opts)
	}
	return saved(t, st)
}

func copyOracle(m map[rdf.Triple]bool) map[rdf.Triple]bool {
	out := make(map[rdf.Triple]bool, len(m))
	for k := range m {
		out[k] = true
	}
	return out
}

// TestCarryForwardEqualsRebuild is the carry-forward property at the handle:
// random insert/delete batch sequences — duplicate inserts, delete-then-
// reinsert in one batch, keys and a whole table emptied, brand-new
// predicates and terms, position index on and off — with a reader that
// materializes every k-th view (k ∈ {1, 3, 17}), a reader that pins a view
// and materializes it only after the handle's memo has moved past it, and a
// reconcile in mid-sequence. Every materialized store saves to exactly the
// bytes of a store built from that view's effective triples: however many
// carries, base restarts and reconciles lie behind it.
func TestCarryForwardEqualsRebuild(t *testing.T) {
	for round := 0; round < 36; round++ {
		rng := rand.New(rand.NewSource(int64(1000 + round)))
		opts := store.BuildOptions{BuildPosIndex: round%2 == 0}
		k := []int{1, 3, 17}[round%3]
		term := func(prefix string, n int) string { return fmt.Sprintf("<%s%d>", prefix, rng.Intn(n)) }
		randTriple := func() rdf.Triple {
			return rdf.Triple{S: term("s", 14), P: term("p", 3), O: term("o", 9)}
		}
		oracle := map[rdf.Triple]bool{}
		var seed []rdf.Triple
		for i := 0; i < 5+rng.Intn(40); i++ {
			if tr := randTriple(); !oracle[tr] {
				oracle[tr] = true
				seed = append(seed, tr)
			}
		}
		st := store.LoadTriples(seed, opts)
		h := New(st, nil, store.InferBuildOptions(st))

		check := func(what string, step int, v *View, want map[rdf.Triple]bool) {
			t.Helper()
			eff := v.Store()
			if !bytes.Equal(saved(t, eff), rebuilt(t, eff, want, opts)) {
				t.Fatalf("round %d step %d (k=%d, index=%v): %s differs from a rebuild of its effective triples",
					round, step, k, opts.BuildPosIndex, what)
			}
			if eff.NumTriples() != len(want) {
				t.Fatalf("round %d step %d: %s holds %d triples, oracle %d", round, step, what, eff.NumTriples(), len(want))
			}
		}

		var pinned *View
		var pinnedOracle map[rdf.Triple]bool
		for step := 1; step <= 70; step++ {
			var ins, dels []rdf.Triple
			for i := 0; i < 1+rng.Intn(6); i++ {
				tr := randTriple()
				switch rng.Intn(10) {
				case 0:
					tr.P = term("new-p", 2) // a predicate the base never had
				case 1:
					tr.S = term("new-s", 6) // dictionary growth
				}
				switch rng.Intn(5) {
				case 0, 1:
					ins = append(ins, tr) // often a duplicate of a live triple
				case 2:
					dels = append(dels, tr)
				case 3:
					dels, ins = append(dels, tr), append(ins, tr) // delete-then-reinsert
				default:
					for o := range oracle { // empty one subject's key in some table
						if o.S == tr.S && o.P == tr.P {
							dels = append(dels, o)
						}
					}
				}
			}
			if step%25 == 0 { // empty a whole table
				for o := range oracle {
					if o.P == "<p1>" {
						dels = append(dels, o)
					}
				}
				ins = nil
			}
			if _, err := h.Apply(0, ins, dels); err != nil {
				t.Fatal(err)
			}
			for _, tr := range dels {
				delete(oracle, tr)
			}
			for _, tr := range ins {
				oracle[tr] = true
			}

			if step == 20 || step == 50 {
				pinned, pinnedOracle = h.View(), copyOracle(oracle) // pinned, not yet materialized
			}
			if step%k == 0 {
				check("the current view", step, h.View(), oracle)
			}
			if step == 30 || step == 60 {
				// The memo has moved past the pinned view (k=17: not even
				// that); its late materialization starts from the base.
				check("a reader pinned to an older view", step, pinned, pinnedOracle)
			}
			if step == 40 {
				rv := h.Reconcile()
				if rv.Pending() != 0 {
					t.Fatalf("round %d: %d pending after reconcile", round, rv.Pending())
				}
				check("the reconciled base", step, rv, oracle)
			}
		}
		check("the final view", 71, h.View(), oracle)
	}
}

// TestOnlyLatestMaterializationRetained: with reconciliation off, a writer
// and one reader that materializes every view leave O(1) merged stores
// reachable from the handle — the memo is one pointer, not a chain through
// the views, so each carried store dies with the view that produced it.
func TestOnlyLatestMaterializationRetained(t *testing.T) {
	h := newHandle(t)
	h.SetAutoReconcile(0)
	const writes = 300
	var freed atomic.Int64
	for i := 0; i < writes; i++ {
		h.Apply(0, []rdf.Triple{{S: fmt.Sprintf("<n%d>", i), P: "<p>", O: "<x>"}}, nil)
		eff := h.View().Store()
		if eff.NumTriples() != len(fixture)+i+1 {
			t.Fatalf("after %d writes the view holds %d triples", i+1, eff.NumTriples())
		}
		runtime.SetFinalizer(eff, func(*store.Store) { freed.Add(1) })
	}
	// Reachable now: the current view's store, which is also the memo's.
	// Finalizers run on their own goroutine some time after a collection.
	deadline := time.Now().Add(10 * time.Second)
	for freed.Load() < writes-2 && time.Now().Before(deadline) {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if alive := writes - freed.Load(); alive > 2 {
		t.Fatalf("%d of %d materialized stores still reachable after the writes, want at most 2", alive, writes)
	}
	// A reconcile retires the epoch. The view it merged is the memo at that
	// point; left there it would pin the old base and the whole frozen delta
	// on a handle that then goes quiet.
	var baseFreed atomic.Bool
	runtime.SetFinalizer(h.View().Base(), func(*store.Store) { baseFreed.Store(true) })
	if rv := h.Reconcile(); rv.Pending() != 0 || rv.Store().NumTriples() != len(fixture)+writes {
		t.Fatalf("reconciled view: %d pending, %d triples", rv.Pending(), rv.Store().NumTriples())
	}
	deadline = time.Now().Add(10 * time.Second)
	for !baseFreed.Load() && time.Now().Before(deadline) {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if !baseFreed.Load() {
		t.Fatal("the retired epoch's base is still reachable from the handle after Reconcile")
	}
	runtime.KeepAlive(h)
}

// TestMergedTablesKeepTheirWindows pins "search thresholds belong to the
// table" on the three ways a handle comes to exist: built in process with
// configured windows, loaded from a snapshot with only InferBuildOptions to
// go by, and recovered from a WAL checkpoint plus replay. On each, a table
// rewritten by a merge keeps the windows it was built with — thresholds
// re-derived over the new keys — instead of reverting to the defaults.
func TestMergedTablesKeepTheirWindows(t *testing.T) {
	const bw, iw = 37, 5
	built := store.BuildOptions{BinaryWindow: bw, IndexWindow: iw, BuildPosIndex: true}
	var triples []rdf.Triple
	for i := 0; i < 400; i++ {
		triples = append(triples, rdf.Triple{S: fmt.Sprintf("<s%d>", i), P: "<p>", O: fmt.Sprintf("<o%d>", i%90)})
	}
	write := func(h *Handle) {
		t.Helper()
		var ins []rdf.Triple
		for i := 0; i < 40; i++ {
			ins = append(ins, rdf.Triple{S: fmt.Sprintf("<late-s%d>", i), P: "<p>", O: fmt.Sprintf("<late-o%d>", i)})
		}
		if _, err := h.Apply(0, ins, triples[:10]); err != nil {
			t.Fatal(err)
		}
	}
	check := func(path string, h *Handle) {
		t.Helper()
		for _, v := range []*View{h.View(), h.Reconcile()} {
			st := v.Store()
			p := st.Predicates.Lookup("<p>")
			if st.SO(p).NumKeys() != 400+40-10 {
				t.Fatalf("%s: merged table has %d subjects", path, st.SO(p).NumKeys())
			}
			for _, tab := range []*store.Table{st.SO(p), st.OS(p)} {
				if tab.Threshold != search.ValueThreshold(tab.Keys, bw) || tab.IndexThreshold != search.ValueThreshold(tab.Keys, iw) {
					t.Errorf("%s: merged thresholds %d/%d, want windows %d/%d over the new keys (%d/%d); defaults would give %d/%d",
						path, tab.Threshold, tab.IndexThreshold, bw, iw,
						search.ValueThreshold(tab.Keys, bw), search.ValueThreshold(tab.Keys, iw),
						search.ValueThreshold(tab.Keys, search.DefaultBinaryWindow), search.ValueThreshold(tab.Keys, search.DefaultIndexWindow))
				}
				if tab.Index == nil {
					t.Errorf("%s: merged table lost its position index", path)
				}
			}
		}
	}

	// 1. Built in process: the handle is given the build options.
	h := New(store.LoadTriples(triples, built), nil, built)
	write(h)
	check("built", h)

	// 2. Loaded from a snapshot: parj.LoadSnapshot, remote.NewNode, parj-node.
	loaded, err := store.LoadSnapshot(bytes.NewReader(saved(t, store.LoadTriples(triples, built))))
	if err != nil {
		t.Fatal(err)
	}
	h = New(loaded, nil, store.InferBuildOptions(loaded))
	write(h)
	check("snapshot", h)

	// 3. Recovered: first boot checkpoints the seed, a write lands in the
	// log, and a second process recovers checkpoint + replay with options
	// that no longer name the windows.
	durable := Options{Durability: Durability{FS: wal.NewMemFS()}}
	h, err = Open(durable, func() (*store.Store, uint64, error) { return store.LoadTriples(triples, built), 0, nil }, built)
	if err != nil {
		t.Fatal(err)
	}
	write(h)
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	h, err = Open(durable, nil, store.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	if h.Pending() == 0 {
		t.Fatal("recovery replayed no pending write")
	}
	check("recovered", h)
}

// BenchmarkApplyWideDelta prices the write path when the pending delta is
// wide: 16 predicates × 4096 unreconciled pairs each, reconciliation off
// (the DBOptions default), and a one-triple batch that writes one of them.
// Every term is already in the dictionaries, so "write" is what Apply copies
// of the pending state it did not touch, and "write+read" adds what the next
// materialization spends telling the untouched predicates apart.
func BenchmarkApplyWideDelta(b *testing.B) {
	const preds, pairs = 16, 4096
	for _, read := range []bool{false, true} {
		name := "write"
		if read {
			name = "write+read"
		}
		b.Run(name, func(b *testing.B) {
			h := New(store.LoadTriples([]rdf.Triple{{S: "<s>", P: "<p0>", O: "<o>"}}, store.BuildOptions{}), nil, store.BuildOptions{})
			for p := 0; p < preds; p++ {
				batch := make([]rdf.Triple, pairs)
				for i := range batch {
					batch[i] = rdf.Triple{S: fmt.Sprintf("<s%d>", i), P: fmt.Sprintf("<p%d>", p), O: "<o>"}
				}
				h.Apply(0, batch, nil)
			}
			h.View().Store()
			one := []rdf.Triple{{S: "<s7>", P: "<p3>", O: "<s9>"}}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%2 == 0 {
					h.Apply(0, one, nil)
				} else {
					h.Apply(0, nil, one)
				}
				if read {
					h.View().Store()
				}
			}
		})
	}
}

// BenchmarkOpenDurableReplay prices recovery of a long log suffix: 4096
// batches of 16 inserts (fresh subjects, four predicates, a shared object
// pool) on an in-memory log with no checkpoint, so Open encodes and merges
// every record into one view. The timed part includes opening the log.
func BenchmarkOpenDurableReplay(b *testing.B) {
	const batches, size = 4096, 16
	durable := Options{Durability: Durability{FS: wal.NewMemFS(), Sync: wal.SyncNever}}
	h, err := Open(durable, nil, store.BuildOptions{})
	if err != nil {
		b.Fatal(err)
	}
	for k := 0; k < batches; k++ {
		batch := make([]rdf.Triple, size)
		for i := range batch {
			batch[i] = rdf.Triple{S: fmt.Sprintf("<s%d-%d>", k, i), P: fmt.Sprintf("<p%d>", i%4), O: fmt.Sprintf("<o%d>", (k*size+i)%1000)}
		}
		if _, err := h.Apply(0, batch, nil); err != nil {
			b.Fatal(err)
		}
	}
	if err := h.Close(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h, err := Open(durable, nil, store.BuildOptions{})
		b.StopTimer()
		if err != nil {
			b.Fatal(err)
		}
		if h.Seq() != batches {
			b.Fatalf("recovered at seq %d, want %d", h.Seq(), batches)
		}
		if err := h.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

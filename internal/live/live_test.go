package live

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"parj/internal/rdf"
	"parj/internal/store"
)

var fixture = []rdf.Triple{
	{S: "<a>", P: "<p>", O: "<x>"},
	{S: "<a>", P: "<p>", O: "<y>"},
	{S: "<b>", P: "<p>", O: "<x>"},
	{S: "<b>", P: "<q>", O: "<z>"},
}

func newHandle(t *testing.T) *Handle {
	t.Helper()
	st := store.LoadTriples(fixture, store.BuildOptions{})
	return New(st, nil, store.BuildOptions{})
}

// has resolves a term triple against a view's effective store.
func has(v *View, s, p, o string) bool {
	st := v.Store()
	sid, pid, oid := st.Resources.Lookup(s), st.Predicates.Lookup(p), st.Resources.Lookup(o)
	return sid != 0 && pid != 0 && oid != 0 && st.HasTriple(sid, pid, oid)
}

func TestViewPinning(t *testing.T) {
	h := newHandle(t)
	v1 := h.View()
	if v1.Version() != 1 || v1.Pending() != 0 {
		t.Fatalf("initial view: version=%d pending=%d", v1.Version(), v1.Pending())
	}
	if v1.Store() != v1.Base() {
		t.Fatal("empty-delta view must hand back the base store itself")
	}

	h.Insert([]rdf.Triple{{S: "<c>", P: "<p>", O: "<x>"}})
	h.Delete([]rdf.Triple{{S: "<a>", P: "<p>", O: "<y>"}})

	// The pinned view is frozen at its epoch.
	if has(v1, "<c>", "<p>", "<x>") || !has(v1, "<a>", "<p>", "<y>") {
		t.Fatal("pinned view observed later writes")
	}
	// The current view sees both writes.
	v2 := h.View()
	if !has(v2, "<c>", "<p>", "<x>") || has(v2, "<a>", "<p>", "<y>") {
		t.Fatal("current view missing applied writes")
	}
	if v2.Version() <= v1.Version() {
		t.Fatalf("version did not advance: %d -> %d", v1.Version(), v2.Version())
	}
	if v2.Pending() != 2 {
		t.Fatalf("pending = %d, want 2", v2.Pending())
	}
	if got := v2.ApproxTriples(); got != len(fixture) {
		t.Fatalf("ApproxTriples = %d, want %d (one add, one del)", got, len(fixture))
	}
}

func TestDeleteUnknownTermsIsNoOp(t *testing.T) {
	h := newHandle(t)
	h.Delete([]rdf.Triple{{S: "<never>", P: "<seen>", O: "<before>"}})
	v := h.View()
	if v.Pending() != 0 {
		t.Fatalf("pending = %d, want 0", v.Pending())
	}
	// Deliberately: deleting unknown terms must not pollute the dictionary.
	if v.Base().Resources.Lookup("<never>") != 0 {
		t.Fatal("delete of unknown term grew the resource dictionary")
	}
}

func TestSeqSemantics(t *testing.T) {
	h := newHandle(t)
	ins := []rdf.Triple{{S: "<c>", P: "<p>", O: "<x>"}}

	seq, err := h.Apply(1, ins, nil)
	if err != nil || seq != 1 {
		t.Fatalf("Apply(1) = %d, %v", seq, err)
	}
	// Replay is an idempotent no-op.
	before := h.View().Pending()
	if seq, err = h.Apply(1, ins, nil); err != nil || seq != 1 {
		t.Fatalf("replay Apply(1) = %d, %v", seq, err)
	}
	if h.View().Pending() != before {
		t.Fatal("idempotent replay changed the delta")
	}
	// A gap is refused.
	if _, err = h.Apply(3, ins, nil); !errors.Is(err, ErrSeqGap) {
		t.Fatalf("Apply(3) err = %v, want ErrSeqGap", err)
	}
	// Seq 0 means "next".
	if seq, err = h.Apply(0, ins, nil); err != nil || seq != 2 {
		t.Fatalf("Apply(0) = %d, %v", seq, err)
	}
	if h.Seq() != 2 {
		t.Fatalf("Seq = %d, want 2", h.Seq())
	}
}

func TestSeedSeq(t *testing.T) {
	h := newHandle(t)
	h.SeedSeq(7)
	if h.Seq() != 7 || h.View().Seq() != 7 {
		t.Fatalf("after SeedSeq(7): handle=%d view=%d", h.Seq(), h.View().Seq())
	}
	if _, err := h.Apply(8, []rdf.Triple{{S: "<c>", P: "<p>", O: "<x>"}}, nil); err != nil {
		t.Fatalf("Apply(8) after seed: %v", err)
	}
	// Seeding after writes is refused (stream already in progress).
	h2 := newHandle(t)
	h2.Insert([]rdf.Triple{{S: "<c>", P: "<p>", O: "<x>"}})
	h2.SeedSeq(9)
	if h2.Seq() != 1 {
		t.Fatalf("SeedSeq after writes moved seq to %d", h2.Seq())
	}
}

func TestReconcilePromotesAndPrunes(t *testing.T) {
	h := newHandle(t)
	h.Insert([]rdf.Triple{{S: "<c>", P: "<p>", O: "<x>"}})
	h.Delete([]rdf.Triple{{S: "<b>", P: "<q>", O: "<z>"}})

	v := h.Reconcile()
	if v.Pending() != 0 {
		t.Fatalf("pending after reconcile = %d", v.Pending())
	}
	if v.Store() != v.Base() {
		t.Fatal("reconciled view must serve its base directly")
	}
	if !has(v, "<c>", "<p>", "<x>") || has(v, "<b>", "<q>", "<z>") {
		t.Fatal("reconciled base missing the merged writes")
	}
	if v.Base().NumTriples() != len(fixture) {
		t.Fatalf("reconciled base has %d triples, want %d", v.Base().NumTriples(), len(fixture))
	}
	// Reconcile with nothing pending is a no-op returning the same view.
	if v2 := h.Reconcile(); v2 != v {
		t.Fatal("empty reconcile built a new epoch")
	}
}

func TestReconcileKeepsLateWrites(t *testing.T) {
	h := newHandle(t)
	h.Insert([]rdf.Triple{{S: "<c>", P: "<p>", O: "<x>"}})
	// Force the merge to be memoized on the pre-write view, then land more
	// writes before reconciling — they must survive as the residual.
	v := h.View()
	_ = v.Store()
	h.Insert([]rdf.Triple{{S: "<d>", P: "<p>", O: "<x>"}})
	h.Delete([]rdf.Triple{{S: "<c>", P: "<p>", O: "<x>"}}) // delete a pair the merge contains

	nv := h.Reconcile()
	if has(nv, "<c>", "<p>", "<x>") {
		t.Fatal("delete issued after the merge was lost (resurrection)")
	}
	if !has(nv, "<d>", "<p>", "<x>") {
		t.Fatal("insert issued after the merge was lost")
	}
	// Drain the residual: a second reconcile leaves a clean base.
	final := h.Reconcile()
	if final.Pending() != 0 {
		t.Fatalf("pending after second reconcile = %d", final.Pending())
	}
}

func TestAutoReconcile(t *testing.T) {
	h := newHandle(t)
	h.SetAutoReconcile(3)
	for i := 0; i < 3; i++ {
		h.Insert([]rdf.Triple{{S: fmt.Sprintf("<n%d>", i), P: "<p>", O: "<x>"}})
	}
	h.Quiesce()
	v := h.View()
	if v.Pending() != 0 {
		t.Fatalf("pending after auto reconcile = %d", v.Pending())
	}
	if v.Base().NumTriples() != len(fixture)+3 {
		t.Fatalf("base triples = %d, want %d", v.Base().NumTriples(), len(fixture)+3)
	}
}

// TestConcurrentWritersAndReaders exercises the epoch machinery under the
// race detector: writers, readers materializing views, and reconcilers all
// run concurrently; afterwards the final state matches a serial oracle.
func TestConcurrentWritersAndReaders(t *testing.T) {
	h := newHandle(t)
	h.SetAutoReconcile(8)

	const writers = 4
	const batches = 25
	var writeWg, readWg sync.WaitGroup
	stop := make(chan struct{})

	// Readers: pin views, force materialization, check internal consistency.
	for r := 0; r < 3; r++ {
		readWg.Add(1)
		go func() {
			defer readWg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				v := h.View()
				st := v.Store()
				if st.NumTriples() < 0 {
					t.Error("impossible triple count")
					return
				}
				_ = v.Stats()
			}
		}()
	}

	// Writers: disjoint subject spaces so the final state is deterministic.
	for w := 0; w < writers; w++ {
		writeWg.Add(1)
		go func(w int) {
			defer writeWg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < batches; i++ {
				s := fmt.Sprintf("<w%d-s%d>", w, i)
				h.Insert([]rdf.Triple{{S: s, P: "<p>", O: "<x>"}})
				if rng.Intn(3) == 0 {
					h.Delete([]rdf.Triple{{S: s, P: "<p>", O: "<x>"}})
					h.Insert([]rdf.Triple{{S: s, P: "<p>", O: "<x>"}}) // reinsert
				}
			}
		}(w)
	}

	// A competing explicit reconciler.
	writeWg.Add(1)
	go func() {
		defer writeWg.Done()
		for i := 0; i < 10; i++ {
			h.Reconcile()
		}
	}()

	writeWg.Wait()
	close(stop)
	readWg.Wait()
	h.Quiesce()

	v := h.Reconcile()
	want := len(fixture) + writers*batches
	if v.Base().NumTriples() != want {
		t.Fatalf("final triples = %d, want %d", v.Base().NumTriples(), want)
	}
	for w := 0; w < writers; w++ {
		for i := 0; i < batches; i++ {
			if !has(v, fmt.Sprintf("<w%d-s%d>", w, i), "<p>", "<x>") {
				t.Fatalf("missing triple from writer %d batch %d", w, i)
			}
		}
	}
}

// TestHierarchyPerView: the RDFS closures are a product of the view, like
// Store() and Stats() — derived once however many entailment queries pin
// the view, and derived afresh for the view a schema write publishes, so
// neither epoch can expand against the other's hierarchy.
func TestHierarchyPerView(t *testing.T) {
	const subClassOf = "<http://www.w3.org/2000/01/rdf-schema#subClassOf>"
	st := store.LoadTriples([]rdf.Triple{{S: "<Student>", P: subClassOf, O: "<Person>"}}, store.BuildOptions{})
	h := New(st, nil, store.BuildOptions{})
	subclasses := func(v *View) int {
		return len(v.Hierarchy().SubClasses(v.Store().Resources.Lookup("<Person>")))
	}

	v1 := h.View()
	first := v1.Hierarchy()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if v1.Hierarchy() != first {
				t.Error("one view derived its hierarchy twice")
			}
		}()
	}
	wg.Wait()

	h.Insert([]rdf.Triple{{S: "<Freshman>", P: subClassOf, O: "<Student>"}})
	v2 := h.View()
	if v2.Hierarchy() == first {
		t.Fatal("the view after a schema write reuses the previous view's hierarchy")
	}
	if got1, got2 := subclasses(v1), subclasses(v2); got1 != 2 || got2 != 3 {
		t.Fatalf("Person has %d subclasses on the pinned view and %d after the write, want 2 and 3", got1, got2)
	}
}

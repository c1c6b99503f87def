package live

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"parj/internal/dict"
	"parj/internal/rdf"
	"parj/internal/store"
	"parj/internal/wal"
)

// recoverRecords is a write stream whose replay needs the whole protocol:
// a delete and a reinsert of one triple in different records and in one
// record, a duplicate insert inside one record, a delete naming a term that
// only a later record inserts (so the delete must find the term unknown), a
// record introducing a new predicate, then seeded random records over a
// small universe that keeps growing the dictionaries.
func recoverRecords() []wal.Record {
	t := func(s, p, o string) rdf.Triple { return rdf.Triple{S: s, P: p, O: o} }
	recs := []wal.Record{
		{Inserts: []rdf.Triple{t("<c>", "<p>", "<x>"), t("<d>", "<p>", "<y>"), t("<c>", "<p>", "<x>")}},
		{Deletes: []rdf.Triple{t("<c>", "<p>", "<x>"), t("<late>", "<p>", "<x>"), t("<a>", "<p>", "<late-o>")}},
		{Inserts: []rdf.Triple{t("<c>", "<p>", "<x>"), t("<b>", "<fresh>", "<z>")}, Deletes: []rdf.Triple{t("<a>", "<p>", "<y>")}},
		{Inserts: []rdf.Triple{t("<late>", "<p>", "<x>"), t("<a>", "<p>", "<late-o>")}},
		{Inserts: []rdf.Triple{t("<b>", "<q>", "<z>")}, Deletes: []rdf.Triple{t("<b>", "<q>", "<z>")}},
	}
	rng := rand.New(rand.NewSource(7))
	term := func(prefix string, n int) string { return fmt.Sprintf("<%s%d>", prefix, rng.Intn(n)) }
	for i := 0; i < 60; i++ {
		var rec wal.Record
		for j := 0; j < 1+rng.Intn(8); j++ {
			tr := t(term("s", 10), term("p", 4), term("o", 6))
			if rng.Intn(2) == 0 {
				rec.Inserts = append(rec.Inserts, tr)
			} else {
				rec.Deletes = append(rec.Deletes, tr)
			}
		}
		recs = append(recs, rec)
	}
	return recs
}

// TestRecoverEqualsLiveApply: a handle recovered through Open — the
// whole suffix replayed past the seed's checkpoint, or past a checkpoint
// cut mid-stream — holds exactly what a volatile handle holds after Apply
// of the same records one at a time: the same write position, the same
// dictionary IDs for every term, and, once both are reconciled, the same
// snapshot bytes.
func TestRecoverEqualsLiveApply(t *testing.T) {
	recs := recoverRecords()
	want := New(store.LoadTriples(fixture, store.BuildOptions{}), nil, store.BuildOptions{})
	for _, rec := range recs {
		if _, err := want.Apply(0, rec.Inserts, rec.Deletes); err != nil {
			t.Fatal(err)
		}
	}
	wantBytes := saved(t, want.Reconcile().Store())

	for _, cut := range []int{0, 2, 3, 40} { // records covered by a checkpoint
		durable := Options{Durability: Durability{FS: wal.NewMemFS(), Sync: wal.SyncNever}}
		seed := func() (*store.Store, uint64, error) {
			return store.LoadTriples(fixture, store.BuildOptions{}), 0, nil
		}
		h, err := Open(durable, seed, store.BuildOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for i, rec := range recs {
			if i == cut && cut > 0 {
				if err := h.Checkpoint(); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := h.Apply(0, rec.Inserts, rec.Deletes); err != nil {
				t.Fatal(err)
			}
		}
		if err := h.Close(); err != nil {
			t.Fatal(err)
		}

		got, err := Open(durable, nil, store.BuildOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if got.Seq() != want.Seq() || got.View().Seq() != want.Seq() {
			t.Fatalf("cut %d: recovered at seq %d (view %d), live handle at %d", cut, got.Seq(), got.View().Seq(), want.Seq())
		}
		if got.Pending() == 0 {
			t.Fatalf("cut %d: recovery left nothing pending: the suffix was not replayed", cut)
		}
		gst, wst := got.View().Store(), want.View().Store()
		for _, d := range [][2]*dict.Dict{{gst.Resources, wst.Resources}, {gst.Predicates, wst.Predicates}} {
			if d[0].Len() != d[1].Len() {
				t.Fatalf("cut %d: recovered dictionary holds %d terms, live one %d", cut, d[0].Len(), d[1].Len())
			}
			for id := uint32(1); id <= uint32(d[1].Len()); id++ {
				if d[0].Decode(id) != d[1].Decode(id) {
					t.Fatalf("cut %d: ID %d is %s after recovery, %s live", cut, id, d[0].Decode(id), d[1].Decode(id))
				}
			}
		}
		if !bytes.Equal(saved(t, got.Reconcile().Store()), wantBytes) {
			t.Fatalf("cut %d: reconciled recovered store differs from the live one", cut)
		}
		if err := got.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

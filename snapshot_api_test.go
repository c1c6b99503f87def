package parj

import (
	"bytes"
	"errors"
	"path/filepath"
	"testing"

	"parj/internal/testutil"
	"parj/internal/wal"
)

func TestSnapshotAPIRoundTrip(t *testing.T) {
	db := familyStore(t, LoadOptions{PosIndex: true})
	var buf bytes.Buffer
	if err := db.SaveSnapshot(&buf); err != nil {
		t.Fatalf("SaveSnapshot: %v", err)
	}
	db2, err := LoadSnapshot(&buf)
	if err != nil {
		t.Fatalf("LoadSnapshot: %v", err)
	}
	if db2.NumTriples() != db.NumTriples() {
		t.Fatalf("triples %d != %d", db2.NumTriples(), db.NumTriples())
	}
	n, err := db2.Count(`SELECT ?x ?z WHERE { ?x <knows> ?y . ?y <knows> ?z }`,
		QueryOptions{Strategy: AdaptiveIndex})
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Errorf("count after snapshot reload = %d, want 2", n)
	}
}

func TestSnapshotFileRoundTripViaLoadFile(t *testing.T) {
	db := familyStore(t, LoadOptions{})
	path := filepath.Join(t.TempDir(), "family.snapshot")
	if err := db.SaveSnapshotFile(path); err != nil {
		t.Fatal(err)
	}
	// LoadFile dispatches on the .snapshot suffix.
	db2, err := LoadFile(path, LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	n, err := db2.Count(`SELECT ?x ?y WHERE { ?x <knows> ?y }`, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Errorf("count = %d, want 3", n)
	}
}

// TestLoadFileSnapshotKeepsDB: a snapshot loaded through LoadFile is
// governed by LoadOptions.DB like any other load — with the only slot held
// by a parked stream, a second query sheds, and the shared budget is there.
func TestLoadFileSnapshotKeepsDB(t *testing.T) {
	path := filepath.Join(t.TempDir(), "family.snapshot")
	if err := familyStore(t, LoadOptions{}).SaveSnapshotFile(path); err != nil {
		t.Fatal(err)
	}
	db, err := LoadFile(path, LoadOptions{DB: DBOptions{MaxConcurrentQueries: 1, SharedMemoryBudget: 1 << 20}})
	if err != nil {
		t.Fatal(err)
	}
	defer testutil.LeakCheck(t)()
	if got := db.AdmissionStats().PoolCapacity; got != 1<<20 {
		t.Errorf("shared pool capacity %d, want %d", got, 1<<20)
	}

	started, unblock, done := make(chan struct{}), make(chan struct{}), make(chan error, 1)
	go func() {
		opened := false
		_, err := db.QueryStream(`SELECT ?x ?y WHERE { ?x <knows> ?y }`, QueryOptions{Threads: 1},
			func([]string) bool {
				if !opened {
					opened = true
					close(started)
					<-unblock
				}
				return true
			})
		done <- err
	}()
	<-started
	_, err = db.Count(`SELECT ?x WHERE { ?x <knows> ?y }`, QueryOptions{})
	close(unblock)
	if !errors.Is(err, ErrOverloaded) {
		t.Errorf("second query while the only slot is held = %v, want ErrOverloaded", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("slot-holding stream: %v", err)
	}
}

func TestLoadSnapshotRejectsGarbage(t *testing.T) {
	if _, err := LoadSnapshot(bytes.NewReader([]byte("garbage"))); err == nil {
		t.Error("garbage snapshot accepted")
	}
}

// TestNewlineLiteralSurvivesSnapshots: Builder.Add and Write take a literal
// holding a raw newline. A snapshot must keep it, and so must a durable
// store's checkpoint, or the store it was taken from could not recover.
func TestNewlineLiteralSurvivesSnapshots(t *testing.T) {
	const lit = "\"line one\nline two\""
	want := map[string]bool{lit: true, `"plain"`: true}
	check := func(what string, s *Store) {
		t.Helper()
		res, err := s.Query(`SELECT ?o WHERE { <doc> <text> ?o }`, QueryOptions{})
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		got := map[string]bool{}
		for _, row := range res.Rows {
			got[row[0]] = true
		}
		if len(got) != len(want) || !got[lit] || !got[`"plain"`] {
			t.Fatalf("%s: objects %q, want %q and %q", what, res.Rows, lit, `"plain"`)
		}
	}

	b := NewBuilder(LoadOptions{})
	b.Add("<doc>", "<text>", lit)
	b.Add("<doc>", "<text>", `"plain"`)
	var buf bytes.Buffer
	if err := b.Build().SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	db, err := LoadSnapshot(&buf)
	if err != nil {
		t.Fatalf("LoadSnapshot: %v", err)
	}
	check("snapshot", db)

	fs := wal.NewMemFS()
	open := func() *Store {
		t.Helper()
		s, err := Open(LoadOptions{DB: DBOptions{Durability: Durability{FS: fs}}},
			func() ([]Triple, error) { return []Triple{{S: "<doc>", P: "<text>", O: `"plain"`}}, nil })
		if err != nil {
			t.Fatalf("open durable store: %v", err)
		}
		return s
	}
	s := open()
	if _, err := s.Write([]Triple{{S: "<doc>", P: "<text>", O: lit}}, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r := open()
	defer r.Close()
	if ck := r.DurabilityStats().CheckpointSeq; ck != 1 {
		t.Fatalf("reopened from checkpoint %d, want the one covering seq 1", ck)
	}
	check("durable store reopened from its checkpoint", r)
}

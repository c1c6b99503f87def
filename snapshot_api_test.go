package parj

import (
	"bytes"
	"errors"
	"path/filepath"
	"testing"

	"parj/internal/testutil"
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

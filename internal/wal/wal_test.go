package wal

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"testing"
	"time"

	"parj/internal/rdf"
	"parj/internal/resilience"
	"parj/internal/testutil"
)

func testRec(seq uint64) Record {
	return Record{
		Seq: seq,
		Inserts: []rdf.Triple{
			{S: fmt.Sprintf("<http://s/%d>", seq), P: "<http://p>", O: fmt.Sprintf("\"v%d\"", seq)},
		},
	}
}

func mustOpen(t *testing.T, opts Options) *Log {
	t.Helper()
	l, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return l
}

func replayAll(t *testing.T, l *Log, from uint64) []Record {
	t.Helper()
	var recs []Record
	if err := l.Replay(from, func(r Record) error { recs = append(recs, r); return nil }); err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return recs
}

func TestWALAppendReplayRoundTrip(t *testing.T) {
	defer testutil.LeakCheck(t)()
	fs := NewMemFS()
	l := mustOpen(t, Options{FS: fs})
	const n = 20
	for seq := uint64(1); seq <= n; seq++ {
		rec := testRec(seq)
		rec.Deletes = []rdf.Triple{{S: "<http://gone>", P: "<http://p>", O: "<http://x>"}}
		if err := l.Append(rec); err != nil {
			t.Fatalf("Append %d: %v", seq, err)
		}
	}
	if got := l.DurableSeq(); got != n {
		t.Fatalf("DurableSeq = %d, want %d", got, n)
	}
	recs := replayAll(t, l, 1)
	if len(recs) != n {
		t.Fatalf("replayed %d records, want %d", len(recs), n)
	}
	for i, rec := range recs {
		want := uint64(i + 1)
		if rec.Seq != want {
			t.Fatalf("record %d has seq %d", i, rec.Seq)
		}
		if len(rec.Inserts) != 1 || len(rec.Deletes) != 1 {
			t.Fatalf("record %d shape: %d inserts %d deletes", i, len(rec.Inserts), len(rec.Deletes))
		}
		if rec.Inserts[0] != testRec(want).Inserts[0] {
			t.Fatalf("record %d insert mismatch: %+v", i, rec.Inserts[0])
		}
	}
	// Suffix replay.
	if got := replayAll(t, l, 15); len(got) != 6 || got[0].Seq != 15 {
		t.Fatalf("suffix replay from 15: %d records, first %v", len(got), got)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Reopen from the same bytes: position and content must survive.
	l2 := mustOpen(t, Options{FS: fs})
	defer l2.Close()
	if got := l2.LastSeq(); got != n {
		t.Fatalf("reopened LastSeq = %d, want %d", got, n)
	}
	if got := replayAll(t, l2, 1); len(got) != n {
		t.Fatalf("reopened replay: %d records", len(got))
	}
	// Appends continue the sequence.
	if err := l2.Append(testRec(n + 1)); err != nil {
		t.Fatalf("Append after reopen: %v", err)
	}
	if _, err := l2.Enqueue(testRec(n + 10)); err == nil {
		t.Fatal("out-of-order append accepted")
	}
}

func TestWALGroupCommitBatchesFsyncs(t *testing.T) {
	defer testutil.LeakCheck(t)()
	fs := NewMemFS()
	l := mustOpen(t, Options{FS: fs})
	defer l.Close()

	// Enqueue a convoy under a writer lock, then wait — one (or very few)
	// fsyncs must cover all of them.
	const n = 64
	commits := make([]*Commit, n)
	for i := 0; i < n; i++ {
		c, err := l.Enqueue(testRec(uint64(i + 1)))
		if err != nil {
			t.Fatalf("Enqueue %d: %v", i+1, err)
		}
		commits[i] = c
	}
	for i, c := range commits {
		if err := c.Wait(); err != nil {
			t.Fatalf("Wait %d: %v", i+1, err)
		}
	}
	if got := l.DurableSeq(); got != n {
		t.Fatalf("DurableSeq = %d, want %d", got, n)
	}
	// Segment header sync + group flushes; per-op would need ≥ n.
	if syncs := fs.Syncs(); syncs >= n {
		t.Fatalf("group commit issued %d fsyncs for %d records", syncs, n)
	}
}

func TestWALConcurrentWritersSequenced(t *testing.T) {
	defer testutil.LeakCheck(t)()
	l := mustOpen(t, Options{FS: NewMemFS()})
	defer l.Close()

	// Writers race to append; a mutex outside the log assigns sequences
	// (as live.Handle does) but Wait happens unlocked — the group
	// flusher must wake every one of them exactly once.
	const n = 200
	var mu sync.Mutex
	var next uint64
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < n/8; i++ {
				mu.Lock()
				next++
				c, err := l.Enqueue(testRec(next))
				mu.Unlock()
				if err != nil {
					errs[w] = err
					return
				}
				if err := c.Wait(); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatalf("writer failed: %v", err)
		}
	}
	if got := l.DurableSeq(); got != n {
		t.Fatalf("DurableSeq = %d, want %d", got, n)
	}
}

func TestWALSegmentRotationAndPrune(t *testing.T) {
	defer testutil.LeakCheck(t)()
	fs := NewMemFS()
	l := mustOpen(t, Options{FS: fs, SegmentBytes: 256})
	const n = 40
	for seq := uint64(1); seq <= n; seq++ {
		if err := l.Append(testRec(seq)); err != nil {
			t.Fatalf("Append %d: %v", seq, err)
		}
	}
	st := l.Stats()
	if st.Segments < 3 {
		t.Fatalf("expected rotation, got %d segments", st.Segments)
	}
	if recs := replayAll(t, l, 1); len(recs) != n {
		t.Fatalf("replay across segments: %d records", len(recs))
	}
	if err := l.Prune(20); err != nil {
		t.Fatalf("Prune: %v", err)
	}
	st2 := l.Stats()
	if st2.Segments >= st.Segments {
		t.Fatalf("prune removed nothing (%d -> %d segments)", st.Segments, st2.Segments)
	}
	if st2.FirstSeq <= 1 || st2.FirstSeq > 21 {
		t.Fatalf("FirstSeq after prune = %d", st2.FirstSeq)
	}
	// The suffix from FirstSeq is intact.
	recs := replayAll(t, l, st2.FirstSeq)
	if len(recs) == 0 || recs[len(recs)-1].Seq != n {
		t.Fatalf("post-prune replay broken: %d records", len(recs))
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Reopen after prune: FirstSeq reflects retention.
	l2 := mustOpen(t, Options{FS: fs})
	defer l2.Close()
	if got := l2.FirstSeq(); got != st2.FirstSeq {
		t.Fatalf("reopened FirstSeq = %d, want %d", got, st2.FirstSeq)
	}
}

func TestWALSyncIntervalPolicy(t *testing.T) {
	defer testutil.LeakCheck(t)()
	fs := NewMemFS()
	clock := resilience.NewFakeClock(time.Unix(0, 0))
	l := mustOpen(t, Options{FS: fs, Sync: SyncInterval, Interval: time.Second, Clock: clock})
	defer l.Close()

	for seq := uint64(1); seq <= 5; seq++ {
		if err := l.Append(testRec(seq)); err != nil { // returns without fsync
			t.Fatalf("Append: %v", err)
		}
	}
	if got := l.DurableSeq(); got != 0 {
		t.Fatalf("DurableSeq before tick = %d", got)
	}
	// Let the flusher park on the clock, then fire the interval.
	for clock.Waiters() == 0 {
		time.Sleep(time.Millisecond)
	}
	clock.Advance(time.Second)
	deadline := time.Now().Add(5 * time.Second)
	for l.DurableSeq() != 5 {
		if time.Now().After(deadline) {
			t.Fatalf("interval flush never covered seq 5 (durable %d)", l.DurableSeq())
		}
		time.Sleep(time.Millisecond)
	}
}

func TestWALSyncNeverPolicy(t *testing.T) {
	defer testutil.LeakCheck(t)()
	fs := NewMemFS()
	l := mustOpen(t, Options{FS: fs, Sync: SyncNever})
	for seq := uint64(1); seq <= 3; seq++ {
		if err := l.Append(testRec(seq)); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if got := l.DurableSeq(); got != 0 {
		t.Fatalf("SyncNever fsynced: durable %d", got)
	}
	if err := l.Sync(); err != nil { // manual barrier
		t.Fatalf("Sync: %v", err)
	}
	if got := l.DurableSeq(); got != 3 {
		t.Fatalf("manual Sync: durable %d", got)
	}
	l.Close()
}

func TestWALCheckpointRecoverReplay(t *testing.T) {
	defer testutil.LeakCheck(t)()
	fs := NewMemFS()
	l := mustOpen(t, Options{FS: fs, SegmentBytes: 256})
	for seq := uint64(1); seq <= 30; seq++ {
		if err := l.Append(testRec(seq)); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	payload := []byte("snapshot-covering-20")
	if err := l.Checkpoint(20, func(w io.Writer) error {
		_, err := w.Write(payload)
		return err
	}); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if got := l.CheckpointSeq(); got != 20 {
		t.Fatalf("CheckpointSeq = %d", got)
	}
	if first := l.FirstSeq(); first <= 1 {
		t.Fatalf("checkpoint did not prune (FirstSeq %d)", first)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	l2 := mustOpen(t, Options{FS: fs})
	defer l2.Close()
	cks := l2.Checkpoints()
	if len(cks) == 0 || cks[0] != 20 {
		t.Fatalf("Checkpoints after reopen = %v", cks)
	}
	rc, err := l2.OpenCheckpoint(20)
	if err != nil {
		t.Fatalf("OpenCheckpoint: %v", err)
	}
	got := make([]byte, len(payload)+8)
	n, _ := rc.Read(got)
	rc.Close()
	if string(got[:n]) != string(payload) {
		t.Fatalf("checkpoint content = %q", got[:n])
	}
	// Replay the suffix the checkpoint does not cover.
	recs := replayAll(t, l2, 21)
	if len(recs) != 10 || recs[0].Seq != 21 || recs[9].Seq != 30 {
		t.Fatalf("suffix replay: %d records", len(recs))
	}
	// A stale checkpoint is rejected.
	if err := l2.Checkpoint(10, func(w io.Writer) error { return nil }); err == nil {
		t.Fatal("stale checkpoint accepted")
	}
}

func TestWALCheckpointKeepsFallback(t *testing.T) {
	defer testutil.LeakCheck(t)()
	fs := NewMemFS()
	l := mustOpen(t, Options{FS: fs, SegmentBytes: 128})
	save := func(tag string) func(w io.Writer) error {
		return func(w io.Writer) error {
			_, err := w.Write([]byte(tag))
			return err
		}
	}
	for seq := uint64(1); seq <= 30; seq++ {
		if err := l.Append(testRec(seq)); err != nil {
			t.Fatalf("Append: %v", err)
		}
		if seq%10 == 0 {
			if err := l.Checkpoint(seq, save(fmt.Sprintf("ck%d", seq))); err != nil {
				t.Fatalf("Checkpoint %d: %v", seq, err)
			}
		}
	}
	cks := l.Checkpoints()
	if len(cks) != keepCheckpoints || cks[0] != 30 || cks[1] != 20 {
		t.Fatalf("Checkpoints = %v, want newest two", cks)
	}
	l.Close()
}

func TestWALStickyErrorAfterShortWrite(t *testing.T) {
	defer testutil.LeakCheck(t)()
	fs := NewMemFS()
	l := mustOpen(t, Options{FS: fs})
	if err := l.Append(testRec(1)); err != nil {
		t.Fatalf("Append: %v", err)
	}
	fs.FailAt(OpWrite, fs.countOf(OpWrite)+1, ShortWrite)
	if err := l.Append(testRec(2)); err == nil {
		t.Fatal("short write not surfaced")
	}
	// The log is poisoned: later appends fail fast with the same error.
	if _, err := l.Enqueue(testRec(3)); err == nil || !errors.Is(err, ErrShortWrite) {
		t.Fatalf("sticky error = %v", err)
	}
	l.Close()

	// Reopen repairs the torn frame: record 1 survives, record 2 is gone.
	l2 := mustOpen(t, Options{FS: fs})
	defer l2.Close()
	if got := l2.LastSeq(); got != 1 {
		t.Fatalf("LastSeq after repair = %d", got)
	}
	if recs := replayAll(t, l2, 1); len(recs) != 1 || recs[0].Seq != 1 {
		t.Fatalf("replay after repair: %v", recs)
	}
}

// countOf exposes the op counter for scripting faults relative to "now".
func (fs *MemFS) countOf(op Op) int {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.counts[op]
}

package difftest

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"parj/internal/live"
	"parj/internal/rdf"
	"parj/internal/store"
	"parj/internal/testutil"
	"parj/internal/wal"
)

// walcrash_test.go — the crash-injection differential suite. It replays the
// generator's write schedules through a durable live handle over the
// crash-injection MemFS, arms one fault per run (kill before/after fsync,
// torn frame, short write, checkpoint-publish and prune crashes, skipped
// directory fsync, a recovery-time bit flip), and after every injected
// crash recovers with live.Open and demands exact oracle equality:
// the recovered triple set must be states[recoveredSeq] — the mutable
// oracle's snapshot at exactly the sequence recovery landed on — and for
// every fault that honors fsync semantics, recoveredSeq must not trail the
// last acknowledged batch.

// crashFault describes one armed fault family. Faults are armed before the
// first open, so small injection points fire during the seed load and
// initial checkpoint and larger ones mid-schedule — both paths must recover.
type crashFault struct {
	name string
	arm  func(fs *wal.MemFS, n int)
	// lossy faults (a filesystem that lies about directory fsync, media
	// corruption) may legally lose acknowledged batches; the recovered
	// state must still be an exact oracle prefix, just possibly an older
	// one.
	lossy bool
	// corruptOK faults may instead surface as a typed ErrCorruptWAL from
	// recovery (damage before the tail); anything else — above all a
	// panic — still fails the run.
	corruptOK bool
}

var crashFaults = []crashFault{
	{name: "crash-before-sync", arm: func(fs *wal.MemFS, n int) { fs.FailAt(wal.OpSync, n, wal.CrashBefore) }},
	{name: "crash-after-sync", arm: func(fs *wal.MemFS, n int) { fs.FailAt(wal.OpSync, n, wal.CrashAfter) }},
	{name: "crash-before-write", arm: func(fs *wal.MemFS, n int) { fs.FailAt(wal.OpWrite, n, wal.CrashBefore) }},
	{name: "torn-write", arm: func(fs *wal.MemFS, n int) { fs.FailAt(wal.OpWrite, n, wal.TornWrite) }},
	{name: "short-write", arm: func(fs *wal.MemFS, n int) { fs.FailAt(wal.OpWrite, n, wal.ShortWrite) }},
	{name: "crash-before-ckpt-publish", arm: func(fs *wal.MemFS, n int) { fs.FailAt(wal.OpRename, n, wal.CrashBefore) }},
	{name: "crash-after-ckpt-create", arm: func(fs *wal.MemFS, n int) { fs.FailAt(wal.OpCreate, n, wal.CrashAfter) }},
	{name: "crash-before-prune", arm: func(fs *wal.MemFS, n int) { fs.FailAt(wal.OpRemove, n, wal.CrashBefore) }},
	{name: "dirsync-skipped", lossy: true, arm: func(fs *wal.MemFS, n int) { fs.SkipDirSync(true) }},
	{name: "bit-flip", lossy: true, corruptOK: true, arm: func(fs *wal.MemFS, n int) {
		fs.FailAt(wal.OpSync, n, wal.CrashBefore)
		fs.FlipBitOnRecover(n % 13)
	}},
}

// crashRun is the outcome of replaying one schedule until its armed fault
// (or the end of the schedule) killed the process.
type crashRun struct {
	// states[i] is the oracle's triple set after write batch i (states[0]
	// is the base). The final entry may be a batch the crash refused.
	states [][]rdf.Triple
	// acked is the highest sequence whose Apply returned nil — the floor
	// recovery must reach for fsync-honoring faults.
	acked uint64
}

// storeTriples decodes a store's full triple set back to terms.
func storeTriples(st *store.Store) map[rdf.Triple]bool {
	out := make(map[rdf.Triple]bool, st.NumTriples())
	st.Triples(func(s, p, o uint32) bool {
		out[rdf.Triple{
			S: st.Resources.Decode(s),
			P: st.Predicates.Decode(p),
			O: st.Resources.Decode(o),
		}] = true
		return true
	})
	return out
}

// handleTriples reconciles the handle and decodes its merged base.
func handleTriples(h *live.Handle) map[rdf.Triple]bool {
	return storeTriples(h.Reconcile().Store())
}

const crashSegmentBytes = 1 << 10 // small segments: rotation + pruning under fire

func openCrashStore(fs *wal.MemFS, base []rdf.Triple) (*live.Handle, error) {
	seed := func() (*store.Store, uint64, error) {
		return store.LoadTriples(base, store.BuildOptions{}), 0, nil
	}
	d := live.Durability{FS: fs, Sync: wal.SyncAlways, SegmentBytes: crashSegmentBytes}
	return live.Open(live.Options{Durability: d}, seed, store.BuildOptions{})
}

// replayUntilCrash drives the schedule through a durable handle on fs until
// the armed fault kills it (or the schedule ends, when it crashes the
// filesystem itself — a clean kill with everything acknowledged durable).
func replayUntilCrash(t *testing.T, sched *Case, fs *wal.MemFS) crashRun {
	t.Helper()
	o := newOracle(sched.Base)
	run := crashRun{states: [][]rdf.Triple{o.triples()}}
	h, err := openCrashStore(fs, sched.Base)
	if err != nil {
		// The fault fired during seed load or the initial checkpoint:
		// nothing was ever acknowledged.
		if !fs.Crashed() {
			fs.Crash()
		}
		return run
	}
	reconciles := 0
	for i := range sched.Ops {
		op := &sched.Ops[i]
		if op.Reconcile {
			h.Reconcile()
			// Checkpoint every other reconciliation so recovery
			// alternates between snapshot-heavy and replay-heavy paths.
			if reconciles++; reconciles%2 == 0 {
				if err := h.Checkpoint(); err != nil {
					break
				}
			}
			continue
		}
		if op.Query != "" || (len(op.Inserts) == 0 && len(op.Deletes) == 0) {
			continue
		}
		o.apply(op.Inserts, op.Deletes)
		run.states = append(run.states, o.triples())
		seq, err := h.Apply(0, op.Inserts, op.Deletes)
		if err != nil {
			break
		}
		if want := uint64(len(run.states) - 1); seq != want {
			t.Fatalf("apply returned seq %d, want %d", seq, want)
		}
		run.acked = seq
	}
	if !fs.Crashed() {
		fs.Crash()
	}
	h.Close() // stops the flusher; the error is the crash itself
	return run
}

// checkRecovery recovers from the crashed filesystem and verifies the
// recovered triple set is exactly the oracle state at the recovered
// sequence, within the fault's legal floor.
func checkRecovery(t *testing.T, label string, run crashRun, fs *wal.MemFS, base []rdf.Triple, f crashFault) {
	t.Helper()
	rfs := fs.Recover()
	h, err := openCrashStore(rfs, base)
	if err != nil {
		if f.corruptOK && errors.Is(err, wal.ErrCorruptWAL) {
			return // typed refusal is a legal outcome for media damage
		}
		t.Fatalf("%s: recovery failed: %v", label, err)
	}
	defer h.Close()
	rec := h.Seq()
	last := uint64(len(run.states) - 1)
	if rec > last {
		t.Fatalf("%s: recovered seq %d past last attempted %d", label, rec, last)
	}
	if !f.lossy && rec < run.acked {
		t.Fatalf("%s: recovered seq %d below acked floor %d — lost fsync-acknowledged writes", label, rec, run.acked)
	}
	got := handleTriples(h)
	want := run.states[rec]
	if len(got) != len(want) {
		t.Fatalf("%s: recovered %d triples at seq %d, oracle has %d", label, len(got), rec, len(want))
	}
	for _, tr := range want {
		if !got[tr] {
			t.Fatalf("%s: recovered state at seq %d missing oracle triple %v", label, rec, tr)
		}
	}
	// A recovered store must also still accept writes: the crash must not
	// have wedged the sequence stream.
	probe := rdf.Triple{S: "<urn:crash:probe>", P: "<urn:crash:p>", O: "<urn:crash:o>"}
	seq, err := h.Apply(0, []rdf.Triple{probe}, nil)
	if err != nil {
		t.Fatalf("%s: post-recovery write failed: %v", label, err)
	}
	if seq != rec+1 {
		t.Fatalf("%s: post-recovery write got seq %d, want %d", label, seq, rec+1)
	}
}

// TestWALCrashMatrix is the tentpole verification: seeded write schedules
// under every fault family, each at several injection points, every run
// recovered and diffed against the per-sequence oracle states.
func TestWALCrashMatrix(t *testing.T) {
	defer testutil.LeakCheck(t)()
	seeds := []int64{1, 2, 3}
	if *long {
		seeds = []int64{1, 2, 3, 4, 5, 6, 7, 8}
	}
	for _, seed := range seeds {
		rng := rand.New(rand.NewSource(seed))
		ds := GenDataset(rng, DatasetConfig{MaxTriples: 120})
		sched := GenWriteCase(rng, ds, 30)
		for _, f := range crashFaults {
			// Scatter the injection point: early (mid-boot or the first
			// batches), mid-schedule, and deep enough that checkpoints
			// and pruning have happened.
			for _, n := range []int{2, 7 + int(seed), 23 + 2*int(seed)} {
				label := fmt.Sprintf("seed=%d/%s/n=%d", seed, f.name, n)
				fs := wal.NewMemFS()
				f.arm(fs, n)
				run := replayUntilCrash(t, sched, fs)
				checkRecovery(t, label, run, fs, sched.Base, f)
			}
		}
	}
}

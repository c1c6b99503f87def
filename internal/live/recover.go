package live

import (
	"errors"
	"fmt"
	"io"
	"time"

	"parj/internal/store"
	"parj/internal/wal"
)

// recover.go — the recovery protocol that pairs the WAL with snapshot
// checkpoints:
//
//	state = newest loadable checkpoint + replay of the WAL suffix.
//
// A checkpoint file is a store snapshot whose name records the write
// sequence it covers. Loading is CRC-verified end to end; a checkpoint
// that fails its checksum falls back to the previous one (the log keeps
// two) with a correspondingly longer replay. Replaying re-encodes novel
// terms in the exact order the original process did, so recovered
// dictionary IDs — and therefore dictionary-encoded shard results — are
// byte-identical to the pre-crash store. The replayed suffix becomes one
// delta, merged and published once, however many records it holds.

// Durability configures a replica's write-ahead log. The zero value is a
// volatile replica.
type Durability struct {
	// Dir is the log directory; it is created if missing. Required
	// unless FS is set.
	Dir string
	// Sync is the fsync policy (default wal.SyncAlways).
	Sync wal.SyncPolicy
	// SyncInterval is the flush period under wal.SyncInterval (default
	// 50ms).
	SyncInterval time.Duration
	// SegmentBytes caps a log segment before rotation (default 4 MiB).
	// Checkpoints prune whole segments, so smaller segments reclaim
	// space sooner at the cost of more files.
	SegmentBytes int64
	// FS overrides the filesystem (crash-injection tests). When set,
	// Dir is ignored.
	FS wal.FS
}

// Enabled reports whether this configuration turns durability on.
func (d Durability) Enabled() bool { return d.Dir != "" || d.FS != nil }

// Open builds a replica's handle under opts. With opts.Durability enabled
// it opens the write-ahead log and recovers from it: the newest loadable
// checkpoint (falling back past corrupt ones) plus the log suffix past the
// checkpoint's sequence, replayed into one view; every later Apply is
// journaled. Otherwise the handle starts from seed.
//
// seed supplies the base state of a volatile handle, and of a durable one
// whose log holds no checkpoint — the first boot. It returns the store and
// the write sequence it embeds (non-zero for a peer snapshot that carries a
// stream position); nil means start empty. A durable first boot from a
// non-trivial seed cuts a checkpoint at once, so seed data survives a crash
// that precedes the first explicit checkpoint. bo shapes the tables of
// predicates a write introduces, as in New.
func Open(opts Options, seed func() (*store.Store, uint64, error), bo store.BuildOptions) (*Handle, error) {
	var h *Handle
	if d := opts.Durability; d.Enabled() {
		log, err := wal.Open(wal.Options{Dir: d.Dir, FS: d.FS, Sync: d.Sync, Interval: d.SyncInterval, SegmentBytes: d.SegmentBytes})
		if err != nil {
			return nil, fmt.Errorf("live: open wal: %w", err)
		}
		if h, err = recoverLog(log, seed, bo); err != nil {
			log.Close()
			return nil, err
		}
	} else {
		base, seq, err := seedStore(seed, bo)
		if err != nil {
			return nil, err
		}
		h = New(base, nil, bo)
		h.SeedSeq(seq)
	}
	h.SetOptions(opts)
	return h, nil
}

// seedStore runs seed, standing in an empty store for a nil seed or store.
func seedStore(seed func() (*store.Store, uint64, error), bo store.BuildOptions) (*store.Store, uint64, error) {
	var st *store.Store
	var seq uint64
	if seed != nil {
		var err error
		if st, seq, err = seed(); err != nil {
			return nil, 0, fmt.Errorf("live: seed store: %w", err)
		}
	}
	if st == nil {
		st = store.LoadTriples(nil, bo)
	}
	return st, seq, nil
}

// recoverLog recovers a handle from log and makes it journal to log.
func recoverLog(log *wal.Log, seed func() (*store.Store, uint64, error), opts store.BuildOptions) (*Handle, error) {
	var base *store.Store
	var startSeq uint64
	loaded := false
	var fallback error
	for _, ckSeq := range log.Checkpoints() {
		rc, err := log.OpenCheckpoint(ckSeq)
		if err != nil {
			fallback = errors.Join(fallback, err)
			continue
		}
		st, err := store.LoadSnapshot(rc)
		rc.Close()
		if err != nil {
			if errors.Is(err, store.ErrCorruptSnapshot) {
				// Latent media damage; the previous checkpoint still pairs
				// with a replayable suffix.
				fallback = errors.Join(fallback, fmt.Errorf("checkpoint %d: %w", ckSeq, err))
				continue
			}
			return nil, fmt.Errorf("live: load checkpoint %d: %w", ckSeq, err)
		}
		base, startSeq, loaded = st, ckSeq, true
		break
	}
	if !loaded {
		if fallback != nil {
			return nil, fmt.Errorf("live: no loadable checkpoint: %w", fallback)
		}
		var err error
		if base, startSeq, err = seedStore(seed, opts); err != nil {
			return nil, err
		}
	}
	// The log must reach back to the recovered base: a first record past
	// startSeq+1 means pruning outran the surviving checkpoints.
	if first := log.FirstSeq(); first != 0 && first > startSeq+1 {
		return nil, fmt.Errorf("%w: checkpoint covers %d but log starts at %d", wal.ErrCorruptWAL, startSeq, first)
	}

	// The suffix is encoded record by record in log order — so every novel
	// term gets the ID the original process gave it — and merged once.
	pos := startSeq
	var vs []store.Verdict
	err := log.Replay(startSeq+1, func(rec wal.Record) error {
		seq, ok, err := nextSeq(pos, rec.Seq)
		if ok {
			vs, pos = appendVerdicts(vs, base, rec.Inserts, rec.Deletes), seq
		}
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("live: replay wal: %w", err)
	}
	h := New(base, nil, opts)
	if pos > 0 {
		h.mu.Lock()
		h.publish(pos, h.cur.Load().delta.With(vs))
		h.mu.Unlock()
	}
	// A checkpoint can cover batches the log no longer holds — tail damage
	// truncated past an already-checkpointed record. Fast-forward the
	// append position so the next write extends the recovered state.
	if err := log.AlignTo(h.Seq()); err != nil {
		return nil, fmt.Errorf("live: align wal: %w", err)
	}
	h.wal = log
	if !loaded && base.NumTriples() > 0 {
		// First boot from a seed: checkpoint it before acknowledging
		// anything, or a crash would leave a log that starts mid-stream.
		if err := h.Checkpoint(); err != nil {
			return nil, fmt.Errorf("live: initial checkpoint: %w", err)
		}
	}
	return h, nil
}

// Checkpoint publishes the handle's current view as a checkpoint paired
// with its write sequence, pruning log segments the snapshot covers; a
// volatile handle has nothing to checkpoint. The replica keeps serving —
// and keeps accepting writes — throughout; a batch landing mid-save stays
// in the log suffix the checkpoint name points past, replayed on the next
// recovery.
func (h *Handle) Checkpoint() error {
	if h.wal == nil {
		return nil
	}
	v := h.View()
	return h.wal.Checkpoint(v.Seq(), func(w io.Writer) error {
		return v.Store().Save(w)
	})
}

// Close waits for background reconciliation and closes the write-ahead
// log, flushing any unsynced suffix; a volatile handle has no log to close,
// and a second Close returns nil. Stop writing first. Writes acknowledged
// under wal.SyncInterval or wal.SyncNever become durable at the latest
// here.
func (h *Handle) Close() error {
	h.Quiesce()
	if h.wal == nil {
		return nil
	}
	if err := h.wal.Close(); err != nil && !errors.Is(err, wal.ErrClosed) {
		return err
	}
	return nil
}

// DurabilityStats describes a handle's durable position for health
// endpoints; the zero value means "volatile handle".
type DurabilityStats struct {
	Enabled       bool   `json:"enabled"`
	Seq           uint64 `json:"seq"`            // last applied batch
	DurableSeq    uint64 `json:"durable_seq"`    // last fsync-covered batch
	FirstSeq      uint64 `json:"first_seq"`      // oldest replayable record
	CheckpointSeq uint64 `json:"checkpoint_seq"` // newest checkpoint position
	Segments      int    `json:"segments"`       // live WAL segment files
}

// Durability reports the handle's durable position.
func (h *Handle) Durability() DurabilityStats {
	if h.wal == nil {
		return DurabilityStats{}
	}
	st := h.wal.Stats()
	return DurabilityStats{
		Enabled:       true,
		Seq:           h.Seq(),
		DurableSeq:    st.DurableSeq,
		FirstSeq:      st.FirstSeq,
		CheckpointSeq: st.CheckpointSeq,
		Segments:      st.Segments,
	}
}

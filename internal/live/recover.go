package live

import (
	"errors"
	"fmt"
	"io"

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

// OpenDurable recovers a handle from log: it loads the newest loadable
// checkpoint (falling back past corrupt ones), replays the log suffix past
// the checkpoint's sequence into one view, and attaches the log so
// subsequent writes are journaled.
//
// seed supplies the base state for a log with no checkpoint — the first
// boot. It returns the store and the write sequence it embeds (non-zero
// for a peer snapshot that carries a stream position); nil means start
// empty. When the seed is non-trivial an initial checkpoint is cut
// immediately, so seed data survives a crash that precedes the first
// explicit checkpoint.
func OpenDurable(log *wal.Log, seed func() (*store.Store, uint64, error), opts store.BuildOptions) (*Handle, error) {
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
		if seed != nil {
			st, seq, err := seed()
			if err != nil {
				return nil, fmt.Errorf("live: seed durable store: %w", err)
			}
			base, startSeq = st, seq
		}
		if base == nil {
			base = store.LoadTriples(nil, opts)
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
	h.AttachWAL(log)
	if !loaded && base.NumTriples() > 0 {
		// First boot from a seed: checkpoint it before acknowledging
		// anything, or a crash would leave a log that starts mid-stream.
		if err := Checkpoint(h, log); err != nil {
			return nil, fmt.Errorf("live: initial checkpoint: %w", err)
		}
	}
	return h, nil
}

// Checkpoint publishes the handle's current view as a checkpoint paired
// with its write sequence, pruning log segments the snapshot covers. The
// store keeps serving — and keeps accepting writes — throughout; a batch
// landing mid-save stays in the log suffix the checkpoint name points
// past, replayed on the next recovery.
func Checkpoint(h *Handle, log *wal.Log) error {
	v := h.View()
	return log.Checkpoint(v.Seq(), func(w io.Writer) error {
		return v.Store().Save(w)
	})
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
	l := h.WAL()
	if l == nil {
		return DurabilityStats{}
	}
	st := l.Stats()
	return DurabilityStats{
		Enabled:       true,
		Seq:           h.Seq(),
		DurableSeq:    st.DurableSeq,
		FirstSeq:      st.FirstSeq,
		CheckpointSeq: st.CheckpointSeq,
		Segments:      st.Segments,
	}
}

package parj

import (
	"errors"
	"fmt"
	"io"
	"time"

	"parj/internal/live"
	"parj/internal/store"
	"parj/internal/wal"
)

// durable.go — the public durability surface. A Store opened through Open
// journals every write batch to a write-ahead log before acknowledging it
// and recovers its state on the next Open from the newest checkpoint plus
// the log suffix. See docs/DURABILITY.md for the format and the recovery
// protocol; internal/wal holds the implementation.

// SyncPolicy selects when the write-ahead log fsyncs; see the constants.
type SyncPolicy = wal.SyncPolicy

const (
	// SyncAlways (the default) acknowledges a write only after an fsync
	// covers it. Concurrent writers coalesce into one group commit, so
	// the cost is shared across a burst.
	SyncAlways = wal.SyncAlways
	// SyncInterval fsyncs on a timer (Durability.SyncInterval); a crash
	// loses at most the last interval of acknowledged writes.
	SyncInterval = wal.SyncInterval
	// SyncNever leaves fsync to the OS; a crash loses whatever the page
	// cache held. Bulk loads only.
	SyncNever = wal.SyncNever
)

// ParseSyncPolicy parses "always", "interval" or "never".
func ParseSyncPolicy(s string) (SyncPolicy, error) { return wal.ParseSyncPolicy(s) }

// ErrCorruptWAL reports that the write-ahead log failed its integrity
// checks in a way recovery cannot repair: damage strictly before the tail
// (the tail alone can legitimately be torn by a crash and is truncated
// instead). Dispatch with errors.Is.
var ErrCorruptWAL = wal.ErrCorruptWAL

// Durability configures the write-ahead log of a store opened with Open.
// The zero value disables durability.
type Durability struct {
	// Dir is the log directory; it is created if missing. Required
	// unless FS is set.
	Dir string
	// Sync is the fsync policy (default SyncAlways).
	Sync SyncPolicy
	// SyncInterval is the flush period under SyncInterval (default 50ms).
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

func (d Durability) walOptions() wal.Options {
	return wal.Options{
		Dir:          d.Dir,
		FS:           d.FS,
		Sync:         d.Sync,
		Interval:     d.SyncInterval,
		SegmentBytes: d.SegmentBytes,
	}
}

// DurabilityStats describes a store's durable position; the zero value
// means "volatile store".
type DurabilityStats = live.DurabilityStats

// Open opens (or creates) a durable store in opts.DB.Durability.Dir:
// it recovers the newest loadable checkpoint, replays the write-ahead
// log suffix past it, and journals every subsequent write batch.
//
// seed supplies the initial triples when the directory holds no prior
// state — the first boot; nil starts empty. The seed is checkpointed
// before Open returns, so it survives any later crash.
//
// The returned store must be released with Close; writes issued through
// Write (or Insert/Delete) after Close fail with the log's closed error.
func Open(opts LoadOptions, seed func() ([]Triple, error)) (*Store, error) {
	d := opts.DB.Durability
	if !d.Enabled() {
		return nil, errors.New("parj: Open requires DBOptions.Durability (use NewBuilder/Load for a volatile store)")
	}
	log, err := wal.Open(d.walOptions())
	if err != nil {
		return nil, fmt.Errorf("parj: open wal: %w", err)
	}
	bo := opts.buildOptions()
	var seedFn func() (*store.Store, uint64, error)
	if seed != nil {
		seedFn = func() (*store.Store, uint64, error) {
			ts, err := seed()
			if err != nil {
				return nil, 0, err
			}
			return store.LoadTriples(toRDF(ts), bo), 0, nil
		}
	}
	h, err := live.OpenDurable(log, seedFn, bo)
	if err != nil {
		log.Close()
		return nil, fmt.Errorf("parj: recover: %w", err)
	}
	s := &Store{live: h, wal: log}
	s.applyDB(opts.DB)
	return s, nil
}

// Write applies one batch — deletes first, then inserts — and, on a
// durable store, returns only once the sync policy has acknowledged it.
// Insert and Delete are equivalent but drop the error; durable callers
// should use Write. A returned error after a non-zero sequence means the
// batch is visible to queries but its durability is unknown — the store
// should be closed and recovered.
func (s *Store) Write(inserts, deletes []Triple) (uint64, error) {
	return s.live.Apply(0, toRDF(inserts), toRDF(deletes))
}

// Checkpoint publishes the current view as a snapshot checkpoint paired
// with its write sequence and prunes log segments it covers. Queries and
// writes keep running throughout. No-op on a volatile store.
func (s *Store) Checkpoint() error {
	if s.wal == nil {
		return nil
	}
	return live.Checkpoint(s.live, s.wal)
}

// DurabilityStats reports the store's durable position (zero value for a
// volatile store).
func (s *Store) DurabilityStats() DurabilityStats { return s.live.Durability() }

// Close quiesces background work and closes the write-ahead log, flushing
// any unsynced suffix. Volatile stores need not call it (it is then a
// no-op), but durable stores must: writes acknowledged under SyncInterval
// or SyncNever become durable at the latest here.
func (s *Store) Close() error {
	s.live.Quiesce()
	if s.wal == nil {
		return nil
	}
	err := s.wal.Close()
	if err != nil && errors.Is(err, wal.ErrClosed) {
		return nil
	}
	return err
}

// SaveCheckpointTo is a convenience for tooling: it streams the newest
// checkpoint the log holds, without opening the store. Returns the
// checkpoint's sequence.
func SaveCheckpointTo(d Durability, w io.Writer) (uint64, error) {
	log, err := wal.Open(d.walOptions())
	if err != nil {
		return 0, err
	}
	defer log.Close()
	cks := log.Checkpoints()
	if len(cks) == 0 {
		return 0, errors.New("parj: no checkpoint")
	}
	rc, err := log.OpenCheckpoint(cks[0])
	if err != nil {
		return 0, err
	}
	defer rc.Close()
	if _, err := io.Copy(w, rc); err != nil {
		return 0, err
	}
	return cks[0], nil
}

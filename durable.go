package parj

import (
	"errors"
	"fmt"

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

// Durability configures the write-ahead log of a store opened with Open:
// Dir (or FS), Sync, SyncInterval and SegmentBytes. The zero value disables
// durability.
type Durability = live.Durability

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
// Write after Close fail with the log's closed error.
func Open(opts LoadOptions, seed func() ([]Triple, error)) (*Store, error) {
	if !opts.DB.Durability.Enabled() {
		return nil, errors.New("parj: Open requires DBOptions.Durability (use NewBuilder/Load for a volatile store)")
	}
	bo := opts.buildOptions()
	var seedFn func() (*store.Store, uint64, error)
	if seed != nil {
		seedFn = func() (*store.Store, uint64, error) {
			ts, err := seed()
			if err != nil {
				return nil, 0, err
			}
			return store.LoadTriples(ts, bo), 0, nil
		}
	}
	h, err := live.Open(opts.DB, seedFn, bo)
	if err != nil {
		return nil, fmt.Errorf("parj: %w", err)
	}
	return &Store{live: h}, nil
}

// Write applies one batch to the live store while queries run — deletes
// first, then inserts — and returns its write-batch sequence number. The
// store is a set: inserting a stored triple or deleting an absent one is a
// no-op. The batch lands in the current epoch's delta overlay; queries
// admitted afterwards see it, queries already running keep their pinned
// epoch. On a durable store Write returns only once the sync policy has
// acknowledged the batch; an error after a non-zero sequence means the
// batch is visible to queries but its durability is unknown — the store
// should be closed and recovered.
func (s *Store) Write(inserts, deletes []Triple) (uint64, error) {
	return s.live.Apply(0, inserts, deletes)
}

// Checkpoint publishes the current view as a snapshot checkpoint paired
// with its write sequence and prunes log segments it covers. Queries and
// writes keep running throughout. No-op on a volatile store.
func (s *Store) Checkpoint() error { return s.live.Checkpoint() }

// DurabilityStats reports the store's durable position (zero value for a
// volatile store).
func (s *Store) DurabilityStats() DurabilityStats { return s.live.Durability() }

// Close quiesces background work and closes the write-ahead log, flushing
// any unsynced suffix. Volatile stores need not call it (it is then a
// no-op), but durable stores must: writes acknowledged under SyncInterval
// or SyncNever become durable at the latest here.
func (s *Store) Close() error { return s.live.Close() }

package wal

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"parj/internal/resilience"
)

// SyncPolicy selects when appended records become durable.
type SyncPolicy int

const (
	// SyncAlways acknowledges a record only after its frame is fsynced.
	// Group commit amortizes the fsync across concurrent writers.
	SyncAlways SyncPolicy = iota
	// SyncInterval fsyncs on a timer (Options.Interval); a crash can lose
	// up to one interval of acknowledged writes.
	SyncInterval
	// SyncNever leaves flushing to the operating system; a crash can lose
	// everything since the last segment rotation or checkpoint.
	SyncNever
)

func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncNever:
		return "never"
	}
	return fmt.Sprintf("SyncPolicy(%d)", int(p))
}

// ParseSyncPolicy maps the flag spellings to a policy.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always", "":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "never":
		return SyncNever, nil
	}
	return 0, fmt.Errorf("wal: unknown sync policy %q (want always, interval or never)", s)
}

// ErrClosed reports an operation on a closed log.
var ErrClosed = errors.New("wal: log closed")

// Options configures a Log.
type Options struct {
	// Dir is the log directory; used only when FS is nil.
	Dir string
	// FS overrides the filesystem — tests inject the crash layer here.
	FS FS
	// Sync is the durability policy (default SyncAlways).
	Sync SyncPolicy
	// Interval is the SyncInterval flush period (default 50ms).
	Interval time.Duration
	// SegmentBytes rotates segments past this size (default 4 MiB).
	SegmentBytes int64
	// Clock drives the interval flusher (default the wall clock).
	Clock resilience.Clock
}

// Stats is a point-in-time summary of the log's position.
type Stats struct {
	// FirstSeq and LastSeq bound the replayable records (0,0 when empty).
	FirstSeq, LastSeq uint64
	// DurableSeq is the highest fsync-covered sequence.
	DurableSeq uint64
	// CheckpointSeq is the newest checkpoint's covered position.
	CheckpointSeq uint64
	// Segments is the live segment-file count.
	Segments int
}

type segmentInfo struct {
	name  string
	start uint64
}

// Log is an append-only log of sequenced write batches. One Log owns its
// directory; all methods are safe for concurrent use.
type Log struct {
	fs    FS
	opts  Options
	clock resilience.Clock

	mu         sync.Mutex
	cond       *sync.Cond // rotation waits out an in-flight group fsync
	seg        File       // active segment, nil until first append
	segBytes   int64
	segments   []segmentInfo
	firstSeq   uint64
	lastSeq    uint64
	durableSeq uint64
	ckpts      []uint64 // covered positions of live checkpoints, ascending
	waiters    []waiter
	err        error // sticky: the log refuses writes after an I/O failure
	closed     bool
	syncing    bool
	encBuf     []byte

	ckptMu sync.Mutex // serializes Checkpoint

	flushCh chan struct{}
	stopCh  chan struct{}
	wg      sync.WaitGroup
}

type waiter struct {
	seq uint64
	ch  chan error
}

// Commit is the durability handle of one enqueued record. Wait blocks
// until the record is fsync-covered (or the log fails); under policies
// weaker than SyncAlways it returns immediately.
type Commit struct {
	ch  chan error
	err error
}

// Wait blocks until the enqueued record is durable and returns the
// flush outcome. Wait must be called at most once per Commit.
func (c *Commit) Wait() error {
	if c == nil || c.ch == nil {
		if c != nil {
			return c.err
		}
		return nil
	}
	return <-c.ch
}

var doneCommit = &Commit{}

// Open opens (or creates) the log in opts.Dir / opts.FS, scanning every
// segment to recover the durable tail: CRCs and sequence continuity are
// verified, a torn tail of the final segment is truncated away, and any
// other damage is ErrCorruptWAL.
func Open(opts Options) (*Log, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = 4 << 20
	}
	if opts.Interval <= 0 {
		opts.Interval = 50 * time.Millisecond
	}
	fs := opts.FS
	if fs == nil {
		if opts.Dir == "" {
			return nil, errors.New("wal: Options.Dir or Options.FS required")
		}
		var err error
		if fs, err = NewOSFS(opts.Dir); err != nil {
			return nil, err
		}
	}
	clock := opts.Clock
	if clock == nil {
		clock = resilience.RealClock{}
	}
	l := &Log{
		fs:      fs,
		opts:    opts,
		clock:   clock,
		flushCh: make(chan struct{}, 1),
		stopCh:  make(chan struct{}),
	}
	l.cond = sync.NewCond(&l.mu)
	if err := l.recover(); err != nil {
		return nil, err
	}
	switch {
	case opts.Sync == SyncAlways:
		l.wg.Add(1)
		go l.groupFlusher()
	case opts.Sync == SyncInterval:
		l.wg.Add(1)
		go l.intervalFlusher()
	}
	return l, nil
}

// recover scans the directory: removes leftover temp files, validates
// every segment in order, repairs a torn tail, and positions the log for
// appending.
func (l *Log) recover() error {
	names, err := l.fs.List()
	if err != nil {
		return fmt.Errorf("wal: list: %w", err)
	}
	dirty := false
	for _, name := range names {
		switch {
		case len(name) > len(tmpSuffix) && name[len(name)-len(tmpSuffix):] == tmpSuffix:
			// An interrupted checkpoint; the rename never happened.
			if err := l.fs.Remove(name); err != nil {
				return fmt.Errorf("wal: drop temp %s: %w", name, err)
			}
			dirty = true
		default:
			if seq, ok := parseCkptName(name); ok {
				l.ckpts = append(l.ckpts, seq)
			} else if start, ok := parseSegName(name); ok {
				l.segments = append(l.segments, segmentInfo{name: name, start: start})
			}
		}
	}
	// List returns sorted names and the fixed-width hex names sort by
	// sequence, so segments and checkpoints are already ascending.
	prev := uint64(0)
	for i, seg := range l.segments {
		last := i == len(l.segments)-1
		data, err := readFile(l.fs, seg.name)
		if err != nil {
			return fmt.Errorf("wal: read %s: %w", seg.name, err)
		}
		first := true
		validLen, err := scanFrames(data, last, func(payload []byte) error {
			rec, err := decodeRecord(payload)
			if err != nil {
				return err
			}
			if first {
				first = false
				if rec.Seq != seg.start {
					return corruptf("segment %s starts with record %d", seg.name, rec.Seq)
				}
				if prev != 0 && rec.Seq != prev+1 {
					return corruptf("sequence hole: %d follows %d", rec.Seq, prev)
				}
				if l.firstSeq == 0 {
					l.firstSeq = rec.Seq
				}
			} else if rec.Seq != prev+1 {
				return corruptf("sequence hole: %d follows %d", rec.Seq, prev)
			}
			prev = rec.Seq
			return nil
		})
		if err != nil {
			return fmt.Errorf("wal: %s: %w", seg.name, err)
		}
		if !last {
			continue
		}
		if first {
			// A final segment with no records: rotation died between
			// creating it and landing the first frame (possibly before
			// the header). Drop the husk — the next append recreates a
			// segment named for whatever sequence actually comes next.
			if err := l.fs.Remove(seg.name); err != nil {
				return fmt.Errorf("wal: drop torn segment %s: %w", seg.name, err)
			}
			l.segments = l.segments[:i]
			dirty = true
			break
		}
		if validLen < len(data) {
			if err := l.fs.Truncate(seg.name, int64(validLen)); err != nil {
				return fmt.Errorf("wal: repair torn tail of %s: %w", seg.name, err)
			}
		}
		f, err := l.fs.OpenAppend(seg.name)
		if err != nil {
			return fmt.Errorf("wal: reopen %s: %w", seg.name, err)
		}
		l.seg = f
		l.segBytes = int64(validLen)
	}
	l.lastSeq = prev
	l.durableSeq = prev // everything read back was on disk
	if dirty {
		if err := l.fs.SyncDir(); err != nil {
			return fmt.Errorf("wal: commit recovery cleanup: %w", err)
		}
	}
	return nil
}

func readFile(fs FS, name string) ([]byte, error) {
	f, err := fs.Open(name)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return io.ReadAll(f)
}

// Stats returns the log's current position.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return Stats{
		FirstSeq:      l.firstSeq,
		LastSeq:       l.lastSeq,
		DurableSeq:    l.durableSeq,
		CheckpointSeq: l.ckptSeqLocked(),
		Segments:      len(l.segments),
	}
}

// FirstSeq is the oldest replayable sequence (0 when the log is empty).
func (l *Log) FirstSeq() uint64 { l.mu.Lock(); defer l.mu.Unlock(); return l.firstSeq }

// LastSeq is the newest appended sequence (0 when the log is empty).
func (l *Log) LastSeq() uint64 { l.mu.Lock(); defer l.mu.Unlock(); return l.lastSeq }

// DurableSeq is the newest fsync-covered sequence.
func (l *Log) DurableSeq() uint64 { l.mu.Lock(); defer l.mu.Unlock(); return l.durableSeq }

// CheckpointSeq is the newest checkpoint's covered sequence (0 if none).
func (l *Log) CheckpointSeq() uint64 { l.mu.Lock(); defer l.mu.Unlock(); return l.ckptSeqLocked() }

func (l *Log) ckptSeqLocked() uint64 {
	if len(l.ckpts) == 0 {
		return 0
	}
	return l.ckpts[len(l.ckpts)-1]
}

// Append enqueues rec and waits for it to reach the configured
// durability: Enqueue + Wait.
func (l *Log) Append(rec Record) error {
	c, err := l.Enqueue(rec)
	if err != nil {
		return err
	}
	return c.Wait()
}

// Enqueue appends rec to the active segment and returns a Commit whose
// Wait blocks until the record is durable under the configured policy.
// Records must arrive in sequence: rec.Seq must be LastSeq+1 (any
// positive seq starts an empty log). Enqueue itself never blocks on
// fsync — callers holding a writer lock can enqueue under it and Wait
// after releasing, which is what lets sequential writers group-commit.
func (l *Log) Enqueue(rec Record) (*Commit, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil, ErrClosed
	}
	if l.err != nil {
		return nil, l.err
	}
	if rec.Seq == 0 {
		return nil, errors.New("wal: record sequence must be positive")
	}
	if l.lastSeq != 0 && rec.Seq != l.lastSeq+1 {
		return nil, fmt.Errorf("wal: out-of-order append: log at %d, got %d", l.lastSeq, rec.Seq)
	}
	frame, err := appendRecord(l.encBuf[:0], rec)
	if err != nil {
		return nil, err
	}
	l.encBuf = frame[:0]
	if l.seg == nil || (l.segBytes+int64(len(frame)) > l.opts.SegmentBytes && l.segBytes > int64(len(segHeader))) {
		if err := l.rotateLocked(rec.Seq); err != nil {
			return nil, l.fail(err)
		}
	}
	if _, err := l.seg.Write(frame); err != nil {
		return nil, l.fail(fmt.Errorf("wal: append %d: %w", rec.Seq, err))
	}
	l.segBytes += int64(len(frame))
	l.lastSeq = rec.Seq
	if l.firstSeq == 0 {
		l.firstSeq = rec.Seq
	}
	if l.opts.Sync != SyncAlways {
		return doneCommit, nil
	}
	c := &Commit{ch: make(chan error, 1)}
	l.waiters = append(l.waiters, waiter{seq: rec.Seq, ch: c.ch})
	select {
	case l.flushCh <- struct{}{}:
	default:
	}
	return c, nil
}

// rotateLocked closes out the active segment (fsyncing it, so rotation
// is itself a durability barrier) and starts a fresh one named by the
// next record's sequence. The new segment's header — and its directory
// entry — are fsynced before any record lands in it.
func (l *Log) rotateLocked(nextSeq uint64) error {
	for l.syncing {
		l.cond.Wait() // never fsync/close a file the flusher holds
	}
	if l.seg != nil {
		if err := l.seg.Sync(); err != nil {
			return fmt.Errorf("wal: rotate: sync old segment: %w", err)
		}
		l.durableSeq = l.lastSeq
		l.completeWaitersLocked()
		if err := l.seg.Close(); err != nil {
			return fmt.Errorf("wal: rotate: close old segment: %w", err)
		}
		l.seg = nil
	}
	name := segName(nextSeq)
	f, err := l.fs.Create(name)
	if err != nil {
		return fmt.Errorf("wal: create segment %s: %w", name, err)
	}
	if _, err := f.Write([]byte(segHeader)); err != nil {
		return fmt.Errorf("wal: write segment header: %w", err)
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("wal: sync segment header: %w", err)
	}
	if err := l.fs.SyncDir(); err != nil {
		return fmt.Errorf("wal: sync dir after rotation: %w", err)
	}
	l.seg = f
	l.segBytes = int64(len(segHeader))
	l.segments = append(l.segments, segmentInfo{name: name, start: nextSeq})
	return nil
}

// AlignTo fast-forwards the append position to seq when the log tail has
// fallen behind it — the recovery case where a checkpoint covers batches
// the log no longer holds because tail damage was truncated away. The next
// record then extends the stream at seq+1 in a fresh segment (so segment
// contents stay contiguous; replay from an older fallback checkpoint
// surfaces the missing range as a sequence gap instead of silently
// skipping it). A log already at or past seq is left untouched.
func (l *Log) AlignTo(seq uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.err != nil {
		return l.err
	}
	// An empty log accepts any starting sequence; only a non-empty tail
	// that ends short of seq needs realignment.
	if l.lastSeq == 0 || l.lastSeq >= seq {
		return nil
	}
	if err := l.rotateLocked(seq + 1); err != nil {
		return l.fail(err)
	}
	l.lastSeq = seq
	l.durableSeq = seq // covered by the checkpoint that outran the tail
	return nil
}

// fail poisons the log (mu held): the sticky error is returned to every
// parked and future writer. A log that failed mid-append may hold a torn
// frame; reopening repairs it.
func (l *Log) fail(err error) error {
	if l.err == nil {
		l.err = err
	}
	for _, w := range l.waiters {
		w.ch <- l.err
	}
	l.waiters = l.waiters[:0]
	return l.err
}

func (l *Log) completeWaitersLocked() {
	kept := l.waiters[:0]
	for _, w := range l.waiters {
		if w.seq <= l.durableSeq {
			w.ch <- nil
		} else {
			kept = append(kept, w)
		}
	}
	l.waiters = kept
}

// groupFlusher is the single fsync issuer under SyncAlways: it snapshots
// the active segment and the highest enqueued sequence, fsyncs outside
// the log mutex (writers keep enqueuing meanwhile), then wakes every
// waiter the fsync covered. One fsync acknowledges a whole convoy.
func (l *Log) groupFlusher() {
	defer l.wg.Done()
	for {
		select {
		case <-l.stopCh:
			return
		case <-l.flushCh:
		}
		for {
			l.mu.Lock()
			if l.err != nil || l.closed || l.seg == nil || l.lastSeq <= l.durableSeq {
				l.mu.Unlock()
				break
			}
			seg, target := l.seg, l.lastSeq
			l.syncing = true
			l.mu.Unlock()

			err := seg.Sync()

			l.mu.Lock()
			l.syncing = false
			l.cond.Broadcast()
			if err != nil {
				l.fail(fmt.Errorf("wal: group fsync: %w", err))
				l.mu.Unlock()
				break
			}
			if target > l.durableSeq {
				l.durableSeq = target
			}
			l.completeWaitersLocked()
			again := l.lastSeq > l.durableSeq
			l.mu.Unlock()
			if !again {
				break
			}
		}
	}
}

// intervalFlusher fsyncs on the clock under SyncInterval.
func (l *Log) intervalFlusher() {
	defer l.wg.Done()
	for {
		select {
		case <-l.stopCh:
			return
		case <-l.clock.After(l.opts.Interval):
		}
		l.mu.Lock()
		if l.err != nil || l.closed || l.seg == nil || l.lastSeq <= l.durableSeq {
			l.mu.Unlock()
			continue
		}
		seg, target := l.seg, l.lastSeq
		l.syncing = true
		l.mu.Unlock()

		err := seg.Sync()

		l.mu.Lock()
		l.syncing = false
		l.cond.Broadcast()
		if err != nil {
			l.fail(fmt.Errorf("wal: interval fsync: %w", err))
		} else if target > l.durableSeq {
			l.durableSeq = target
		}
		l.mu.Unlock()
	}
}

// Sync forces an fsync of the active segment — a manual durability
// barrier for the weaker policies.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.err != nil {
		return l.err
	}
	return l.syncLocked()
}

func (l *Log) syncLocked() error {
	for l.syncing {
		l.cond.Wait()
	}
	if l.seg == nil || l.lastSeq <= l.durableSeq {
		return nil
	}
	if err := l.seg.Sync(); err != nil {
		return l.fail(fmt.Errorf("wal: sync: %w", err))
	}
	l.durableSeq = l.lastSeq
	l.completeWaitersLocked()
	return nil
}

// Replay streams the records with sequence ≥ from, in order, re-reading
// and re-verifying the segment files. fn errors abort the replay.
func (l *Log) Replay(from uint64, fn func(Record) error) error {
	l.mu.Lock()
	segs := append([]segmentInfo(nil), l.segments...)
	l.mu.Unlock()
	for i, seg := range segs {
		if i+1 < len(segs) && segs[i+1].start <= from {
			continue // every record here is < from
		}
		data, err := readFile(l.fs, seg.name)
		if err != nil {
			return fmt.Errorf("wal: replay %s: %w", seg.name, err)
		}
		_, err = scanFrames(data, i == len(segs)-1, func(payload []byte) error {
			rec, err := decodeRecord(payload)
			if err != nil {
				return err
			}
			if rec.Seq < from {
				return nil
			}
			return fn(rec)
		})
		if err != nil {
			return fmt.Errorf("wal: replay %s: %w", seg.name, err)
		}
	}
	return nil
}

// Prune removes whole segments every record of which is ≤ upTo — the
// retention knob. The active segment and any segment needed to replay
// from upTo+1 survive.
func (l *Log) Prune(upTo uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.pruneLocked(upTo)
}

func (l *Log) pruneLocked(upTo uint64) error {
	removed := false
	kept := l.segments[:0]
	for i, seg := range l.segments {
		// A segment is removable only when the next segment's start
		// proves every record in it is ≤ upTo.
		if i+1 < len(l.segments) && l.segments[i+1].start <= upTo+1 {
			if err := l.fs.Remove(seg.name); err != nil {
				return fmt.Errorf("wal: prune %s: %w", seg.name, err)
			}
			removed = true
			continue
		}
		kept = append(kept, seg)
	}
	l.segments = append([]segmentInfo(nil), kept...)
	if removed {
		if len(l.segments) > 0 {
			l.firstSeq = l.segments[0].start
		}
		if err := l.fs.SyncDir(); err != nil {
			return fmt.Errorf("wal: commit prune: %w", err)
		}
	}
	return nil
}

// Close flushes and closes the log. Parked writers are woken with the
// flush outcome.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.mu.Unlock()
	close(l.stopCh)
	l.wg.Wait()

	l.mu.Lock()
	defer l.mu.Unlock()
	l.closed = true
	var err error
	if l.err == nil && l.seg != nil && l.opts.Sync != SyncNever {
		err = l.syncLocked()
	}
	l.fail(ErrClosed) // release any writer still parked
	if l.seg != nil {
		if cerr := l.seg.Close(); err == nil {
			err = cerr
		}
		l.seg = nil
	}
	return err
}

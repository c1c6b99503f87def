package wal

import (
	"bufio"
	"fmt"
	"io"
	"sort"
)

// checkpoint.go — pairing snapshots with log positions.
//
// A checkpoint file ckpt-%016x.snap holds whatever the caller's save
// function writes (the store layer writes a store snapshot) and its name
// records the last write sequence the snapshot covers. Recovery loads
// the newest loadable checkpoint and replays the WAL suffix after it.
//
// The write protocol is the standard atomic-publish dance: write to a
// .tmp name, fsync the file, rename into place, fsync the directory.
// A crash anywhere leaves either the old checkpoint set or the new one —
// never a half-written .snap (Open removes stray .tmp files).
//
// After publishing, segments whose every record the checkpoint covers
// are pruned, and all but the newest two checkpoints are removed: the
// previous one is kept as a fallback so a latent media error in the
// newest snapshot (caught by its CRC on load) does not strand recovery.

// keepCheckpoints is how many newest checkpoints survive pruning.
const keepCheckpoints = 2

// Checkpoint atomically publishes a checkpoint covering sequence seq,
// writing its contents via save, then prunes segments and checkpoints
// the new one obsoletes. seq must not precede an existing checkpoint.
func (l *Log) Checkpoint(seq uint64, save func(io.Writer) error) error {
	l.ckptMu.Lock()
	defer l.ckptMu.Unlock()
	if cur := l.CheckpointSeq(); seq < cur {
		return fmt.Errorf("wal: stale checkpoint %d (newest covers %d)", seq, cur)
	} else if seq == cur && cur != 0 {
		return nil // already covered
	}

	name := ckptName(seq)
	tmp := name + tmpSuffix
	f, err := l.fs.Create(tmp)
	if err != nil {
		return fmt.Errorf("wal: create checkpoint: %w", err)
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	if err := save(bw); err != nil {
		f.Close()
		l.fs.Remove(tmp)
		return fmt.Errorf("wal: write checkpoint %d: %w", seq, err)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		l.fs.Remove(tmp)
		return fmt.Errorf("wal: flush checkpoint %d: %w", seq, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		l.fs.Remove(tmp)
		return fmt.Errorf("wal: sync checkpoint %d: %w", seq, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("wal: close checkpoint %d: %w", seq, err)
	}
	if err := l.fs.Rename(tmp, name); err != nil {
		return fmt.Errorf("wal: publish checkpoint %d: %w", seq, err)
	}
	if err := l.fs.SyncDir(); err != nil {
		return fmt.Errorf("wal: commit checkpoint %d: %w", seq, err)
	}

	l.mu.Lock()
	defer l.mu.Unlock()
	l.ckpts = append(l.ckpts, seq)
	sort.Slice(l.ckpts, func(i, j int) bool { return l.ckpts[i] < l.ckpts[j] })
	// Retire everything the new checkpoint obsoletes.
	for len(l.ckpts) > keepCheckpoints {
		old := l.ckpts[0]
		if err := l.fs.Remove(ckptName(old)); err != nil {
			return fmt.Errorf("wal: prune checkpoint %d: %w", old, err)
		}
		l.ckpts = l.ckpts[1:]
	}
	return l.pruneLocked(seq)
}

// Checkpoints lists the covered sequences of the live checkpoints,
// newest first.
func (l *Log) Checkpoints() []uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]uint64, len(l.ckpts))
	for i, seq := range l.ckpts {
		out[len(out)-1-i] = seq
	}
	return out
}

// OpenCheckpoint opens the checkpoint covering seq for reading.
func (l *Log) OpenCheckpoint(seq uint64) (io.ReadCloser, error) {
	f, err := l.fs.Open(ckptName(seq))
	if err != nil {
		return nil, fmt.Errorf("wal: open checkpoint %d: %w", seq, err)
	}
	return readCloser{bufio.NewReaderSize(f, 1<<20), f}, nil
}

type readCloser struct {
	io.Reader
	io.Closer
}

package main

import (
	"sync/atomic"
	"time"

	"parj/internal/wal"
)

// floorFS wraps a wal.FS so that every fsync (file or directory) takes at
// least floor and is counted, along with the bytes written. The sandbox
// answers fsync from the page cache in ~0.15 ms, which hides the convoy
// effects group commit exists for; a modelled flush makes them repeatable.
// The counters are the device-level view of the WAL layer.
type floorFS struct {
	wal.FS
	floor time.Duration

	syncs    atomic.Int64 // file fsyncs
	dirSyncs atomic.Int64 // directory fsyncs
	bytes    atomic.Int64 // bytes written to files
	writes   atomic.Int64 // write calls
}

func newFloorFS(inner wal.FS, floor time.Duration) *floorFS {
	return &floorFS{FS: inner, floor: floor}
}

// hold runs one flush and then waits out what is left of the floor.
func (fs *floorFS) hold(flush func() error) error {
	start := time.Now()
	err := flush()
	if rest := fs.floor - time.Since(start); rest > 0 {
		time.Sleep(rest)
	}
	return err
}

func (fs *floorFS) wrap(f wal.File, err error) (wal.File, error) {
	if err != nil {
		return nil, err
	}
	return &floorFile{File: f, fs: fs}, nil
}

func (fs *floorFS) Create(name string) (wal.File, error)     { return fs.wrap(fs.FS.Create(name)) }
func (fs *floorFS) OpenAppend(name string) (wal.File, error) { return fs.wrap(fs.FS.OpenAppend(name)) }

func (fs *floorFS) SyncDir() error {
	fs.dirSyncs.Add(1)
	return fs.hold(fs.FS.SyncDir)
}

type floorFile struct {
	wal.File
	fs *floorFS
}

func (f *floorFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.fs.bytes.Add(int64(n))
	f.fs.writes.Add(1)
	return n, err
}

func (f *floorFile) Sync() error {
	f.fs.syncs.Add(1)
	return f.fs.hold(f.File.Sync)
}

// fsCounters is a point-in-time copy of the counters.
type fsCounters struct{ syncs, dirSyncs, bytes, writes int64 }

func (fs *floorFS) counters() fsCounters {
	return fsCounters{fs.syncs.Load(), fs.dirSyncs.Load(), fs.bytes.Load(), fs.writes.Load()}
}

func (c fsCounters) sub(o fsCounters) fsCounters {
	return fsCounters{c.syncs - o.syncs, c.dirSyncs - o.dirSyncs, c.bytes - o.bytes, c.writes - o.writes}
}

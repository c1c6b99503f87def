package wal

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
)

// memfs.go — a deterministic crash-injection filesystem.
//
// MemFS models exactly the durability semantics the WAL's protocol must
// defend against:
//
//   - File bytes written but not yet File.Sync'd live in a pending buffer
//     that a crash discards (the page cache).
//   - Directory entries created, renamed or removed are pending until
//     SyncDir commits the namespace; a crash rolls the namespace back to
//     the last committed one — a fully fsynced file whose entry was never
//     dir-fsynced vanishes.
//
// Faults are scripted, not random: FailAt arms a rule that fires on the
// Nth operation of a given kind, either crashing the "process" before or
// after the operation, persisting only a prefix of a write (a torn write
// that does survive the crash), or returning a short-write error without
// crashing. After a crash every subsequent operation fails with
// ErrCrashed; Recover yields a fresh MemFS seeded with exactly the bytes
// and entries that were durable — the disk as the restarted process finds
// it.
//
// Unscripted, it is also the plain in-memory backing of a volatile log: the
// cluster coordinator journals its write stream through a wal.Log on a
// MemFS under SyncNever when it is not configured to be durable, so replay
// and retention take the same path in both configurations.

// ErrCrashed reports an operation on a MemFS whose simulated process has
// been killed.
var ErrCrashed = errors.New("wal: simulated crash")

// ErrShortWrite reports an injected short write (disk-full style): part of
// the data was accepted, the process keeps running.
var ErrShortWrite = errors.New("wal: injected short write")

// Op identifies a filesystem operation kind for fault scripting.
type Op int

// Operation kinds an injected fault can target.
const (
	OpWrite Op = iota
	OpSync
	OpCreate
	OpRename
	OpRemove
	OpDirSync
	OpTruncate
)

var opNames = map[Op]string{
	OpWrite: "write", OpSync: "sync", OpCreate: "create",
	OpRename: "rename", OpRemove: "remove", OpDirSync: "dirsync",
	OpTruncate: "truncate",
}

func (o Op) String() string { return opNames[o] }

// Fault is what happens when an armed rule fires.
type Fault int

// Fault kinds.
const (
	// CrashBefore kills the process before the operation takes effect.
	CrashBefore Fault = iota
	// CrashAfter lets the operation take effect, then kills the process;
	// the operation itself reports success and death is observed on the
	// next call.
	CrashAfter
	// TornWrite (OpWrite only) persists a prefix of the write across the
	// crash — the classic torn final frame.
	TornWrite
	// ShortWrite (OpWrite only) accepts a prefix and returns ErrShortWrite
	// without crashing; the process survives to observe the error.
	ShortWrite
)

type faultRule struct {
	op    Op
	n     int // fires on the n-th matching operation, 1-based
	fault Fault
	fired bool
}

type memFile struct {
	durable []byte
	pending []byte
}

func (f *memFile) size() int { return len(f.durable) + len(f.pending) }

// MemFS is an in-memory FS with scripted crash injection. The zero value
// is not usable; call NewMemFS.
type MemFS struct {
	mu      sync.Mutex
	view    map[string]*memFile // the live namespace the process sees
	durable map[string]*memFile // the namespace a crash rolls back to
	crashed bool

	rules       []*faultRule
	counts      map[Op]int
	skipDirSync bool
	flipByte    int // bit-flip offset from end of last wal segment at Recover; -1 = off
	syncs       int
}

// NewMemFS returns an empty crash-injectable filesystem.
func NewMemFS() *MemFS {
	return &MemFS{
		view:     map[string]*memFile{},
		durable:  map[string]*memFile{},
		counts:   map[Op]int{},
		flipByte: -1,
	}
}

// FailAt arms a fault rule: the n-th operation (1-based) of kind op
// triggers fault. Multiple rules may be armed; each fires at most once.
func (fs *MemFS) FailAt(op Op, n int, fault Fault) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.rules = append(fs.rules, &faultRule{op: op, n: n, fault: fault})
}

// SkipDirSync makes SyncDir silently succeed without committing the
// namespace — modeling a filesystem (or code path) that skips the
// directory fsync, so entries created since the last real commit vanish
// on crash.
func (fs *MemFS) SkipDirSync(skip bool) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.skipDirSync = skip
}

// FlipBitOnRecover arms a single bit flip applied at Recover time to the
// durable bytes of the lexically last WAL segment, offset bytes from its
// end — silent media corruption discovered only on reopen.
func (fs *MemFS) FlipBitOnRecover(offsetFromEnd int) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.flipByte = offsetFromEnd
}

// Crash kills the simulated process: every subsequent operation fails
// with ErrCrashed until Recover.
func (fs *MemFS) Crash() {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.crashLocked(nil)
}

// Crashed reports whether the simulated process has been killed.
func (fs *MemFS) Crashed() bool {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.crashed
}

// Syncs reports how many file fsyncs have completed — the cost metric
// group commit exists to reduce.
func (fs *MemFS) Syncs() int {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.syncs
}

// crashLocked marks the process dead. keep, when non-nil, is the file
// whose pending bytes survive the crash (a torn write that hit the
// platter); all other pending bytes are lost.
func (fs *MemFS) crashLocked(keep *memFile) {
	if fs.crashed {
		return
	}
	fs.crashed = true
	if keep != nil {
		keep.durable = append(keep.durable, keep.pending...)
		keep.pending = nil
	}
}

// Recover returns the filesystem as a restarted process finds it: only
// durable bytes of files whose directory entries were committed, no armed
// faults. The receiver stays crashed; the result is independent.
func (fs *MemFS) Recover() *MemFS {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	nfs := NewMemFS()
	for name, f := range fs.durable {
		nf := &memFile{durable: append([]byte(nil), f.durable...)}
		nfs.view[name] = nf
		nfs.durable[name] = nf
	}
	if fs.flipByte >= 0 {
		var names []string
		for name := range nfs.view {
			if strings.HasPrefix(name, segPrefix) && strings.HasSuffix(name, segSuffix) {
				names = append(names, name)
			}
		}
		sort.Strings(names)
		if len(names) > 0 {
			f := nfs.view[names[len(names)-1]]
			if i := len(f.durable) - 1 - fs.flipByte; i >= 0 {
				f.durable[i] ^= 1 << uint(fs.flipByte%8)
			}
		}
	}
	return nfs
}

// check counts the operation and fires any due rule. It returns the fault
// to apply (or -1) and whether the operation may proceed.
func (fs *MemFS) check(op Op) (Fault, error) {
	if fs.crashed {
		return -1, ErrCrashed
	}
	fs.counts[op]++
	for _, r := range fs.rules {
		if r.fired || r.op != op || fs.counts[op] != r.n {
			continue
		}
		r.fired = true
		if r.fault == CrashBefore {
			fs.crashLocked(nil)
			return -1, ErrCrashed
		}
		return r.fault, nil
	}
	return -1, nil
}

// Create implements FS. The entry is pending until SyncDir.
func (fs *MemFS) Create(name string) (File, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fault, err := fs.check(OpCreate)
	if err != nil {
		return nil, err
	}
	f := &memFile{}
	fs.view[name] = f
	if fault == CrashAfter {
		fs.crashLocked(nil)
	}
	return &memHandle{fs: fs, f: f, writable: true}, nil
}

// Open implements FS.
func (fs *MemFS) Open(name string) (File, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.crashed {
		return nil, ErrCrashed
	}
	f, ok := fs.view[name]
	if !ok {
		return nil, fmt.Errorf("wal: open %s: %w", name, errNotExist)
	}
	return &memHandle{fs: fs, f: f}, nil
}

// OpenAppend implements FS.
func (fs *MemFS) OpenAppend(name string) (File, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.crashed {
		return nil, ErrCrashed
	}
	f, ok := fs.view[name]
	if !ok {
		return nil, fmt.Errorf("wal: append %s: %w", name, errNotExist)
	}
	return &memHandle{fs: fs, f: f, writable: true, pos: f.size()}, nil
}

// List implements FS.
func (fs *MemFS) List() ([]string, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.crashed {
		return nil, ErrCrashed
	}
	names := make([]string, 0, len(fs.view))
	for name := range fs.view {
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

// Remove implements FS. Removal is pending until SyncDir.
func (fs *MemFS) Remove(name string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fault, err := fs.check(OpRemove)
	if err != nil {
		return err
	}
	if _, ok := fs.view[name]; !ok {
		return fmt.Errorf("wal: remove %s: %w", name, errNotExist)
	}
	delete(fs.view, name)
	if fault == CrashAfter {
		fs.crashLocked(nil)
	}
	return nil
}

// Rename implements FS. The rename is pending until SyncDir.
func (fs *MemFS) Rename(oldName, newName string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fault, err := fs.check(OpRename)
	if err != nil {
		return err
	}
	f, ok := fs.view[oldName]
	if !ok {
		return fmt.Errorf("wal: rename %s: %w", oldName, errNotExist)
	}
	delete(fs.view, oldName)
	fs.view[newName] = f
	if fault == CrashAfter {
		fs.crashLocked(nil)
	}
	return nil
}

// Truncate implements FS. The truncation applies to the combined bytes
// and is treated as immediately durable up to the durable prefix — the
// log only truncates during recovery repair, before new appends.
func (fs *MemFS) Truncate(name string, size int64) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fault, err := fs.check(OpTruncate)
	if err != nil {
		return err
	}
	f, ok := fs.view[name]
	if !ok {
		return fmt.Errorf("wal: truncate %s: %w", name, errNotExist)
	}
	if n := int(size); n < f.size() {
		if n <= len(f.durable) {
			f.durable = f.durable[:n]
			f.pending = nil
		} else {
			f.pending = f.pending[:n-len(f.durable)]
		}
	}
	if fault == CrashAfter {
		fs.crashLocked(nil)
	}
	return nil
}

// SyncDir implements FS: it commits the namespace, unless SkipDirSync is
// in force.
func (fs *MemFS) SyncDir() error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fault, err := fs.check(OpDirSync)
	if err != nil {
		return err
	}
	if !fs.skipDirSync {
		fs.durable = make(map[string]*memFile, len(fs.view))
		for name, f := range fs.view {
			fs.durable[name] = f
		}
	}
	if fault == CrashAfter {
		fs.crashLocked(nil)
	}
	return nil
}

var errNotExist = errors.New("file does not exist")

type memHandle struct {
	fs       *MemFS
	f        *memFile
	pos      int
	writable bool
	closed   bool
}

func (h *memHandle) Read(p []byte) (int, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.fs.crashed {
		return 0, ErrCrashed
	}
	if h.closed {
		return 0, errors.New("wal: read on closed file")
	}
	if h.pos >= h.f.size() {
		return 0, io.EOF
	}
	// Copy straight from the durable bytes, then the pending ones: a read
	// costs what it returns, not the file's size.
	n := 0
	if d := len(h.f.durable); h.pos < d {
		n = copy(p, h.f.durable[h.pos:])
	}
	if start := h.pos + n - len(h.f.durable); n < len(p) && start >= 0 {
		n += copy(p[n:], h.f.pending[start:])
	}
	h.pos += n
	return n, nil
}

func (h *memHandle) Write(p []byte) (int, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	fault, err := h.fs.check(OpWrite)
	if err != nil {
		return 0, err
	}
	if h.closed || !h.writable {
		return 0, errors.New("wal: write on closed or read-only file")
	}
	switch fault {
	case TornWrite:
		keep := len(p) / 2
		h.f.pending = append(h.f.pending, p[:keep]...)
		h.fs.crashLocked(h.f)
		return keep, ErrCrashed
	case ShortWrite:
		keep := len(p) / 2
		h.f.pending = append(h.f.pending, p[:keep]...)
		h.pos = h.f.size()
		return keep, ErrShortWrite
	}
	h.f.pending = append(h.f.pending, p...)
	h.pos = h.f.size()
	if fault == CrashAfter {
		h.fs.crashLocked(nil)
	}
	return len(p), nil
}

func (h *memHandle) Sync() error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	fault, err := h.fs.check(OpSync)
	if err != nil {
		return err
	}
	h.f.durable = append(h.f.durable, h.f.pending...)
	h.f.pending = nil
	h.fs.syncs++
	if fault == CrashAfter {
		h.fs.crashLocked(nil)
	}
	return nil
}

func (h *memHandle) Close() error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	h.closed = true
	return nil
}

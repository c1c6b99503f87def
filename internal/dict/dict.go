// Package dict implements the dictionary encoding used by PARJ.
//
// Every value encountered in the RDF data is assigned a dense integer ID.
// Following the paper (§3), values appearing in the subject and object
// positions share a common numbering, while values appearing in the
// predicate position have their own, separate numbering. IDs start at 1;
// ID 0 is reserved to mean "absent".
package dict

import (
	"fmt"
	"hash/maphash"
	"sync"
	"unsafe"
)

// NoID is the reserved ID meaning "no such value".
const NoID uint32 = 0

// Arena chunk sizes: the first chunk is small so that a small dictionary
// stays small, each later one doubles up to maxChunk, which bounds the
// unfilled tail of the last chunk, and a term longer than the chunk the
// arena would allocate next gets a chunk of exactly its size.
const (
	minChunk      = 4 << 10
	maxChunk      = 1 << startBits
	chunkDoubling = 4 // minChunk << chunkDoubling == maxChunk
)

// A locator packs a term's chunk index (high 31 bits), its start in that
// chunk (startBits) and its length (lenBits). A term longer than maxChunk
// fills a chunk of its own, and its length field is wholeChunk.
const (
	startBits  = 16
	lenBits    = 17
	wholeChunk = 1<<lenBits - 1
)

// Dict is a bijective mapping between strings and dense uint32 IDs 1..N.
// The zero value is ready to use. The dictionary is append-only — IDs, once
// assigned, never change — and safe for concurrent use: the live write path
// encodes new terms while queries decode result rows, so Encode takes the
// write lock and the read-side methods share a read lock. None of them sit
// on the join hot path (probes work on already-encoded IDs).
//
// Layout. Term bytes are copied into an append-only arena of chunks; the
// dictionary keeps nothing of a caller's string. used counts the bytes
// written to the last chunk, and locs[id-1] is term id's locator. slots is
// an open-addressing table (linear probing, at most ¾ full) of tag<<32 | id,
// 0 marking a free slot. A term's tag is the high half of its seeded hash:
// it rejects most mismatches without touching the arena, and it alone picks
// the home slot, so growing the table never rehashes a term. Nothing here
// holds a pointer per term.
//
// Invariant: a chunk's slice header never changes once it is in chunks,
// bytes written into a chunk are never rewritten, and a locator is never
// rewritten. Decode and View hand out strings that alias the arena; they
// stay valid, and race-free, however the dictionary grows.
type Dict struct {
	mu     sync.RWMutex
	seed   maphash.Seed
	chunks [][]byte
	used   int
	locs   []uint64
	slots  []uint64
}

// New returns an empty dictionary.
func New() *Dict { return &Dict{} }

// Encode returns the ID for s, assigning the next free ID if s is new. s may
// alias a buffer the caller reuses: a new term is copied.
func (d *Dict) Encode(s string) uint32 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.encode(s)
}

// EncodeAll sets ids[i] to Encode(terms[i]) for every term, in order, under
// one lock. ids must be at least as long as terms.
func (d *Dict) EncodeAll(terms []string, ids []uint32) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for i, s := range terms {
		ids[i] = d.encode(s)
	}
}

func (d *Dict) encode(s string) uint32 {
	if d.slots == nil {
		if d.seed == (maphash.Seed{}) {
			d.seed = maphash.MakeSeed()
		}
		d.slots = make([]uint64, 8)
	}
	tag := d.tag(s)
	slot, id := d.find(s, tag)
	if id != NoID {
		return id
	}
	d.store(s)
	id = uint32(len(d.locs))
	d.slots[slot] = uint64(tag)<<32 | uint64(id)
	if 4*len(d.locs) > 3*len(d.slots) {
		d.grow()
	}
	return id
}

// Lookup returns the ID for s, or NoID if s has not been encoded.
func (d *Dict) Lookup(s string) uint32 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if d.slots == nil {
		return NoID
	}
	_, id := d.find(s, d.tag(s))
	return id
}

func (d *Dict) tag(s string) uint32 { return uint32(maphash.String(d.seed, s) >> 32) }

// home is the slot a tag's probe starts at in a table of n slots.
func home(tag uint32, n int) int { return int(uint64(tag) * uint64(n) >> 32) }

// find returns s's ID, or NoID and the free slot where s belongs.
func (d *Dict) find(s string, tag uint32) (int, uint32) {
	mask := len(d.slots) - 1
	for i := home(tag, len(d.slots)); ; i = (i + 1) & mask {
		e := d.slots[i]
		if e == 0 {
			return i, NoID
		}
		if uint32(e>>32) == tag && at(d.chunks, d.locs, uint32(e)) == s {
			return i, uint32(e)
		}
	}
}

// grow doubles the table, placing every entry by its tag alone.
func (d *Dict) grow() {
	slots := make([]uint64, 2*len(d.slots))
	mask := len(slots) - 1
	for _, e := range d.slots {
		if e == 0 {
			continue
		}
		i := home(uint32(e>>32), len(slots))
		for slots[i] != 0 {
			i = (i + 1) & mask
		}
		slots[i] = e
	}
	d.slots = slots
}

// store copies s to the arena and appends its locator.
func (d *Dict) store(s string) {
	n, free := len(d.chunks), 0
	if n > 0 {
		free = len(d.chunks[n-1]) - d.used
	}
	// A full chunk takes no more terms, not even an empty one, so that a
	// start offset always fits its field.
	if len(s) > free || free == 0 {
		size := maxChunk
		if n < chunkDoubling {
			size = minChunk << n
		}
		d.chunks = append(d.chunks, make([]byte, max(size, len(s))))
		d.used, n = 0, n+1
	}
	length := len(s)
	if length > maxChunk {
		length = wholeChunk
	}
	d.locs = append(d.locs, uint64(n-1)<<(startBits+lenBits)|uint64(d.used)<<lenBits|uint64(length))
	d.used += copy(d.chunks[n-1][d.used:], s)
}

// at returns term id from a locator prefix and the chunks it points into.
func at(chunks [][]byte, locs []uint64, id uint32) string {
	loc := locs[id-1]
	c := chunks[loc>>(startBits+lenBits)]
	n := int(loc & wholeChunk)
	if n == wholeChunk {
		return unsafe.String(unsafe.SliceData(c), len(c))
	}
	// A locator never points past its chunk's end, so decode skips the
	// bounds checks a reslice would make.
	start := uintptr(loc >> lenBits & (1<<startBits - 1))
	return unsafe.String((*byte)(unsafe.Add(unsafe.Pointer(unsafe.SliceData(c)), start)), n)
}

// Decode returns the string for id. It panics if id is NoID or out of range,
// mirroring slice indexing: handing an unknown ID to Decode is a programming
// error, not a data error.
func (d *Dict) Decode(id uint32) string {
	v := d.SnapshotStrings()
	if id == NoID || int(id) > v.Len() {
		panic(fmt.Sprintf("dict: Decode of unknown ID %d (dictionary has %d entries)", id, v.Len()))
	}
	return v.At(id)
}

// Len reports the number of distinct values encoded.
func (d *Dict) Len() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.locs)
}

// MaxID returns the largest assigned ID (equal to Len).
func (d *Dict) MaxID() uint32 { return uint32(d.Len()) }

// View is a read-only view of the terms with IDs 1..Len of a dictionary at
// the moment it was taken: the consistent (length, contents) pair that
// serialization and batch decoding need under concurrent Encodes, which
// only ever extend the dictionary past it. Its methods take a pointer: a
// batch decoder calls At per cell, and a copy of the six-word View per call
// cost more than the decode.
type View struct {
	chunks [][]byte
	locs   []uint64
}

// Len reports the number of terms in the view.
func (v *View) Len() int { return len(v.locs) }

// At returns the term with ID id, 1 ≤ id ≤ Len; it panics otherwise.
func (v *View) At(id uint32) string { return at(v.chunks, v.locs, id) }

// SnapshotStrings returns a view of the terms encoded so far.
func (d *Dict) SnapshotStrings() View {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return View{d.chunks, d.locs}
}

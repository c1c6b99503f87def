// Package dict implements the dictionary encoding used by PARJ.
//
// Every value encountered in the RDF data is assigned a dense integer ID.
// Following the paper (§3), values appearing in the subject and object
// positions share a common numbering, while values appearing in the
// predicate position have their own, separate numbering. IDs start at 1;
// ID 0 is reserved to mean "absent".
//
// An IRI is held as a reference to its namespace plus its local part: the
// dictionary splits <…> after its last '/' or '#' and keeps each distinct
// prefix once. Decode and View.At therefore no longer alias the arena for
// such an IRI but build its string; a literal, a blank node or an IRI with
// no split point is still read straight from the arena. View.Append
// decodes into a caller's buffer, and DecodeRows decodes a result batch
// into shared ones.
package dict

import (
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"strings"
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

// A locator packs an entry's chunk index (high 31 bits), its start in that
// chunk (startBits) and its length (lenBits). An entry longer than maxChunk
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
// Layout. An entry is a uvarint prefix ID, then the rest of its string. An
// IRI with a '/' or '#' after its '<' is split after the last of them: its
// prefix is an entry of prefixes, which holds each one whole, and its own
// entry in terms holds that prefix's ID and the local part. Every other
// term, and every prefix, has prefix ID 0 and is held whole. Each table copies
// entry bytes into an append-only arena of chunks and keeps nothing of a
// caller's string. A term's tag is the high half of the seeded hash of the
// whole term, so a probe needs no split, and Lookup never touches the
// prefix table's slots. Nothing here holds a pointer per term.
//
// Invariant: a chunk's slice header never changes once it is in chunks,
// bytes written into a chunk are never rewritten, and neither is a locator
// or an element of pstr. A View's arenas therefore stay valid, and race-free, however
// the dictionary grows, and so do the strings that alias them.
type Dict struct {
	mu       sync.RWMutex
	seed     maphash.Seed
	terms    table
	prefixes table
	// pstr[id-1] is prefix id, aliasing the prefix arena: a probe and a
	// decode read a prefix with one load.
	pstr []string
	// memo is the ID of the last prefix looked up: terms arrive in runs
	// that share a namespace, and a hit spares the prefix's hash.
	memo uint32
}

// arena holds entries: locs[id-1] is entry id's locator into chunks.
type arena struct {
	chunks [][]byte
	locs   []uint64
}

// table is an arena plus an open-addressing table over it (linear probing,
// at most ¾ full) of tag<<32 | id, 0 marking a free slot. A tag rejects most
// mismatches without touching the arena, and it alone picks the home slot,
// so growing the table never rehashes an entry. used counts the bytes
// written to the last chunk.
type table struct {
	arena
	used  int
	slots []uint64
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
// one lock. ids must be at least as long as terms. A term equal to the one
// two places before it takes that one's ID without a probe: in a batch of
// subject-object pairs from a document that lists a subject's triples
// together, most subjects are such repeats.
func (d *Dict) EncodeAll(terms []string, ids []uint32) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for i, s := range terms {
		if i >= 2 && s == terms[i-2] {
			ids[i] = ids[i-2]
			continue
		}
		ids[i] = d.encode(s)
	}
}

func (d *Dict) encode(s string) uint32 {
	if d.terms.slots == nil {
		if d.seed == (maphash.Seed{}) {
			d.seed = maphash.MakeSeed()
		}
		d.terms.slots = make([]uint64, 8)
		d.prefixes.slots = make([]uint64, 8)
	}
	tag := d.tag(s)
	slot, id := d.terms.find(s, tag, d.pstr)
	if id != NoID {
		return id
	}
	pid, rest := uint32(0), s
	if k := splitAt(s); k > 0 {
		pid, rest = d.prefix(s[:k]), s[k:]
	}
	var hdr [binary.MaxVarintLen32]byte
	return d.terms.add(slot, tag, hdr[:binary.PutUvarint(hdr[:], uint64(pid))], rest)
}

// prefix returns the ID of prefix p, adding it if it is new.
func (d *Dict) prefix(p string) uint32 {
	if d.memo != NoID && d.pstr[d.memo-1] == p {
		return d.memo
	}
	tag := d.tag(p)
	slot, id := d.prefixes.find(p, tag, nil)
	if id == NoID {
		id = d.prefixes.add(slot, tag, []byte{0}, p)
		d.pstr = append(d.pstr, d.prefixes.at(id)[1:])
	}
	d.memo = id
	return id
}

// splitAt returns the length of s's prefix: up to and including the last
// '/' or '#' of an IRI, or 0 if s is not one or has neither.
func splitAt(s string) int {
	if len(s) == 0 || s[0] != '<' {
		return 0
	}
	for i := len(s) - 1; i > 0; i-- {
		if s[i] == '/' || s[i] == '#' {
			return i + 1
		}
	}
	return 0
}

// Lookup returns the ID for s, or NoID if s has not been encoded.
func (d *Dict) Lookup(s string) uint32 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if d.terms.slots == nil {
		return NoID
	}
	_, id := d.terms.find(s, d.tag(s), d.pstr)
	return id
}

func (d *Dict) tag(s string) uint32 { return uint32(maphash.String(d.seed, s) >> 32) }

// home is the slot a tag's probe starts at in a table of n slots.
func home(tag uint32, n int) int { return int(uint64(tag) * uint64(n) >> 32) }

// find returns s's ID, or NoID and the free slot where s belongs. pre holds
// the prefixes t's entries refer to, by ID − 1.
func (t *table) find(s string, tag uint32, pre []string) (int, uint32) {
	mask := len(t.slots) - 1
	for i := home(tag, len(t.slots)); ; i = (i + 1) & mask {
		e := t.slots[i]
		if e == 0 {
			return i, NoID
		}
		if uint32(e>>32) == tag && t.is(uint32(e), s, pre) {
			return i, uint32(e)
		}
	}
}

// is reports whether entry id spells s, comparing prefix and local part in
// place rather than building the term.
func (a *arena) is(id uint32, s string, pre []string) bool {
	pid, rest := header(a.at(id))
	if pid == NoID {
		return rest == s
	}
	p := pre[pid-1]
	return len(p)+len(rest) == len(s) && s[len(p):] == rest && s[:len(p)] == p
}

// add stores a new entry, hdr then rest, at slot and returns its ID.
func (t *table) add(slot int, tag uint32, hdr []byte, rest string) uint32 {
	t.store(hdr, rest)
	id := uint32(len(t.locs))
	t.slots[slot] = uint64(tag)<<32 | uint64(id)
	if 4*len(t.locs) > 3*len(t.slots) {
		t.grow()
	}
	return id
}

// grow doubles the table, placing every entry by its tag alone.
func (t *table) grow() {
	slots := make([]uint64, 2*len(t.slots))
	mask := len(slots) - 1
	for _, e := range t.slots {
		if e == 0 {
			continue
		}
		i := home(uint32(e>>32), len(slots))
		for slots[i] != 0 {
			i = (i + 1) & mask
		}
		slots[i] = e
	}
	t.slots = slots
}

// store copies the entry hdr, rest to the arena and appends its locator.
func (t *table) store(hdr []byte, rest string) {
	size := len(hdr) + len(rest)
	n, free := len(t.chunks), 0
	if n > 0 {
		free = len(t.chunks[n-1]) - t.used
	}
	// An entry is never empty, so a full chunk takes no more of them and a
	// start offset always fits its field.
	if size > free {
		chunk := maxChunk
		if n < chunkDoubling {
			chunk = minChunk << n
		}
		t.chunks = append(t.chunks, make([]byte, max(chunk, size)))
		t.used, n = 0, n+1
	}
	length := size
	if length > maxChunk {
		length = wholeChunk
	}
	t.locs = append(t.locs, uint64(n-1)<<(startBits+lenBits)|uint64(t.used)<<lenBits|uint64(length))
	c := t.chunks[n-1][t.used:]
	copy(c[copy(c, hdr):], rest)
	t.used += size
}

// header splits a term's entry into its prefix ID and the rest. A prefix ID
// below 1<<14, one or two header bytes, decodes without a loop.
func header(e string) (uint32, string) {
	if e[0] < 0x80 {
		return uint32(e[0]), e[1:]
	}
	if e[1] < 0x80 {
		return uint32(e[0]&0x7f) | uint32(e[1])<<7, e[2:]
	}
	pid, n := binary.Uvarint(unsafe.Slice(unsafe.StringData(e), len(e)))
	return uint32(pid), e[n:]
}

// at returns entry id's bytes.
func (a *arena) at(id uint32) string {
	loc := a.locs[id-1]
	c := a.chunks[loc>>(startBits+lenBits)]
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
	return len(d.terms.locs)
}

// MaxID returns the largest assigned ID (equal to Len).
func (d *Dict) MaxID() uint32 { return uint32(d.Len()) }

// View is a read-only view of the terms with IDs 1..Len of a dictionary at
// the moment it was taken: the consistent (length, contents) pair that
// serialization and batch decoding need under concurrent Encodes, which
// only ever extend the dictionary past it. Its methods take a pointer: a
// batch decoder calls At or Append per cell, and a copy of the View per
// call cost more than the decode.
type View struct {
	terms    arena
	prefixes []string
}

// Len reports the number of terms in the view.
func (v *View) Len() int { return len(v.terms.locs) }

// At returns the term with ID id, 1 ≤ id ≤ Len; it panics otherwise. A split
// IRI is built afresh; any other term aliases the arena.
func (v *View) At(id uint32) string {
	pid, rest := header(v.terms.at(id))
	if pid == NoID {
		return rest
	}
	return v.prefixes[pid-1] + rest
}

// Append appends the term with ID id, 1 ≤ id ≤ Len, to dst and returns the
// extended buffer; it panics on any other ID.
func (v *View) Append(dst []byte, id uint32) []byte {
	pid, rest := header(v.terms.at(id))
	if pid != NoID {
		dst = append(dst, v.prefixes[pid-1]...)
	}
	return append(dst, rest...)
}

// DecodeRows decodes rows of IDs, column c through dicts[c], as one batch:
// one snapshot per column instead of a lock round trip per ID, one backing
// array for all the strings, and the split IRIs built into shared buffers
// of up to rowBytes; any other term aliases the arena, as At's do. A
// result repeats a term in rows close together (the outer bindings of a
// join), so each column keeps the last term it decoded per ID modulo
// cacheSlots, and a repeat shares its string. An ID past a column's
// snapshot goes back to its dictionary, which decodes a term encoded since
// and panics on an unknown one exactly as Decode does. Every row holds one
// ID per column.
func DecodeRows(dicts []*Dict, rows [][]uint32) [][]string {
	n := len(dicts)
	views := make([]View, n) // used in place: a copy per cell costs more than the decode
	for c, d := range dicts {
		views[c] = d.SnapshotStrings()
	}
	slots := cacheSlots
	for slots > 1 && slots/2 >= len(rows) {
		slots /= 2
	}
	type decoded struct {
		id   uint32
		term string
	}
	cache := make([]decoded, n*slots) // ID 0 is never looked up
	flat := make([]string, n*len(rows))
	out := make([][]string, len(rows))
	// Built terms alias sb's buffer: a byte once written is never
	// rewritten, and a full buffer is left to the terms that use it.
	var sb strings.Builder
	for i, row := range rows {
		dst := flat[i*n : (i+1)*n : (i+1)*n]
		for c, id := range row {
			v := &views[c]
			if id-1 >= uint32(v.Len()) { // ID 0 wraps past every length
				dst[c] = dicts[c].Decode(id)
				continue
			}
			e := &cache[c*slots+int(id)&(slots-1)]
			if e.id == id {
				dst[c] = e.term
				continue
			}
			pid, rest := header(v.terms.at(id))
			if pid != NoID {
				p := v.prefixes[pid-1]
				k := len(p) + len(rest)
				if sb.Cap()-sb.Len() < k {
					sb = strings.Builder{}
					sb.Grow(max(k, min(rowBytes, cellBytes*(len(flat)-i*n-c))))
				}
				sb.WriteString(p)
				sb.WriteString(rest)
				built := sb.String()
				rest = built[len(built)-k:]
			}
			*e = decoded{id, rest}
			dst[c] = rest
		}
		out[i] = dst
	}
	return out
}

// DecodeRows caches cacheSlots terms per column (fewer for fewer rows) and
// sizes a buffer for cellBytes per cell still to decode, up to rowBytes.
const (
	cacheSlots = 256
	cellBytes  = 64
	rowBytes   = 64 << 10
)

// SnapshotStrings returns a view of the terms encoded so far. Prefixes are
// added before the terms that refer to them, under the same lock, so the
// view's prefix arena covers every term in it.
func (d *Dict) SnapshotStrings() View {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return View{d.terms.arena, d.pstr}
}

package dict

import (
	"fmt"
	"hash/maphash"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"parj/internal/lubm"
)

func TestEncodeAssignsDenseIDs(t *testing.T) {
	d := New()
	words := []string{"a", "b", "c", "d"}
	for i, w := range words {
		if got := d.Encode(w); got != uint32(i+1) {
			t.Fatalf("Encode(%q) = %d, want %d", w, got, i+1)
		}
	}
	if d.Len() != len(words) {
		t.Fatalf("Len = %d, want %d", d.Len(), len(words))
	}
}

func TestEncodeIsIdempotent(t *testing.T) {
	d := New()
	a := d.Encode("x")
	b := d.Encode("y")
	if got := d.Encode("x"); got != a {
		t.Errorf("re-Encode(x) = %d, want %d", got, a)
	}
	if got := d.Encode("y"); got != b {
		t.Errorf("re-Encode(y) = %d, want %d", got, b)
	}
	if d.Len() != 2 {
		t.Errorf("Len = %d, want 2", d.Len())
	}
}

func TestLookupMissingReturnsNoID(t *testing.T) {
	d := New()
	d.Encode("present")
	if got := d.Lookup("absent"); got != NoID {
		t.Errorf("Lookup(absent) = %d, want NoID", got)
	}
}

func TestZeroValueUsable(t *testing.T) {
	var d Dict
	if got := d.Encode("a"); got != 1 {
		t.Errorf("zero-value Encode = %d, want 1", got)
	}
	if got := d.Lookup("a"); got != 1 {
		t.Errorf("zero-value Lookup = %d, want 1", got)
	}
}

func TestDecodeRoundTrip(t *testing.T) {
	d := New()
	for i := 0; i < 1000; i++ {
		s := fmt.Sprintf("value-%04d", i)
		id := d.Encode(s)
		if got := d.Decode(id); got != s {
			t.Fatalf("Decode(Encode(%q)) = %q", s, got)
		}
	}
}

func TestDecodePanicsOnUnknownID(t *testing.T) {
	d := New()
	d.Encode("only")
	for _, id := range []uint32{NoID, 2, 100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Decode(%d) did not panic", id)
				}
			}()
			d.Decode(id)
		}()
	}
}

// Property: Encode is a bijection — distinct strings get distinct IDs and
// Decode inverts Encode.
func TestQuickBijection(t *testing.T) {
	f := func(words []string) bool {
		d := New()
		seen := make(map[string]uint32)
		for _, w := range words {
			id := d.Encode(w)
			if prev, ok := seen[w]; ok && prev != id {
				return false
			}
			seen[w] = id
			if d.Decode(id) != w {
				return false
			}
		}
		ids := make(map[uint32]bool)
		for _, id := range seen {
			if ids[id] {
				return false
			}
			ids[id] = true
		}
		return d.Len() == len(seen)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestTermShapes round-trips the terms the prefix split must get right
// through Encode, Lookup, Decode, View.At, View.Append and DecodeRows, and
// checks which of them share a stored prefix.
func TestTermShapes(t *testing.T) {
	long := "<http://a/" + strings.Repeat("l", 2*maxChunk) + ">"
	terms := []string{
		"<http://a/x#frag>",  // '#' after the last '/'
		"<http://a/x#other>", // same prefix
		"<http://a/>",        // the bare prefix: local part ">"
		"<http://a/x/>",      // ends in '/'
		"<>",                 // no split point
		"<urn:isbn:1>",       // no split point
		`"a/b#c"`,            // a literal holding '/' and '#'
		`"1"^^<http://www.w3.org/2001/XMLSchema#int>`,
		"_:b/1",       // a blank node holding '/'
		"<http://a/y", // no closing '>'
		"http://a/z>", // no opening '<'
		"",
		long, // a prefixed term longer than maxChunk
	}
	d := New()
	for i, s := range terms {
		if id := d.Encode(s); id != uint32(i+1) {
			t.Fatalf("Encode(%.30q) = %d, want %d", s, id, i+1)
		}
	}
	v := d.SnapshotStrings()
	rows := make([][]uint32, len(terms))
	for i, s := range terms {
		id := uint32(i + 1)
		rows[i] = []uint32{id}
		if got := d.Lookup(strings.Clone(s)); got != id {
			t.Errorf("Lookup(%.30q) = %d, want %d", s, got, id)
		}
		if got := d.Decode(id); got != s {
			t.Errorf("Decode(%d) = %.30q, want %.30q", id, got, s)
		}
		if got := v.At(id); got != s {
			t.Errorf("At(%d) = %.30q, want %.30q", id, got, s)
		}
		if got := string(v.Append([]byte("x"), id)); got != "x"+s {
			t.Errorf("Append(%d) = %.30q, want %.30q", id, got, "x"+s)
		}
	}
	for i, row := range DecodeRows([]*Dict{d}, rows) {
		if row[0] != terms[i] {
			t.Errorf("DecodeRows row %d = %.30q, want %.30q", i, row[0], terms[i])
		}
	}
	for _, s := range []string{"<http://a/x#>", "<http://a/", "<http://a/x#frag", "<http://b/x#frag>", "<"} {
		if id := d.Lookup(s); id != NoID {
			t.Errorf("Lookup(%q) = %d, want NoID", s, id)
		}
	}
	// <http://a/x#, <http://a/ (also the long term's) and <http://a/x/.
	if n := len(d.pstr); n != 3 {
		t.Errorf("%d prefixes stored, want 3", n)
	}
	// Prefix IDs past 1<<14 take three header bytes.
	for i := 0; i < 1<<14+8; i++ {
		s := fmt.Sprintf("<http://p%d/x>", i)
		if got := d.Decode(d.Encode(s)); got != s {
			t.Fatalf("Decode(Encode(%q)) = %q", s, got)
		}
	}
}

// maxResourceBytesPerTerm is TestResourceBytesPerTerm's ceiling: the
// retained bytes per term of LUBM 8's resource dictionary with IRIs split
// (37.83, of which the 15 634 terms' slots are 16.8), plus 2 %. The same
// dictionary held 62.62 B/term with every term stored whole.
const maxResourceBytesPerTerm = 38.59

// TestResourceBytesPerTerm builds the resource dictionary of LUBM 8 and
// bounds what it retains per distinct term: arena chunks, locators and
// slots. A change that stops sharing IRI prefixes fails it on a count.
func TestResourceBytesPerTerm(t *testing.T) {
	ts := lubm.Triples(8, lubm.Config{})
	so := make([]string, 0, 2*len(ts))
	for _, tr := range ts {
		so = append(so, tr.S, tr.O)
	}
	d := New()
	d.EncodeAll(so, make([]uint32, len(so)))
	got := float64(footprint(d)) / float64(d.Len())
	t.Logf("%d terms, %d prefixes, %.2f B/term", d.Len(), len(d.pstr), got)
	if got > maxResourceBytesPerTerm {
		t.Fatalf("resource dictionary retains %.2f B/term, ceiling %.2f", got, maxResourceBytesPerTerm)
	}
}

// tagSeed is the hash seed of the dictionaries FuzzDict builds, so that
// tagPairs can hold keys whose tags collide in them.
var tagSeed = maphash.MakeSeed()

// tagPairs returns pairs of distinct keys that share a tag (and therefore a
// home slot) under tagSeed, found by a birthday search over 32-bit tags.
var tagPairs = sync.OnceValue(func() [][2]string {
	d := &Dict{seed: tagSeed}
	seen := make(map[uint32]string)
	var pairs [][2]string
	for i := 0; len(pairs) < 2; i++ {
		k := fmt.Sprintf("<k%d>", i)
		if prev, ok := seen[d.tag(k)]; ok {
			pairs = append(pairs, [2]string{prev, k})
		}
		seen[d.tag(k)] = k
	}
	return pairs
})

// iriPrefixes are the namespaces fuzzTerm builds IRI-shaped terms in: a '/'
// one, a '#' one, and two with no split point unless the local part brings
// one.
var iriPrefixes = []string{"<http://a/", "<http://a/b#", "<urn:x:", "<"}

// fuzzTerm takes one term off the front of p: a byte below 0xd0 is followed
// by its value mod 8 bytes of literal term; 0xd0+k is an IRI of
// iriPrefixes[k mod 4], the next k/4 bytes and '>'; 0xe0+k is the next byte
// repeated minChunk−1, minChunk, 3×maxChunk or 1 times (k mod 4), inside
// "<http://a/…>" when k&4 is set; 0xf0+k is a key of tagPairs.
func fuzzTerm(p []byte) (string, []byte) {
	if len(p) == 0 {
		return "", p
	}
	b, p := p[0], p[1:]
	switch {
	case b < 0xd0:
		n := min(int(b%8), len(p))
		return string(p[:n]), p[n:]
	case b < 0xe0:
		k := int(b - 0xd0)
		n := min(k/4, len(p))
		return iriPrefixes[k%4] + string(p[:n]) + ">", p[n:]
	case b < 0xf0:
		fill := byte('x')
		if len(p) > 0 {
			fill, p = p[0], p[1:]
		}
		k := int(b - 0xe0)
		sizes := []int{minChunk - 1, minChunk, 3 * maxChunk, 1}
		s := strings.Repeat(string(fill), sizes[k%len(sizes)])
		if k&4 != 0 {
			s = "<http://a/" + s + ">"
		}
		return s, p
	default:
		k := int(b - 0xf0)
		pairs := tagPairs()
		return pairs[k/2%len(pairs)][k%2], p
	}
}

// FuzzDict runs a program of Encode / EncodeAll / Lookup / Decode / view
// steps against a map plus slice oracle. Every string the dictionary handed
// out, and every view taken, must still read the same at the end.
func FuzzDict(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 2, 0, 3, 1})                                                         // the empty term
	f.Add([]byte{0, 1, 'a', 0, 1, 'b', 2, 1, 'a', 1, 1, 'b', 1, 'c', 1, 'd', 3, 2, 4, 2, 1, 'd'}) // 1-byte terms
	// Terms of chunk size − 1, chunk size and 3× the cap, with views between.
	f.Add([]byte{0, 0xe0, 'x', 4, 0, 0xe1, 'y', 0, 0xe2, 'z', 4, 0, 0xe3, 'v', 3, 5, 3, 3, 1, 1, 'q', 0xe0, 'x', 4})
	// Keys sharing a tag: misses, hits and a batch that repeats one.
	f.Add([]byte{0, 0xf0, 2, 0xf1, 0, 0xf1, 2, 0xf0, 2, 0xf1, 1, 0xf2, 0xf3, 0xf2, 2, 0xf3, 4, 3, 2, 3, 3})
	// IRIs over shared prefixes: a '/' and a '#' namespace, the bare prefix
	// "<http://a/>", "<>", local parts that bring their own '/' or '#', a
	// literal that holds a '/', a prefixed term 3× the chunk cap, and a
	// batch that repeats a subject two places on.
	f.Add([]byte{0, 0xd4, 'x', 0, 0xd5, 'f', 0, 0xd0, 0, 0xd3, 2, 0xd4, 'x', 2, 0xd0, 4,
		0, 0xd9, '/', '#', 0, 0xd7, 'y', 0, 3, '"', '/', '"', 0, 0xe6, 'z',
		1, 0xd4, 'x', 0xd4, 'y', 0xd4, 'x', 3, 2, 3, 5, 4, 2, 0xd5, 'g', 2, 0xd6, 'q'})
	f.Fuzz(func(t *testing.T, p []byte) {
		d := &Dict{seed: tagSeed}
		ids := make(map[string]uint32)
		var terms []string
		var views []View
		var handed [][2]string // a string Decode returned and a copy of it
		want := func(s string) uint32 {
			if id, ok := ids[s]; ok {
				return id
			}
			terms = append(terms, s)
			ids[s] = uint32(len(terms))
			return ids[s]
		}
		budget := 16 << 20 // term bytes per program
		for len(p) > 0 && budget > 0 {
			op := p[0] % 5
			var s string
			switch p = p[1:]; op {
			case 0:
				s, p = fuzzTerm(p)
				if got, w := d.Encode(s), want(s); got != w {
					t.Fatalf("Encode(%.20q) = %d, want %d", s, got, w)
				}
			case 1:
				var batch []string
				for k := 0; k < 3 && len(p) > 0; k++ {
					s, p = fuzzTerm(p)
					batch = append(batch, s)
				}
				got := make([]uint32, len(batch))
				d.EncodeAll(batch, got)
				for i, s := range batch {
					if w := want(s); got[i] != w {
						t.Fatalf("EncodeAll term %d (%.20q) = %d, want %d", i, s, got[i], w)
					}
				}
			case 2:
				s, p = fuzzTerm(p)
				if got := d.Lookup(s); got != ids[s] {
					t.Fatalf("Lookup(%.20q) = %d, want %d", s, got, ids[s])
				}
			case 3:
				if len(terms) > 0 && len(p) > 0 {
					id := uint32(int(p[0])%len(terms) + 1)
					p = p[1:]
					got := d.Decode(id)
					if got != terms[id-1] {
						t.Fatalf("Decode(%d) = %.20q, want %.20q", id, got, terms[id-1])
					}
					handed = append(handed, [2]string{got, strings.Clone(got)})
				}
			case 4:
				views = append(views, d.SnapshotStrings())
				if v := views[len(views)-1]; v.Len() != len(terms) {
					t.Fatalf("view Len %d, oracle %d", v.Len(), len(terms))
				}
			}
			budget -= len(s)
		}
		if d.Len() != len(terms) {
			t.Fatalf("Len %d, oracle %d", d.Len(), len(terms))
		}
		for i, s := range terms {
			if got := d.Lookup(strings.Clone(s)); got != uint32(i+1) {
				t.Fatalf("final Lookup(%.20q) = %d, want %d", s, got, i+1)
			}
		}
		for _, v := range views {
			for id := uint32(1); id <= uint32(v.Len()); id++ {
				if v.At(id) != terms[id-1] {
					t.Fatalf("view of %d terms: At(%d) = %.20q, want %.20q", v.Len(), id, v.At(id), terms[id-1])
				}
				if got := v.Append([]byte("#"), id); string(got[1:]) != terms[id-1] {
					t.Fatalf("view of %d terms: Append(%d) = %.20q, want %.20q", v.Len(), id, got[1:], terms[id-1])
				}
			}
		}
		// A batch decode: one column of every ID, one that repeats each
		// ID in the row after.
		rows := make([][]uint32, len(terms))
		for i := range rows {
			rows[i] = []uint32{uint32(i + 1), uint32(i/2 + 1)}
		}
		for i, row := range DecodeRows([]*Dict{d, d}, rows) {
			if row[0] != terms[i] || row[1] != terms[i/2] {
				t.Fatalf("DecodeRows row %d = %.20q, want %.20q, %.20q", i, row, terms[i], terms[i/2])
			}
		}
		for _, h := range handed {
			if h[0] != h[1] {
				t.Fatalf("a decoded string changed: %.20q, was %.20q", h[0], h[1])
			}
		}
	})
}

// TestDictViewsStableUnderGrowth: readers keep what Decode returned and an
// old view while a writer encodes through chunk rollovers, a term longer
// than a chunk and table doublings. Run under -race, it checks the arena
// invariant: nothing handed out is ever written again.
func TestDictViewsStableUnderGrowth(t *testing.T) {
	// Split IRIs, which decode into new strings, and literals, which
	// decode to views of the arena.
	term := func(i int) string {
		if i%4 == 3 {
			return fmt.Sprintf(`"literal %d"`, i)
		}
		return fmt.Sprintf("<http://example.org/resource/%d/%d>", i%50, i)
	}
	d := New()
	for i := 0; i < 1000; i++ {
		d.Encode(term(i))
	}
	old := d.SnapshotStrings()
	const total = 60000 // ≈ 1.9 MB of terms in ≈ 0.6 MB of chunks: chunks up to the cap, table doublings
	done := make(chan struct{})
	var wg sync.WaitGroup
	kept := make([][][2]string, 2)
	for r := range kept {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			for {
				select {
				case <-done:
					return
				default:
				}
				if n := d.Len(); len(kept[r]) < 30000 {
					s := d.Decode(uint32(rng.Intn(n) + 1))
					o := old.At(uint32(rng.Intn(old.Len()) + 1))
					b := DecodeRows([]*Dict{d}, [][]uint32{{uint32(rng.Intn(n) + 1)}})[0][0]
					kept[r] = append(kept[r], [2]string{s, strings.Clone(s)}, [2]string{o, strings.Clone(o)}, [2]string{b, strings.Clone(b)})
				}
				if i := rng.Intn(1000); d.Lookup(term(i)) != uint32(i+1) {
					t.Errorf("Lookup(%s) = %d during growth, want %d", term(i), d.Lookup(term(i)), i+1)
					return
				}
			}
		}(r)
	}
	for i := 1000; i < total; i++ {
		if i == total/2 {
			d.Encode(strings.Repeat("x", 2*maxChunk))
		}
		d.Encode(term(i))
	}
	close(done)
	wg.Wait()
	for r := range kept {
		for _, k := range kept[r] {
			if k[0] != k[1] {
				t.Fatalf("reader %d: a kept string changed: %.40q, was %.40q", r, k[0], k[1])
			}
		}
	}
	for id := uint32(1); id <= uint32(old.Len()); id++ {
		if got := old.At(id); got != term(int(id-1)) {
			t.Fatalf("old view At(%d) = %q, want %q", id, got, term(int(id-1)))
		}
	}
	if d.Len() != total+1 || len(d.terms.chunks) < 8 {
		t.Fatalf("writer left %d terms in %d chunks, want %d terms in at least 8", d.Len(), len(d.terms.chunks), total+1)
	}
}

// footprint is the bytes d retains: arena chunks, locators and slots, of
// both the term and the prefix table, and the prefix strings' headers.
func footprint(d *Dict) int {
	n := 16 * cap(d.pstr)
	for _, t := range []*table{&d.terms, &d.prefixes} {
		for _, c := range t.chunks {
			n += cap(c)
		}
		n += 8*cap(t.locs) + 8*cap(t.slots)
	}
	return n
}

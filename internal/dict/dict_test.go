package dict

import (
	"fmt"
	"hash/maphash"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"testing/quick"
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

// fuzzTerm takes one term off the front of p: a byte below 0xe0 is followed
// by its value mod 8 bytes of literal term; 0xe0+k is the next byte repeated
// minChunk−1, minChunk, 3×maxChunk or 1 times (k mod 4); 0xf0+k is a key of
// tagPairs.
func fuzzTerm(p []byte) (string, []byte) {
	if len(p) == 0 {
		return "", p
	}
	b, p := p[0], p[1:]
	switch {
	case b < 0xe0:
		n := min(int(b%8), len(p))
		return string(p[:n]), p[n:]
	case b < 0xf0:
		fill := byte('x')
		if len(p) > 0 {
			fill, p = p[0], p[1:]
		}
		sizes := []int{minChunk - 1, minChunk, 3 * maxChunk, 1}
		return strings.Repeat(string(fill), sizes[int(b-0xe0)%len(sizes)]), p
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
	term := func(i int) string { return fmt.Sprintf("<http://example.org/resource/%d>", i) }
	d := New()
	for i := 0; i < 1000; i++ {
		d.Encode(term(i))
	}
	old := d.SnapshotStrings()
	const total = 60000 // ≈ 2.3 MB of terms: chunks up to the cap, six doublings
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
				if n := d.Len(); len(kept[r]) < 20000 {
					s := d.Decode(uint32(rng.Intn(n) + 1))
					o := old.At(uint32(rng.Intn(old.Len()) + 1))
					kept[r] = append(kept[r], [2]string{s, strings.Clone(s)}, [2]string{o, strings.Clone(o)})
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
	if d.Len() != total+1 || len(d.chunks) < 8 {
		t.Fatalf("writer left %d terms in %d chunks, want %d terms in at least 8", d.Len(), len(d.chunks), total+1)
	}
}

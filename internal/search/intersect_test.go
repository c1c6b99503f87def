package search

import (
	"math/rand"
	"sort"
	"testing"
)

func TestSeekGE(t *testing.T) {
	arr := []uint32{2, 4, 4, 7, 9, 9, 9, 15}
	cases := []struct {
		v    uint32
		from int
		want int
	}{
		{0, 0, 0},
		{2, 0, 0},
		{3, 0, 1},
		{4, 0, 1},
		{4, 2, 2},
		{5, 0, 3},
		{9, 0, 4},
		{10, 0, 7},
		{15, 0, 7},
		{16, 0, 8},
		{2, 5, 5},  // cursor past the value: stays put
		{99, 7, 8}, // seek off the end
		{7, -3, 3}, // negative cursor clamps to zero
	}
	for _, c := range cases {
		if got := SeekGE(arr, c.v, c.from); got != c.want {
			t.Errorf("SeekGE(arr, %d, %d) = %d, want %d", c.v, c.from, got, c.want)
		}
	}
	if got := SeekGE(nil, 5, 0); got != 0 {
		t.Errorf("SeekGE(nil) = %d, want 0", got)
	}
}

// TestSeekGERandom cross-checks the galloping seek against sort.Search over
// random sorted arrays (with duplicates) and random cursors.
func TestSeekGERandom(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 500; iter++ {
		arr := randSorted(rng, rng.Intn(200), 300)
		v := uint32(rng.Intn(320))
		from := rng.Intn(len(arr) + 1)
		want := from + sort.Search(len(arr)-from, func(i int) bool { return arr[from+i] >= v })
		if got := SeekGE(arr, v, from); got != want {
			t.Fatalf("iter %d: SeekGE(%v, %d, %d) = %d, want %d", iter, arr, v, from, got, want)
		}
	}
}

// naiveIntersect is the oracle: distinct values present in every list,
// computed with maps and a sort.
func naiveIntersect(lists ...[]uint32) []uint32 {
	if len(lists) == 0 {
		return nil
	}
	counts := map[uint32]int{}
	for _, l := range lists {
		seen := map[uint32]bool{}
		for _, v := range l {
			if !seen[v] {
				seen[v] = true
				counts[v]++
			}
		}
	}
	var out []uint32
	for v, c := range counts {
		if c == len(lists) {
			out = append(out, v)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func randSorted(rng *rand.Rand, n, max int) []uint32 {
	out := make([]uint32, n)
	for i := range out {
		out[i] = uint32(rng.Intn(max))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func checkIntersect(t *testing.T, lists ...[]uint32) {
	t.Helper()
	want := naiveIntersect(lists...)
	got := Intersect(nil, nil, lists...)
	if len(got) != len(want) {
		t.Fatalf("Intersect(%v): got %v, want %v", lists, got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("Intersect(%v): got %v, want %v", lists, got, want)
		}
	}
}

func TestIntersectEdgeCases(t *testing.T) {
	checkIntersect(t)                                                   // zero lists
	checkIntersect(t, []uint32{})                                       // one empty list
	checkIntersect(t, []uint32{1, 2, 3})                                // single list copies distinct
	checkIntersect(t, []uint32{1, 1, 2, 2})                             // single list with dups
	checkIntersect(t, []uint32{5}, []uint32{5})                         // singletons match
	checkIntersect(t, []uint32{5}, []uint32{6})                         // singletons miss
	checkIntersect(t, []uint32{1, 2}, nil)                              // empty vs non-empty
	checkIntersect(t, []uint32{1, 3, 5}, []uint32{2, 4})                // disjoint
	checkIntersect(t, []uint32{0, ^uint32(0)}, []uint32{0, ^uint32(0)}) // max value
	checkIntersect(t,
		[]uint32{1, 1, 2, 3, 3, 3},
		[]uint32{1, 3, 3},
		[]uint32{0, 1, 2, 3}) // duplicates count once across three lists
}

// TestIntersectRandom is the property test the ISSUE asks for: random
// sorted runs (including empty, singleton and duplicate-heavy ones) across
// varying arities, checked against the naive oracle.
func TestIntersectRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cursors := make([]int, 8)
	for iter := 0; iter < 1000; iter++ {
		k := 1 + rng.Intn(5)
		lists := make([][]uint32, k)
		for i := range lists {
			var n int
			switch rng.Intn(4) {
			case 0:
				n = rng.Intn(2) // empty or singleton
			case 1:
				n = rng.Intn(8)
			default:
				n = rng.Intn(120)
			}
			// A small value universe forces duplicates and overlaps.
			lists[i] = randSorted(rng, n, 2+rng.Intn(60))
		}
		want := naiveIntersect(lists...)
		got := Intersect(nil, cursors, lists...)
		if len(got) != len(want) {
			t.Fatalf("iter %d: got %v, want %v (lists %v)", iter, got, want, lists)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("iter %d: got %v, want %v (lists %v)", iter, got, want, lists)
			}
		}
	}
}

// TestIntersectAppends verifies dst is appended to, not clobbered, so
// per-level scratch buffers can be reused with dst[:0].
func TestIntersectAppends(t *testing.T) {
	dst := []uint32{99}
	got := Intersect(dst, nil, []uint32{1, 2}, []uint32{2, 3})
	if len(got) != 2 || got[0] != 99 || got[1] != 2 {
		t.Fatalf("got %v, want [99 2]", got)
	}
}

// FuzzIntersect checks Intersect against the map oracle, and IntersectCount
// against len(Intersect), on lists cut from the fuzz input. The first byte
// picks k = 1..4 and the next k bytes the list lengths: a length byte with
// its high bit set is scaled by 32, so two lists land on either side of
// mergeFactor. Values start at one input byte and step by the following
// bytes mod 4, read cyclically; a zero step repeats a value.
func FuzzIntersect(f *testing.F) {
	f.Add([]byte{1, 3, 1, 2, 0})
	f.Add([]byte{1, 4, 4, 0, 1, 2, 3})
	f.Add([]byte{1, 2, 0x82, 0, 1, 1, 2})
	f.Add([]byte{2, 5, 0x90, 7, 3, 1, 0, 2, 1, 3})
	f.Add([]byte{3, 9, 9, 0x81, 0x81, 1, 2, 0, 3, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		k := 1 + int(data[0]%4)
		data = data[1:]
		if len(data) < k {
			return
		}
		lens, steps := data[:k], data[k:]
		pos := 0
		next := func() uint32 {
			if len(steps) == 0 {
				return 1
			}
			b := steps[pos%len(steps)]
			pos++
			return uint32(b)
		}
		lists := make([][]uint32, k)
		for i, lb := range lens {
			n := int(lb & 0x7f)
			if lb&0x80 != 0 {
				n *= 32
			}
			v := next()
			for range n {
				lists[i] = append(lists[i], v)
				v += next() % 4
			}
		}
		want := naiveIntersect(lists...)
		got := Intersect(nil, nil, lists...)
		if len(got) != len(want) {
			t.Fatalf("Intersect(%v): got %v, want %v", lists, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("Intersect(%v): got %v, want %v", lists, got, want)
			}
		}
		if n := IntersectCount(nil, lists...); n != len(got) {
			t.Fatalf("IntersectCount(%v) = %d, want %d", lists, n, len(got))
		}
	})
}

// BenchmarkIntersect2 times the two-list kernel on the two shapes it picks
// between: lists of equal length (merged) and a 1 : 1000 length ratio
// (the short list galloped through the long one).
func BenchmarkIntersect2(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	for _, c := range []struct {
		name        string
		short, long int
		universe    int
	}{
		{"equal", 4096, 4096, 16384},
		{"1:1000", 64, 64000, 256000},
	} {
		short, long := randSorted(rng, c.short, c.universe), randSorted(rng, c.long, c.universe)
		var dst []uint32
		b.Run(c.name, func(b *testing.B) {
			for range b.N {
				dst = Intersect(dst[:0], nil, short, long)
			}
		})
		b.Run(c.name+"/count", func(b *testing.B) {
			for range b.N {
				_ = IntersectCount(nil, short, long)
			}
		})
	}
}

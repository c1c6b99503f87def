// intersect.go — sorted-array intersection primitives for the worst-case-
// optimal join operator (core/wcoj.go). A leapfrog intersection repeatedly
// seeks each array to the current candidate value; the seek must be cheap
// when the arrays are of very different sizes, so it gallops (exponential
// probing) from the cursor before binary-searching the bracketed window —
// the standard trick that makes a k-way intersection cost
// O(min_len · Σ log(len_i)) instead of O(Σ len_i).

package search

// SeekGE returns the smallest index i in [from, len(arr)) with
// arr[i] >= v, or len(arr) when no such element exists. It gallops from
// the cursor: doubling probes bracket the answer in O(log distance), then a
// binary search pins it inside the bracket. arr must be sorted ascending
// (duplicates allowed).
func SeekGE(arr []uint32, v uint32, from int) int {
	n := len(arr)
	if from < 0 {
		from = 0
	}
	if from >= n || arr[from] >= v {
		return from
	}
	// arr[from] < v: gallop until a probe lands at or past v.
	bound := 1
	for from+bound < n && arr[from+bound] < v {
		bound <<= 1
	}
	lo := from + bound>>1 + 1 // last probe below v (or from itself)
	hi := from + bound
	if hi > n {
		hi = n
	}
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if arr[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// mergeFactor is the length ratio up to which two lists are intersected by
// a linear merge: while the longer list is at most mergeFactor times the
// shorter, stepping through both is cheaper than seeking; past it,
// galloping the shorter list through the longer wins. On random lists the
// two break even between 4× and 8×.
const mergeFactor = 4

// Intersect appends to dst the distinct values present in every list and
// returns the extended slice — the k-way leapfrog intersection. Lists must
// be sorted ascending; duplicates within a list are tolerated and count
// once. cursors is optional scratch of length >= len(lists) (allocated when
// too short), so hot callers can amortize it. With zero lists or any empty
// list the result is dst unchanged; with one list the distinct values of
// that list are appended. Two lists are merged or galloped depending on
// their length ratio (mergeFactor).
func Intersect(dst []uint32, cursors []int, lists ...[]uint32) []uint32 {
	out := hits{dst: dst}
	out.intersect(cursors, lists)
	return out.dst
}

// IntersectCount returns len(Intersect(nil, cursors, lists...)) without
// writing the values anywhere.
func IntersectCount(cursors []int, lists ...[]uint32) int {
	out := hits{count: true}
	out.intersect(cursors, lists)
	return out.n
}

// hits receives the intersection's values: it counts them, and appends them
// to dst unless it only counts.
type hits struct {
	dst   []uint32
	n     int
	count bool
}

func (h *hits) put(v uint32) {
	h.n++
	if !h.count {
		h.dst = append(h.dst, v)
	}
}

// intersect is the one kernel behind Intersect and IntersectCount.
func (h *hits) intersect(cursors []int, lists [][]uint32) {
	k := len(lists)
	if k == 0 {
		return
	}
	for _, l := range lists {
		if len(l) == 0 {
			return
		}
	}
	switch k {
	case 1:
		l := lists[0]
		for i, v := range l {
			if i == 0 || v != l[i-1] {
				h.put(v)
			}
		}
		return
	case 2:
		a, b := lists[0], lists[1]
		if len(a) > len(b) {
			a, b = b, a
		}
		if len(b) <= mergeFactor*len(a) {
			h.merge(a, b)
		} else {
			h.gallop(a, b)
		}
		return
	}
	if len(cursors) < k {
		cursors = make([]int, k)
	}
	for i := 0; i < k; i++ {
		cursors[i] = 0
	}
	// v is the current candidate (the max seen so far); agreed counts how
	// many consecutive lists matched it. When all k agree, v is emitted and
	// the last-seeking list advances past it to propose the next candidate.
	v := lists[0][0]
	agreed := 1
	li := 1
	for {
		l := lists[li]
		c := SeekGE(l, v, cursors[li])
		if c == len(l) {
			return
		}
		cursors[li] = c
		if l[c] == v {
			agreed++
			if agreed == k {
				h.put(v)
				if v == ^uint32(0) {
					return
				}
				c = SeekGE(l, v+1, c)
				if c == len(l) {
					return
				}
				cursors[li] = c
				v = l[c]
				agreed = 1
			}
		} else {
			v = l[c]
			agreed = 1
		}
		li++
		if li == k {
			li = 0
		}
	}
}

// merge intersects two lists of similar length by stepping through both.
func (h *hits) merge(a, b []uint32) {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		x, y := a[i], b[j]
		switch {
		case x < y:
			i++
		case x > y:
			j++
		default:
			h.put(x)
			// Skip x's duplicates in a; b's fall behind the next a[i].
			for i++; i < len(a) && a[i] == x; i++ {
			}
			j++
		}
	}
}

// gallop intersects a short list a with a much longer b by seeking each
// distinct value of a in b from the previous match.
func (h *hits) gallop(a, b []uint32) {
	j := 0
	for i, x := range a {
		if i > 0 && x == a[i-1] {
			continue
		}
		if j = SeekGE(b, x, j); j == len(b) {
			return
		}
		if b[j] == x {
			h.put(x)
			j++
		}
	}
}

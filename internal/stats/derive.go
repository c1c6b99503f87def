package stats

import "parj/internal/store"

// NewDerived computes statistics for st, reusing work from prev where the
// underlying tables are physically shared. The live write path carries a
// store forward into a new one in which untouched predicates alias the
// previous store's slices (see store.CarryForward); their histograms are
// identical by construction, so rebuilding them would only burn a reader's
// time. Touched or new predicates get fresh histograms. A memoized pair
// cardinality joins two tables and is carried over when both are shared, so
// the optimizer pays for a key-array merge once per changed table rather
// than once per view; the rest stay lazy — only pairs queries actually
// touch are paid for again. Nothing of prev is retained.
//
// prev may be nil, in which case NewDerived is New.
func NewDerived(st *store.Store, prev *Stats) *Stats {
	if prev == nil {
		return New(st)
	}
	s := &Stats{
		st:        st,
		keyHists:  make([]Histogram, 2*st.NumPredicates()),
		pairCards: make(map[pairKey]float64),
	}
	shared := func(c Column) bool {
		return int(c.Pred) <= prev.st.NumPredicates() && sameSlice(s.table(c).Keys, prev.table(c).Keys)
	}
	for p := 1; p <= st.NumPredicates(); p++ {
		for i, c := range []Column{{Pred: uint32(p), Subject: true}, {Pred: uint32(p)}} {
			if shared(c) {
				s.keyHists[2*(p-1)+i] = prev.keyHists[2*(p-1)+i]
			} else {
				s.keyHists[2*(p-1)+i] = BuildHistogram(s.table(c).Keys, DefaultBuckets)
			}
		}
	}
	prev.mu.Lock()
	defer prev.mu.Unlock()
	for k, card := range prev.pairCards {
		if shared(k.a) && shared(k.b) {
			s.pairCards[k] = card
		}
	}
	return s
}

// sameSlice reports whether a and b are the same backing storage — equal
// length and first-element address. Tables copied by value during a merge
// share their slices; rebuilt tables never do.
func sameSlice(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	return len(a) == 0 || &a[0] == &b[0]
}

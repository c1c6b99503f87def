// Package stats provides the cardinality statistics PARJ's optimizer uses
// (paper §4.3): equi-depth histograms over table columns plus exact
// predicate-pair join cardinalities used as a corrective step, since
// histogram estimates are known to be unreliable on RDF data.
package stats

import (
	"sort"
	"sync"

	"parj/internal/store"
)

// Histogram is an equi-depth histogram over a sorted column. Each bucket
// holds approximately the same number of values; bucket boundaries adapt to
// skew.
type Histogram struct {
	// bounds[i] is the largest value in bucket i; buckets span
	// (bounds[i-1], bounds[i]].
	bounds []uint32
	// counts[i] is the exact number of values in bucket i (the last bucket
	// may be smaller than the others).
	counts []int
	min    uint32 // smallest summarized value; first bucket spans [min, bounds[0]]
	total  int
}

// BuildHistogram constructs an equi-depth histogram with at most buckets
// buckets from a sorted slice. The slice may contain duplicates.
func BuildHistogram(sorted []uint32, buckets int) Histogram {
	h := Histogram{total: len(sorted)}
	if len(sorted) == 0 || buckets <= 0 {
		return h
	}
	h.min = sorted[0]
	depth := (len(sorted) + buckets - 1) / buckets
	for start := 0; start < len(sorted); {
		end := start + depth
		if end > len(sorted) {
			end = len(sorted)
		}
		// Extend the bucket so equal values never straddle a boundary;
		// otherwise EstimateEq double-counts.
		for end < len(sorted) && sorted[end] == sorted[end-1] {
			end++
		}
		h.bounds = append(h.bounds, sorted[end-1])
		h.counts = append(h.counts, end-start)
		start = end
	}
	return h
}

// Total returns the number of values summarized.
func (h Histogram) Total() int { return h.total }

// Buckets returns the number of buckets.
func (h Histogram) Buckets() int { return len(h.bounds) }

// EstimateEq estimates how many values equal v, assuming values are spread
// uniformly across their bucket's value range.
func (h Histogram) EstimateEq(v uint32) float64 {
	if h.total == 0 {
		return 0
	}
	i := sort.Search(len(h.bounds), func(i int) bool { return h.bounds[i] >= v })
	if i == len(h.bounds) {
		return 0
	}
	lo := h.min
	if i > 0 {
		lo = h.bounds[i-1] + 1
	}
	if v < lo {
		return 0
	}
	width := float64(h.bounds[i]-lo) + 1
	return float64(h.counts[i]) / width
}

// EstimateRange estimates how many values fall in [lo, hi].
func (h Histogram) EstimateRange(lo, hi uint32) float64 {
	if h.total == 0 || hi < lo {
		return 0
	}
	est := 0.0
	for i := range h.bounds {
		bLo := h.min
		if i > 0 {
			bLo = h.bounds[i-1] + 1
		}
		bHi := h.bounds[i]
		if bHi < lo || bLo > hi {
			continue
		}
		overlapLo, overlapHi := maxU32(bLo, lo), minU32(bHi, hi)
		width := float64(bHi-bLo) + 1
		est += float64(h.counts[i]) * (float64(overlapHi-overlapLo) + 1) / width
	}
	return est
}

func maxU32(a, b uint32) uint32 {
	if a > b {
		return a
	}
	return b
}

func minU32(a, b uint32) uint32 {
	if a < b {
		return a
	}
	return b
}

// Column identifies one column of one predicate's table: the subject or
// object column of predicate Pred.
type Column struct {
	Pred    uint32
	Subject bool // true = subject column, false = object column
}

// Stats aggregates per-table statistics and memoized pair cardinalities for
// one store. Safe for concurrent use after NewStats returns.
type Stats struct {
	st *store.Store

	// keyHists[i] summarizes the key column; one entry per table, S-O
	// tables at 2·(p−1), O-S at 2·(p−1)+1, mirroring the paper's directory
	// layout.
	keyHists []Histogram

	mu        sync.Mutex
	pairCards map[pairKey]float64

	csOnce sync.Once
	cs     *CharSets
}

type pairKey struct {
	a, b Column
}

// DefaultBuckets is the histogram resolution used by New.
const DefaultBuckets = 64

// New computes statistics for st. Histograms are built per table key
// column; pair cardinalities are computed lazily and memoized.
func New(st *store.Store) *Stats {
	s := &Stats{
		st:        st,
		keyHists:  make([]Histogram, 2*st.NumPredicates()),
		pairCards: make(map[pairKey]float64),
	}
	for p := 1; p <= st.NumPredicates(); p++ {
		s.keyHists[2*(p-1)] = BuildHistogram(st.SO(uint32(p)).Keys, DefaultBuckets)
		s.keyHists[2*(p-1)+1] = BuildHistogram(st.OS(uint32(p)).Keys, DefaultBuckets)
	}
	return s
}

// table returns the replica whose key column is c.
func (s *Stats) table(c Column) *store.Table {
	if c.Subject {
		return s.st.SO(c.Pred)
	}
	return s.st.OS(c.Pred)
}

// Triples returns the triple count of predicate p.
func (s *Stats) Triples(p uint32) int { return s.st.SO(p).NumTriples() }

// Distinct returns the number of distinct values in column c.
func (s *Stats) Distinct(c Column) int { return s.table(c).NumKeys() }

// AvgRun returns the average number of values per distinct key of column c
// (e.g. the average out-degree for a subject column).
func (s *Stats) AvgRun(c Column) float64 {
	t := s.table(c)
	if t.NumKeys() == 0 {
		return 0
	}
	return float64(t.NumTriples()) / float64(t.NumKeys())
}

// CountExact returns the exact number of triples of predicate c.Pred whose
// column c equals v — a single table lookup, so constants in triple
// patterns are estimated exactly (paper §4.3 chooses replicas by
// selectivity; exact lookups make that choice reliable).
func (s *Stats) CountExact(c Column, v uint32) int {
	t := s.table(c)
	pos, ok := t.LookupKey(v)
	if !ok {
		return 0
	}
	lo, hi := t.RunBounds(pos)
	return hi - lo
}

// PairCardinality returns the exact size of the equi-join between column a
// of predicate a.Pred and column b of predicate b.Pred, i.e. the number of
// (ta, tb) triple pairs agreeing on those columns. Results are memoized.
// This is the paper's precomputed corrective statistic, computed lazily so
// only pairs that queries actually touch are materialized.
func (s *Stats) PairCardinality(a, b Column) float64 {
	if a.Pred > b.Pred || (a.Pred == b.Pred && !a.Subject && b.Subject) {
		a, b = b, a // canonical order halves the memo
	}
	key := pairKey{a, b}
	s.mu.Lock()
	if v, ok := s.pairCards[key]; ok {
		s.mu.Unlock()
		return v
	}
	s.mu.Unlock()

	v := s.computePairCardinality(a, b)

	s.mu.Lock()
	s.pairCards[key] = v
	s.mu.Unlock()
	return v
}

func (s *Stats) computePairCardinality(a, b Column) float64 {
	ta, tb := s.table(a), s.table(b)
	// Merge the two sorted distinct-key arrays; for every common key, the
	// join contributes runLen(a) × runLen(b) pairs.
	var total float64
	i, j := 0, 0
	for i < len(ta.Keys) && j < len(tb.Keys) {
		switch {
		case ta.Keys[i] < tb.Keys[j]:
			i++
		case ta.Keys[i] > tb.Keys[j]:
			j++
		default:
			la, ha := ta.RunBounds(i)
			lb, hb := tb.RunBounds(j)
			total += float64(ha-la) * float64(hb-lb)
			i++
			j++
		}
	}
	return total
}

// JoinSelectivityDistinct returns the number of distinct values shared by
// columns a and b — the common-key count of the pair join.
func (s *Stats) JoinSelectivityDistinct(a, b Column) int {
	ta, tb := s.table(a), s.table(b)
	n, i, j := 0, 0, 0
	for i < len(ta.Keys) && j < len(tb.Keys) {
		switch {
		case ta.Keys[i] < tb.Keys[j]:
			i++
		case ta.Keys[i] > tb.Keys[j]:
			j++
		default:
			n++
			i++
			j++
		}
	}
	return n
}

// Package stats provides the cardinality statistics PARJ's optimizer uses
// (paper §4.3): per-table counts read straight off the CSR tables (triples,
// distinct keys, exact run lengths of a constant) plus exact predicate-pair
// join cardinalities, the corrective step the paper adds because column
// summaries are known to be unreliable on RDF data.
package stats

import (
	"sync"

	"parj/internal/store"
)

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

	mu        sync.Mutex
	pairCards map[pairKey]float64

	csOnce sync.Once
	cs     *CharSets
}

type pairKey struct {
	a, b Column
}

// New returns statistics for st. Table counts are read from st on demand;
// pair cardinalities are computed lazily and memoized.
func New(st *store.Store) *Stats {
	return &Stats{st: st, pairCards: make(map[pairKey]float64)}
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

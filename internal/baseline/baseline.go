// Package baseline is the front end the three comparator engines of the
// paper's Tables 2–4 share: hashjoin (RDFox-like), rdf3x (RDF-3X-like) and
// triad (TriAD-like). It holds, once each, the work none of them models —
// dictionary encoding, the greedy join order over one cardinality estimate,
// binding a pattern's triples to rows, and result handling (projection,
// DISTINCT, LIMIT, decoding) — so the engines differ in their join
// machinery and in nothing else.
package baseline

import (
	"encoding/binary"
	"slices"

	"parj/internal/dict"
	"parj/internal/rdf"
	"parj/internal/sparql"
)

// Data is a loaded dataset's encoding: its two dictionaries and the
// distinct-triple count per predicate, which is all the shared cardinality
// estimate reads.
type Data struct {
	Resources  *dict.Dict // subjects and objects
	Predicates *dict.Dict
	PredCount  []int // PredCount[p-1] is predicate p's distinct triples
	N          int   // distinct triples
}

// Encode dictionary-encodes triples, subject, predicate and object in turn,
// and drops duplicates. It returns the encoding and the distinct triples as
// (subject, predicate, object) IDs in first-appearance order.
func Encode(triples []rdf.Triple) (*Data, [][3]uint32) {
	d := &Data{Resources: dict.New(), Predicates: dict.New()}
	seen := make(map[[3]uint32]struct{}, len(triples))
	var spo [][3]uint32
	for _, t := range triples {
		k := [3]uint32{d.Resources.Encode(t.S), d.Predicates.Encode(t.P), d.Resources.Encode(t.O)}
		if _, dup := seen[k]; !dup {
			seen[k] = struct{}{}
			spo = append(spo, k)
		}
	}
	d.N = len(spo)
	d.PredCount = make([]int, d.Predicates.Len())
	for _, t := range spo {
		d.PredCount[t[1]-1]++
	}
	return d, spo
}

// card estimates a pattern's matches: its predicate's triples (all triples
// under a variable predicate, none under an unknown one), divided by a
// nominal hundred distinct values for each constant subject or object.
// Without per-value statistics the estimate is crude; the greedy order only
// needs its ranks.
func (d *Data) card(tp sparql.TriplePattern) float64 {
	n := float64(d.N)
	if !tp.P.IsVar() {
		n = 0
		if p := d.Predicates.Lookup(tp.P.Value); p != 0 {
			n = float64(d.PredCount[p-1])
		}
	}
	if !tp.S.IsVar() {
		n /= 100
	}
	if !tp.O.IsVar() {
		n /= 100
	}
	return n
}

// Order is the greedy join order, connected first and cheapest first: it
// repeatedly takes, among the patterns not yet placed, one sharing a
// variable with those placed (any, for the first), and among those the
// lowest estimate, the lower index on a tie. Only when no remaining pattern
// is connected does it take the cheapest of all, a Cartesian product.
func (d *Data) Order(patterns []sparql.TriplePattern) []int {
	cards := make([]float64, len(patterns))
	for i, tp := range patterns {
		cards[i] = d.card(tp)
	}
	used := make([]bool, len(patterns))
	bound := map[string]bool{}
	out := make([]int, 0, len(patterns))
	for len(out) < len(patterns) {
		best, bestConnected := -1, false
		for i, tp := range patterns {
			if used[i] {
				continue
			}
			connected := len(out) == 0
			for _, v := range tp.Vars() {
				connected = connected || bound[v]
			}
			if best < 0 || connected && !bestConnected ||
				connected == bestConnected && cards[i] < cards[best] {
				best, bestConnected = i, connected
			}
		}
		used[best] = true
		out = append(out, best)
		for _, v := range patterns[best].Vars() {
			bound[v] = true
		}
	}
	return out
}

// Pattern binds one triple pattern's matching triples to rows over its
// variables.
type Pattern struct {
	// Vars lists the pattern's variables in subject, predicate, object
	// order, each once: the columns of the rows Bind returns.
	Vars []string
	at   [3]int // column of the subject, predicate and object; -1 for a constant
}

// NewPattern lays out tp's row.
func NewPattern(tp sparql.TriplePattern) Pattern {
	var p Pattern
	for r, tm := range [3]sparql.Term{tp.S, tp.P, tp.O} {
		p.at[r] = -1
		if tm.IsVar() {
			if p.at[r] = slices.Index(p.Vars, tm.Var); p.at[r] < 0 {
				p.at[r] = len(p.Vars)
				p.Vars = append(p.Vars, tm.Var)
			}
		}
	}
	return p
}

// Bind returns the row of the triple (s, p, o), or false when a variable
// the pattern repeats would take two different values.
func (p *Pattern) Bind(s, pred, o uint32) ([]uint32, bool) {
	row := make([]uint32, len(p.Vars))
	var set [3]bool
	for r, id := range [3]uint32{s, pred, o} {
		c := p.at[r]
		if c < 0 {
			continue
		}
		if set[c] && row[c] != id {
			return nil, false
		}
		row[c], set[c] = id, true
	}
	return row, true
}

// AppendKey appends the little-endian bytes of row's columns cols to b, 0
// for a column of -1: a map key for a tuple of IDs.
func AppendKey(b []byte, row []uint32, cols []int) []byte {
	for _, c := range cols {
		var v uint32
		if c >= 0 {
			v = row[c]
		}
		b = binary.LittleEndian.AppendUint32(b, v)
	}
	return b
}

// Collector is the result end every baseline shares: it takes solution
// rows, projects them onto the query's SELECT list, drops repeats under
// DISTINCT and stops at LIMIT, which counts distinct rows. It keeps the
// projected rows only when asked to, so a count stays non-materializing.
type Collector struct {
	Count int64      // rows accepted
	Rows  [][]uint32 // the accepted projected rows, when keeping them

	cols  []int // row column of each projected variable; -1 when absent
	limit int64 // -1 without LIMIT
	keep  bool
	seen  map[string]struct{} // non-nil under DISTINCT
	key   []byte
}

// NewCollector collects q's results from rows whose columns hold vars, in
// order; keep says whether to keep the projected rows or only count them.
func NewCollector(q *sparql.Query, vars []string, keep bool) *Collector {
	c := &Collector{limit: -1, keep: keep}
	if q.HasLimit {
		c.limit = int64(q.Limit)
	}
	if q.Distinct {
		c.seen = map[string]struct{}{}
	}
	for _, v := range q.Projection() {
		c.cols = append(c.cols, slices.Index(vars, v))
	}
	return c
}

// Done reports whether LIMIT is reached: no further row is accepted.
func (c *Collector) Done() bool { return c.limit >= 0 && c.Count >= c.limit }

// Add offers one solution row and reports whether more rows are wanted.
func (c *Collector) Add(row []uint32) bool {
	if c.Done() {
		return false
	}
	if c.seen != nil {
		c.key = AppendKey(c.key[:0], row, c.cols)
		if _, dup := c.seen[string(c.key)]; dup {
			return true
		}
		c.seen[string(c.key)] = struct{}{}
	}
	c.Count++
	if c.keep {
		pr := make([]uint32, len(c.cols))
		for i, col := range c.cols {
			if col >= 0 {
				pr[i] = row[col]
			}
		}
		c.Rows = append(c.Rows, pr)
	}
	return !c.Done()
}

// Decode turns rows of q's projection into terms: a variable that stands
// in a predicate position of q decodes through the predicate dictionary,
// every other one through the resource dictionary.
func (d *Data) Decode(q *sparql.Query, rows [][]uint32) [][]string {
	proj := q.Projection()
	dicts := make([]*dict.Dict, len(proj))
	for i, v := range proj {
		dicts[i] = d.Resources
		for _, tp := range q.Patterns {
			if tp.P.IsVar() && tp.P.Var == v {
				dicts[i] = d.Predicates
			}
		}
	}
	return dict.DecodeRows(dicts, rows)
}

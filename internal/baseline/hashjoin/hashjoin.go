// Package hashjoin implements the single-threaded, materializing hash-join
// engine used as the RDFox-like comparator in the paper's single-thread
// experiments (Tables 2–4): no intra-query parallelism, every intermediate
// result materialized, and hash joins (the table built on the smaller side)
// that exploit neither sort order nor locality. Encoding, the greedy join
// order and result handling come from package baseline.
package hashjoin

import (
	"slices"
	"sort"

	"parj/internal/baseline"
	"parj/internal/rdf"
	"parj/internal/sparql"
)

// pair is one (subject, object) row of a predicate's table.
type pair struct{ s, o uint32 }

// Engine is an immutable single-threaded BGP evaluator.
type Engine struct {
	d      *baseline.Data
	tables [][]pair // tables[p-1] holds predicate p's pairs
}

// Load builds an engine from parsed triples (duplicates ignored).
func Load(triples []rdf.Triple) *Engine {
	d, spo := baseline.Encode(triples)
	e := &Engine{d: d, tables: make([][]pair, len(d.PredCount))}
	for _, t := range spo {
		e.tables[t[1]-1] = append(e.tables[t[1]-1], pair{t[0], t[2]})
	}
	return e
}

// NumTriples reports the number of distinct triples loaded.
func (e *Engine) NumTriples() int { return e.d.N }

// relation is a materialized intermediate result: a schema of variable
// names and a flat row buffer.
type relation struct {
	vars []string
	rows [][]uint32
}

// Count evaluates q and returns the result-row count (after DISTINCT and
// LIMIT), without decoding rows.
func (e *Engine) Count(q *sparql.Query) (int64, error) {
	return e.eval(q, false).Count, nil
}

// Evaluate returns the decoded projected rows.
func (e *Engine) Evaluate(q *sparql.Query) ([][]string, error) {
	return e.d.Decode(q, e.eval(q, true).Rows), nil
}

// eval scans the patterns in greedy order, hash-joining each into the
// accumulated relation, and hands the result to a collector.
func (e *Engine) eval(q *sparql.Query, keep bool) *baseline.Collector {
	acc := &relation{}
	for n, idx := range e.d.Order(q.Patterns) {
		scanned := e.scan(q.Patterns[idx])
		if n == 0 {
			acc = scanned
		} else {
			acc = hashJoin(acc, scanned)
		}
		if len(acc.rows) == 0 {
			break
		}
	}
	c := baseline.NewCollector(q, acc.vars, keep)
	for _, row := range acc.rows {
		if !c.Add(row) {
			break
		}
	}
	return c
}

// scan materializes the bindings of a single pattern.
func (e *Engine) scan(tp sparql.TriplePattern) *relation {
	pat := baseline.NewPattern(tp)
	rel := &relation{vars: pat.Vars}
	var sConst, oConst uint32
	if !tp.S.IsVar() {
		if sConst = e.d.Resources.Lookup(tp.S.Value); sConst == 0 {
			return rel
		}
	}
	if !tp.O.IsVar() {
		if oConst = e.d.Resources.Lookup(tp.O.Value); oConst == 0 {
			return rel
		}
	}
	var preds []uint32
	if tp.P.IsVar() {
		for p := range e.tables {
			preds = append(preds, uint32(p+1))
		}
	} else if p := e.d.Predicates.Lookup(tp.P.Value); p != 0 {
		preds = []uint32{p}
	}
	for _, p := range preds {
		for _, pr := range e.tables[p-1] {
			if sConst != 0 && pr.s != sConst || oConst != 0 && pr.o != oConst {
				continue
			}
			if row, ok := pat.Bind(pr.s, p, pr.o); ok {
				rel.rows = append(rel.rows, row)
			}
		}
	}
	return rel
}

// hashJoin joins two materialized relations on all shared variables,
// building the hash table on the smaller input.
func hashJoin(a, b *relation) *relation {
	if len(a.rows) > len(b.rows) {
		a, b = b, a
	}
	// Output schema: a's vars then b's non-shared vars.
	out := &relation{vars: slices.Clone(a.vars)}
	var aCols, bCols, bExtra []int
	for j, v := range b.vars {
		if i := slices.Index(a.vars, v); i >= 0 {
			aCols = append(aCols, i)
			bCols = append(bCols, j)
		} else {
			out.vars = append(out.vars, v)
			bExtra = append(bExtra, j)
		}
	}
	// Without shared variables every key is empty: a Cartesian product.
	ht := make(map[string][][]uint32, len(a.rows))
	for _, ra := range a.rows {
		k := string(baseline.AppendKey(nil, ra, aCols))
		ht[k] = append(ht[k], ra)
	}
	var key []byte
	for _, rb := range b.rows {
		key = baseline.AppendKey(key[:0], rb, bCols)
		for _, ra := range ht[string(key)] {
			row := slices.Grow(slices.Clone(ra), len(bExtra))
			for _, c := range bExtra {
				row = append(row, rb[c])
			}
			out.rows = append(out.rows, row)
		}
	}
	return out
}

// SortRowsForTest orders rows deterministically; exported for tests.
func SortRowsForTest(rows [][]string) {
	sort.Slice(rows, func(i, j int) bool {
		a, b := rows[i], rows[j]
		for k := 0; k < len(a) && k < len(b); k++ {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return len(a) < len(b)
	})
}

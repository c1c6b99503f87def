// Package rdf3x implements the RDF-3X-like baseline of the paper's
// single-thread experiments: a single-threaded engine that stores all six
// triple permutations (SPO, SOP, PSO, POS, OSP, OPS) in clustered,
// page-structured B+ trees and evaluates BGPs with pipelined index scans.
// Probe streams that arrive sorted advance a per-pattern cursor with
// page-granularity skipping (the sideways-information-passing flavor of
// RDF-3X); unsorted probes pay a full root-to-leaf descent per binding.
//
// This captures what the paper measures about RDF-3X in memory: B+ tree
// page organization and per-page processing rather than flat arrays.
package rdf3x

import (
	"fmt"
	"sort"

	"parj/internal/baseline/btree"
	"parj/internal/dict"
	"parj/internal/rdf"
	"parj/internal/sparql"
)

// perm identifies one of the six permutations; order[i] gives the triple
// role (0=S, 1=P, 2=O) stored at key position i.
type perm struct {
	name  string
	order [3]int
}

var perms = []perm{
	{"SPO", [3]int{0, 1, 2}},
	{"SOP", [3]int{0, 2, 1}},
	{"PSO", [3]int{1, 0, 2}},
	{"POS", [3]int{1, 2, 0}},
	{"OSP", [3]int{2, 0, 1}},
	{"OPS", [3]int{2, 1, 0}},
}

// Engine is an immutable six-index BGP evaluator.
type Engine struct {
	resources  *dict.Dict
	predicates *dict.Dict
	trees      [6]*btree.Tree
	predCount  map[uint32]int // triples per predicate, for greedy ordering
	nTriples   int
}

// Load builds the six permutation indexes from parsed triples.
func Load(triples []rdf.Triple) *Engine {
	return LoadWithPageSize(triples, btree.DefaultPageSize)
}

// LoadWithPageSize allows tests to force small pages.
func LoadWithPageSize(triples []rdf.Triple, pageSize int) *Engine {
	e := &Engine{resources: dict.New(), predicates: dict.New(), predCount: map[uint32]int{}}
	seen := make(map[btree.Key]bool, len(triples))
	var spo []btree.Key
	for _, t := range triples {
		k := btree.Key{e.resources.Encode(t.S), e.predicates.Encode(t.P), e.resources.Encode(t.O)}
		if seen[k] {
			continue
		}
		seen[k] = true
		spo = append(spo, k)
	}
	e.nTriples = len(spo)
	for _, k := range spo {
		e.predCount[k[1]]++
	}
	for pi, p := range perms {
		keys := make([]btree.Key, len(spo))
		for i, t := range spo {
			keys[i] = btree.Key{t[p.order[0]], t[p.order[1]], t[p.order[2]]}
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i].Less(keys[j]) })
		e.trees[pi] = btree.BulkLoad(keys, pageSize)
	}
	return e
}

// NumTriples reports the number of distinct triples loaded.
func (e *Engine) NumTriples() int { return e.nTriples }

// PageReads sums the page-access counters across indexes.
func (e *Engine) PageReads() uint64 {
	var total uint64
	for _, t := range e.trees {
		total += t.PageReads()
	}
	return total
}

// ResetPageReads clears all page counters.
func (e *Engine) ResetPageReads() {
	for _, t := range e.trees {
		t.ResetPageReads()
	}
}

// roleTerm describes one role of a compiled pattern.
type roleTerm struct {
	constID uint32 // 0 when variable
	slot    int    // binding slot; -1 for constants
	isNew   bool   // first binding of the slot
}

// compiled is one pipeline step.
type compiled struct {
	perm      int         // permutation index
	prefixLen int         // number of leading key positions fixed per probe
	roles     [3]roleTerm // in permutation key order
}

type evalState struct {
	e       *Engine
	steps   []compiled
	binding []uint32
	cursors []btree.Cursor
	hasCur  []bool

	project  []int
	distinct bool
	limit    int

	seen      map[string]bool
	rows      [][]uint32
	count     int64
	silent    bool
	limitZero bool // LIMIT 0: zero rows
}

// Count evaluates q without materializing rows (other than DISTINCT
// bookkeeping).
func (e *Engine) Count(q *sparql.Query) (int64, error) {
	st, err := e.prepare(q)
	if err != nil {
		return 0, err
	}
	st.silent = true
	st.run()
	return st.count, nil
}

// Evaluate returns the decoded projected rows.
func (e *Engine) Evaluate(q *sparql.Query) ([][]string, error) {
	st, err := e.prepare(q)
	if err != nil {
		return nil, err
	}
	st.run()
	predVar := map[int]bool{}
	slotOf := map[string]int{}
	// Recover slot names for decoding: recompute as prepare did.
	for _, tp := range q.Patterns {
		for _, tm := range []sparql.Term{tp.S, tp.P, tp.O} {
			if tm.IsVar() {
				if _, ok := slotOf[tm.Var]; !ok {
					slotOf[tm.Var] = len(slotOf)
				}
			}
		}
		if tp.P.IsVar() {
			predVar[slotOf[tp.P.Var]] = true
		}
	}
	out := make([][]string, len(st.rows))
	for i, row := range st.rows {
		dec := make([]string, len(row))
		for j, id := range row {
			if predVar[st.project[j]] {
				dec[j] = e.predicates.Decode(id)
			} else {
				dec[j] = e.resources.Decode(id)
			}
		}
		out[i] = dec
	}
	return out, nil
}

// prepare orders the patterns greedily and compiles them to pipeline steps.
func (e *Engine) prepare(q *sparql.Query) (*evalState, error) {
	// Slot assignment in variable first-appearance order (must match
	// Evaluate's reconstruction).
	slotOf := map[string]int{}
	for _, tp := range q.Patterns {
		for _, tm := range []sparql.Term{tp.S, tp.P, tp.O} {
			if tm.IsVar() {
				if _, ok := slotOf[tm.Var]; !ok {
					slotOf[tm.Var] = len(slotOf)
				}
			}
		}
	}

	order := e.greedyOrder(q.Patterns)
	st := &evalState{
		e:         e,
		binding:   make([]uint32, len(slotOf)),
		distinct:  q.Distinct,
		limit:     q.Limit,
		limitZero: q.HasLimit && q.Limit == 0,
	}
	bound := map[string]bool{}
	for _, idx := range order {
		c, err := e.compile(q.Patterns[idx], slotOf, bound)
		if err != nil {
			return nil, err
		}
		st.steps = append(st.steps, c)
		for _, v := range q.Patterns[idx].Vars() {
			bound[v] = true
		}
	}
	st.cursors = make([]btree.Cursor, len(st.steps))
	st.hasCur = make([]bool, len(st.steps))
	for _, v := range q.Projection() {
		st.project = append(st.project, slotOf[v])
	}
	if q.Distinct {
		st.seen = map[string]bool{}
	}
	return st, nil
}

func (e *Engine) greedyOrder(patterns []sparql.TriplePattern) []int {
	n := len(patterns)
	used := make([]bool, n)
	bound := map[string]bool{}
	var out []int
	for len(out) < n {
		best, bestCard := -1, 0.0
		bestConnected := false
		for i := 0; i < n; i++ {
			if used[i] {
				continue
			}
			connected := len(out) == 0
			for _, v := range patterns[i].Vars() {
				if bound[v] {
					connected = true
				}
			}
			card := e.baseCard(patterns[i])
			if best == -1 ||
				(connected && !bestConnected) ||
				(connected == bestConnected && card < bestCard) {
				best, bestCard, bestConnected = i, card, connected
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

func (e *Engine) baseCard(tp sparql.TriplePattern) float64 {
	var n float64
	if tp.P.IsVar() {
		n = float64(e.nTriples)
	} else {
		n = float64(e.predCount[e.predicates.Lookup(tp.P.Value)])
	}
	if !tp.S.IsVar() {
		n /= 100
	}
	if !tp.O.IsVar() {
		n /= 100
	}
	return n
}

// compile chooses the permutation whose key order puts the pattern's
// constant and already-bound roles first, so each probe is a contiguous
// range scan.
func (e *Engine) compile(tp sparql.TriplePattern, slotOf map[string]int, bound map[string]bool) (compiled, error) {
	terms := [3]sparql.Term{tp.S, tp.P, tp.O}
	isFixed := [3]bool{} // role known at probe time (const or bound var)
	for r, tm := range terms {
		if !tm.IsVar() || bound[tm.Var] {
			isFixed[r] = true
		}
	}
	nFixed := 0
	for _, f := range isFixed {
		if f {
			nFixed++
		}
	}
	seenVar := map[string]bool{}
	for pi, p := range perms {
		ok := true
		for i := 0; i < nFixed; i++ {
			if !isFixed[p.order[i]] {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		c := compiled{perm: pi, prefixLen: nFixed}
		for i, role := range p.order {
			tm := terms[role]
			if !tm.IsVar() {
				id := e.lookupConst(role, tm.Value)
				c.roles[i] = roleTerm{constID: id, slot: -1}
				if id == 0 {
					// Unknown constant: empty range, signalled by a probe
					// that can never match. Keep constID 0; run() checks.
					c.roles[i].isNew = false
				}
				continue
			}
			slot := slotOf[tm.Var]
			rt := roleTerm{slot: slot}
			if !bound[tm.Var] && !seenVar[tm.Var] {
				rt.isNew = true
				seenVar[tm.Var] = true
			}
			c.roles[i] = rt
		}
		return c, nil
	}
	return compiled{}, fmt.Errorf("rdf3x: no permutation covers pattern %s", tp)
}

func (e *Engine) lookupConst(role int, value string) uint32 {
	if role == 1 {
		return e.predicates.Lookup(value)
	}
	return e.resources.Lookup(value)
}

func (st *evalState) run() {
	if st.limitZero {
		return
	}
	st.step(0)
}

// step executes pipeline stage i; returns false when the limit is reached.
func (st *evalState) step(i int) bool {
	if i == len(st.steps) {
		return st.emit()
	}
	c := &st.steps[i]
	var lower btree.Key
	for k := 0; k < c.prefixLen; k++ {
		rt := c.roles[k]
		if rt.slot < 0 {
			if rt.constID == 0 {
				return true // unknown constant: no matches
			}
			lower[k] = rt.constID
		} else {
			lower[k] = st.binding[rt.slot]
		}
	}
	tree := st.e.trees[c.perm]
	// SIP-style cursor reuse: sorted probe streams skip forward instead of
	// descending from the root.
	if st.hasCur[i] && st.cursors[i].Valid() && !lower.Less(st.cursors[i].Key()) {
		st.cursors[i].SeekForward(lower)
	} else {
		st.cursors[i] = tree.Seek(lower)
	}
	st.hasCur[i] = true

	for cur := &st.cursors[i]; cur.Valid(); cur.Next() {
		key := cur.Key()
		match := true
		for k := 0; k < c.prefixLen; k++ {
			if key[k] != lower[k] {
				match = false
				break
			}
		}
		if !match {
			break // past the range
		}
		ok := true
		var newSlots [3]int
		nNew := 0
		for k := c.prefixLen; k < 3; k++ {
			rt := c.roles[k]
			if rt.slot < 0 {
				if key[k] != rt.constID {
					ok = false
					break
				}
				continue
			}
			if rt.isNew {
				// First occurrence of the variable in this pattern; a
				// later duplicate in the same key compiles as non-new and
				// is checked against the value bound here.
				st.binding[rt.slot] = key[k]
				newSlots[nNew] = rt.slot
				nNew++
			} else if st.binding[rt.slot] != key[k] {
				ok = false
				break
			}
		}
		if ok && !st.step(i+1) {
			return false
		}
	}
	return true
}

func (st *evalState) emit() bool {
	row := make([]uint32, len(st.project))
	for i, slot := range st.project {
		row[i] = st.binding[slot]
	}
	if st.distinct {
		k := rowKey(row)
		if st.seen[k] {
			return true
		}
		st.seen[k] = true
	}
	st.count++
	if !st.silent {
		st.rows = append(st.rows, row)
	}
	return st.limit == 0 || st.count < int64(st.limit)
}

func rowKey(row []uint32) string {
	b := make([]byte, 0, len(row)*4)
	for _, v := range row {
		b = append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	}
	return string(b)
}

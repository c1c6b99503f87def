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
// Encoding, the greedy join order and result handling come from package
// baseline.
package rdf3x

import (
	"fmt"
	"sort"

	"parj/internal/baseline"
	"parj/internal/baseline/btree"
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
	d     *baseline.Data
	trees [6]*btree.Tree
}

// Load builds the six permutation indexes from parsed triples.
func Load(triples []rdf.Triple) *Engine {
	return LoadWithPageSize(triples, btree.DefaultPageSize)
}

// LoadWithPageSize allows tests to force small pages.
func LoadWithPageSize(triples []rdf.Triple, pageSize int) *Engine {
	d, spo := baseline.Encode(triples)
	e := &Engine{d: d}
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
func (e *Engine) NumTriples() int { return e.d.N }

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
	out     *baseline.Collector
}

// Count evaluates q without materializing rows (other than DISTINCT
// bookkeeping).
func (e *Engine) Count(q *sparql.Query) (int64, error) {
	c, err := e.run(q, false)
	if err != nil {
		return 0, err
	}
	return c.Count, nil
}

// Evaluate returns the decoded projected rows.
func (e *Engine) Evaluate(q *sparql.Query) ([][]string, error) {
	c, err := e.run(q, true)
	if err != nil {
		return nil, err
	}
	return e.d.Decode(q, c.Rows), nil
}

// run orders the patterns greedily, compiles them to pipeline steps and
// drives the pipeline into a collector over the binding slots.
func (e *Engine) run(q *sparql.Query, keep bool) (*baseline.Collector, error) {
	// Slots in variable first-appearance order.
	var slots []string
	slotOf := map[string]int{}
	for _, tp := range q.Patterns {
		for _, v := range tp.Vars() {
			if _, ok := slotOf[v]; !ok {
				slotOf[v] = len(slots)
				slots = append(slots, v)
			}
		}
	}
	st := &evalState{
		e:       e,
		binding: make([]uint32, len(slots)),
		out:     baseline.NewCollector(q, slots, keep),
	}
	bound := map[string]bool{}
	for _, idx := range e.d.Order(q.Patterns) {
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
	if !st.out.Done() {
		st.step(0)
	}
	return st.out, nil
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
				// An unknown constant keeps constID 0, which step reads as
				// an empty range.
				c.roles[i] = roleTerm{constID: e.lookupConst(role, tm.Value), slot: -1}
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
		return e.d.Predicates.Lookup(value)
	}
	return e.d.Resources.Lookup(value)
}

// step executes pipeline stage i; returns false when the limit is reached.
func (st *evalState) step(i int) bool {
	if i == len(st.steps) {
		return st.out.Add(st.binding)
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

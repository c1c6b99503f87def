package core

// Worst-case-optimal join (WCOJ) for cyclic BGPs.
//
// The left-deep pipeline joins one pattern at a time, so a dense triangle
// materializes the full edge-pair blowup of its first two patterns before
// the third prunes it — the classic binary-join failure on cyclic shapes.
// This file adds a Leapfrog/HoneyComb-style operator that instead binds one
// *variable* at a time: at each level the candidate values are the leapfrog
// intersection (search.Intersect) of every pattern column that constrains
// the variable, so no intermediate result ever exceeds the final output's
// worst-case bound (AGM).
//
// No new data structures are needed: the store's sorted CSR replicas are
// already trie-shaped. A pattern constrains its key variable through the
// sorted Keys array and its value variable through the sorted run of the
// (by then bound) key — and because both replicas exist, either column of a
// pattern can serve as the "key" side regardless of which replica the
// pipeline planner picked.
//
// Parallelism reuses the whole morsel machinery: the first variable's
// domain is materialized once, split into contiguous shards (preserving the
// cluster extension's deterministic shard-range assignment), and cut into
// bounded-weight morselWCOJ morsels dispatched through the same CAS
// claim-span scheduler — steals, cancel poison, governance budgets and
// SchedStats all carry over unchanged.

import (
	"fmt"

	"parj/internal/optimizer"
	"parj/internal/search"
	"parj/internal/store"
)

// JoinAlgo selects the join operator for one execution.
type JoinAlgo int

const (
	// JoinAuto lets the optimizer's shape classifier decide: cyclic and
	// self-join BGPs run the worst-case-optimal operator when its cost
	// estimate beats the pipeline's (Plan.PreferWCOJ).
	JoinAuto JoinAlgo = iota
	// JoinPipeline forces the left-deep binary-join pipeline.
	JoinPipeline
	// JoinWCOJ forces the worst-case-optimal operator on eligible plans
	// (constant, unexpanded predicates); ineligible plans silently fall
	// back to the pipeline, so forcing is safe on arbitrary queries.
	JoinWCOJ
)

func (j JoinAlgo) String() string {
	switch j {
	case JoinAuto:
		return "auto"
	case JoinPipeline:
		return "pipe"
	case JoinWCOJ:
		return "wcoj"
	default:
		return fmt.Sprintf("JoinAlgo(%d)", int(j))
	}
}

// wcojSrc modes: how one pattern column constrains a variable.
const (
	// srcKeys: the variable ranges over the table's sorted key array.
	srcKeys uint8 = iota
	// srcRun: the variable ranges over the run of a plan-time-resolved
	// constant key (pos).
	srcRun
	// srcDynRun: the variable ranges over the run of a key bound at an
	// earlier level (binding[slot]); an absent key yields the empty array.
	srcDynRun
)

// wcojSrc resolves, under the current binding, to one sorted uint32 array
// constraining a variable.
type wcojSrc struct {
	t    *store.Table
	mode uint8
	pos  int // srcRun: key position whose run constrains the variable
	slot int // srcDynRun: binding slot holding the run's key
}

func (s *wcojSrc) resolve(binding []uint32) []uint32 {
	switch s.mode {
	case srcKeys:
		return s.t.Keys
	case srcRun:
		return s.t.Run(s.pos)
	default: // srcDynRun
		pos, ok := s.t.LookupKey(binding[s.slot])
		if !ok {
			return nil
		}
		return s.t.Run(pos)
	}
}

// wcojVar is one level of the variable-elimination order.
type wcojVar struct {
	slot int
	srcs []wcojSrc
	// self lists the S-O tables of self-loop patterns (?x p ?x) on this
	// variable: a candidate x must additionally satisfy (x p x), checked by
	// membership of x in x's own run.
	self []*store.Table
}

// wcojPlan is the compiled variable-at-a-time plan.
type wcojPlan struct {
	vars []wcojVar
}

// wcojFor decides whether this execution runs the worst-case-optimal
// operator, and compiles its plan. Forced pipeline, Table-6 memory tracing
// (which instruments the pipeline's probe strategies) and ineligible plans
// all fall back to the pipeline — under forced WCOJ too, so difftest can
// force either operator on every generated query.
func wcojFor(st *store.Store, plan *optimizer.Plan, opts *Options) *wcojPlan {
	switch opts.Join {
	case JoinWCOJ:
	case JoinAuto:
		if !plan.PreferWCOJ {
			return nil
		}
	default: // JoinPipeline
		return nil
	}
	if opts.MemTracer != nil {
		return nil
	}
	return buildWCOJPlan(st, plan)
}

// buildWCOJPlan compiles plan into a variable-elimination plan, or returns
// nil when the plan is ineligible: any variable or hierarchy-expanded
// predicate falls back to the pipeline (the trie view below needs one
// concrete table pair per pattern).
func buildWCOJPlan(st *store.Store, plan *optimizer.Plan) *wcojPlan {
	if len(plan.Patterns) == 0 {
		return nil
	}
	// Per pattern, orient the two replicas so keyTab's keys hold the Key
	// term's values and valTab's keys hold the Val term's values; each
	// table's runs then enumerate the opposite column for one key.
	type edge struct {
		keyTab, valTab *store.Table
		key, val       optimizer.TermPlan
		constPos       int
	}
	edges := make([]edge, len(plan.Patterns))
	occ := map[int]int{}
	var slots []int
	addSlot := func(tp optimizer.TermPlan) {
		if tp.Kind == optimizer.Const {
			return
		}
		if occ[tp.Slot] == 0 {
			slots = append(slots, tp.Slot)
		}
		occ[tp.Slot]++
	}
	for i := range plan.Patterns {
		pp := &plan.Patterns[i]
		if pp.PredID == 0 || pp.Expanded() {
			return nil
		}
		kt, vt := st.SO(pp.PredID), st.OS(pp.PredID)
		if pp.UseOS {
			kt, vt = vt, kt
		}
		edges[i] = edge{keyTab: kt, valTab: vt, key: pp.Key, val: pp.Val, constPos: pp.KeyConstPos}
		addSlot(pp.Key)
		if pp.Key.Kind == optimizer.Const || pp.Key.Slot != pp.Val.Slot {
			addSlot(pp.Val)
		}
	}
	// Elimination order: most-constrained variable first (ties by slot so
	// the order — and with it the cluster's shard partition — is
	// deterministic). slots was filled in first-appearance order, so the
	// sort input is deterministic too.
	for i := 1; i < len(slots); i++ {
		for j := i; j > 0; j-- {
			a, b := slots[j-1], slots[j]
			if occ[a] > occ[b] || (occ[a] == occ[b] && a < b) {
				break
			}
			slots[j-1], slots[j] = b, a
		}
	}
	rank := make(map[int]int, len(slots))
	vars := make([]wcojVar, len(slots))
	for lvl, slot := range slots {
		rank[slot] = lvl
		vars[lvl] = wcojVar{slot: slot}
	}
	for i := range edges {
		e := &edges[i]
		switch {
		case e.key.Kind == optimizer.Const:
			// Plan-time-resolved constant key (an unresolvable one marks the
			// whole plan Empty before execution): its run constrains the
			// value variable. The value side is never Const here — a fully
			// constant pattern is verified and dropped at plan time.
			if e.constPos < 0 {
				return nil
			}
			v := &vars[rank[e.val.Slot]]
			v.srcs = append(v.srcs, wcojSrc{t: e.keyTab, mode: srcRun, pos: e.constPos})
		case e.key.Slot == e.val.Slot:
			// Self-loop ?x p ?x: x must be both a key and a value, and the
			// pair (x, x) itself is verified per candidate via self.
			v := &vars[rank[e.key.Slot]]
			v.srcs = append(v.srcs,
				wcojSrc{t: e.keyTab, mode: srcKeys},
				wcojSrc{t: e.valTab, mode: srcKeys})
			v.self = append(v.self, e.keyTab)
		case rank[e.key.Slot] < rank[e.val.Slot]:
			vars[rank[e.key.Slot]].srcs = append(vars[rank[e.key.Slot]].srcs,
				wcojSrc{t: e.keyTab, mode: srcKeys})
			vars[rank[e.val.Slot]].srcs = append(vars[rank[e.val.Slot]].srcs,
				wcojSrc{t: e.keyTab, mode: srcDynRun, slot: e.key.Slot})
		default:
			// The value side binds first: flip to the mirror replica, whose
			// keys are the Val term's values.
			vars[rank[e.val.Slot]].srcs = append(vars[rank[e.val.Slot]].srcs,
				wcojSrc{t: e.valTab, mode: srcKeys})
			vars[rank[e.key.Slot]].srcs = append(vars[rank[e.key.Slot]].srcs,
				wcojSrc{t: e.valTab, mode: srcDynRun, slot: e.val.Slot})
		}
	}
	return &wcojPlan{vars: vars}
}

// makeWCOJShards materializes the first variable's domain — the
// intersection of its (all plan-time-resolvable) constraint arrays — and
// splits it into at most threads contiguous shards. The domain is a pure
// function of store and plan, so the cluster's deterministic shard-range
// contract holds exactly as it does for makeShards.
func makeWCOJShards(wp *wcojPlan, threads int) [][]*morsel {
	if len(wp.vars) == 0 {
		return nil
	}
	v0 := &wp.vars[0]
	arrs := make([][]uint32, 0, len(v0.srcs))
	for i := range v0.srcs {
		a := v0.srcs[i].resolve(nil) // level 0 has no earlier bindings
		if len(a) == 0 {
			return nil
		}
		arrs = append(arrs, a)
	}
	var dom []uint32
	if len(arrs) == 1 {
		dom = arrs[0]
	} else {
		dom = search.Intersect(nil, nil, arrs...)
	}
	return sliceShards(morselWCOJ, dom, threads)
}

// wcojExec is the per-worker scratch of the WCOJ executor. The buffers are
// reused across outer tuples, so steady-state execution allocates nothing.
type wcojExec struct {
	plan *wcojPlan
	arrs [][]uint32 // current level's constraint arrays
	curs []int      // leapfrog cursor scratch
	bufs [][]uint32 // per-level intersection output
}

// newWCOJExec sizes one worker's scratch for wp: a slice header per level
// plus the widest level's constraint arrays and cursors, all rewritten per
// candidate and therefore isolated like the worker's binding.
func newWCOJExec(wp *wcojPlan) wcojExec {
	nv, width := len(wp.vars), 0
	for i := range wp.vars {
		width = max(width, len(wp.vars[i].srcs))
	}
	hdrs := isolated[[]uint32](nv + width)
	return wcojExec{plan: wp, bufs: hdrs[:nv:nv], arrs: hdrs[nv:nv], curs: isolated[int](width)}
}

// wcojRange enumerates a slice of the first variable's materialized domain
// — the body of a morselWCOJ morsel. The tick per candidate keeps governance
// checks and cancellation on the same amortized schedule as the pipeline's
// outer loops; the fault hook mirrors the pipeline's probe-level injection
// point for panic-containment tests.
func (w *worker) wcojRange(dom []uint32) bool {
	v0 := &w.wcoj.plan.vars[0]
	for _, x := range dom {
		if w.tick--; w.tick <= 0 && !w.slowTick() {
			return false
		}
		if w.hooked && w.fault != nil {
			w.fault()
		}
		if len(v0.self) != 0 && !w.wcojSelfOK(v0, x) {
			continue
		}
		w.binding[v0.slot] = x
		if !w.wcojLevel(1) {
			return false
		}
	}
	return true
}

// wcojLevel binds variable d from the leapfrog intersection of its
// constraint arrays under the current partial binding, and recurses; the
// deepest level emits. Returns false when the worker must stop (LIMIT,
// governance, stream cancel), exactly like the pipeline's step.
func (w *worker) wcojLevel(d int) bool {
	vars := w.wcoj.plan.vars
	if d == len(vars) {
		return w.emit()
	}
	v := &vars[d]
	arrs := w.wcoj.arrs[:0]
	for i := range v.srcs {
		a := v.srcs[i].resolve(w.binding)
		if len(a) == 0 {
			return true // some constraint is empty: no candidates
		}
		arrs = append(arrs, a)
	}
	var cands []uint32
	if len(arrs) == 1 {
		cands = arrs[0] // a table-owned array: stable across recursion
	} else {
		w.wcoj.bufs[d] = search.Intersect(w.wcoj.bufs[d][:0], w.wcoj.curs, arrs...)
		cands = w.wcoj.bufs[d]
	}
	for _, x := range cands {
		if w.tick--; w.tick <= 0 && !w.slowTick() {
			return false
		}
		if len(v.self) != 0 && !w.wcojSelfOK(v, x) {
			continue
		}
		w.binding[v.slot] = x
		if !w.wcojLevel(d + 1) {
			return false
		}
	}
	return true
}

// wcojSelfOK verifies the self-loop patterns on v: candidate x must appear
// in its own run, i.e. the triple (x, p, x) must exist.
func (w *worker) wcojSelfOK(v *wcojVar, x uint32) bool {
	for _, t := range v.self {
		pos, ok := t.LookupKey(x)
		if !ok || !searchRun(t.Run(pos), x) {
			return false
		}
	}
	return true
}

package optimizer

import (
	"math"
	"math/bits"
	"slices"
	"sort"

	"parj/internal/sparql"
	"parj/internal/stats"
	"parj/internal/store"
)

// maxDPPatterns is the largest BGP optimized exhaustively; larger BGPs fall
// back to a greedy ordering built from the same cost model.
const maxDPPatterns = 13

// cartesianPenalty multiplies the cost of extensions that share no variable
// with the patterns joined so far.
const cartesianPenalty = 10.0

// Optimize plans q against st using statistics s.
func Optimize(q *sparql.Query, st *store.Store, s *stats.Stats) (*Plan, error) {
	return OptimizeExpanded(q, st, s, nil)
}

// OptimizeExpanded plans q with hierarchy expansion (paper §6): patterns
// whose predicate has subproperties, or whose rdf:type object has
// subclasses, are compiled to union steps over the expanded sets. Passing
// a nil Expander is equivalent to Optimize.
func OptimizeExpanded(q *sparql.Query, st *store.Store, s *stats.Stats, x Expander) (*Plan, error) {
	infos, names := numberVars(q)
	if err := checkNamespaces(infos, names); err != nil {
		return nil, err
	}
	plan := &Plan{Distinct: q.Distinct, Limit: q.Limit}
	// LIMIT 0 is valid SPARQL and yields zero rows.
	if (q.HasLimit && q.Limit == 0) || !lookupConstants(infos, st, x) {
		emptyPlan(plan, q, infos, names)
		return plan, nil
	}
	for i := range infos {
		infos[i].baseCard = baseCardinality(&infos[i], st, s)
	}

	var order []int
	var cost, card float64
	if len(infos) <= maxDPPatterns {
		order, cost, card = dpOrder(infos, len(names), st, s)
	} else {
		order, cost, card = greedyOrder(infos, len(names), st, s)
	}
	plan.EstCost, plan.EstCard = cost, card

	buildPatternPlans(plan, q, infos, names, order, st, s)
	classifyPlanShape(plan, infos, len(names), s)
	return plan, nil
}

// baseCardinality estimates (exactly where a dictionary lookup suffices)
// the result size of a single pattern. Hierarchy expansions are costed as
// the sum over their members — an upper bound, since the union
// deduplicates.
func baseCardinality(in *patternInfo, st *store.Store, s *stats.Stats) float64 {
	objects := []uint32{in.oID}
	if in.oSet != nil {
		objects = in.oSet
	}
	one := func(p uint32) float64 {
		switch {
		case in.sConst && in.oConst:
			t := st.SO(p)
			pos, ok := t.LookupKey(in.sID)
			if !ok {
				return 0
			}
			run := t.Run(pos)
			for _, o := range objects {
				i := sort.Search(len(run), func(i int) bool { return run[i] >= o })
				if i < len(run) && run[i] == o {
					return 1
				}
			}
			return 0
		case in.sConst:
			return float64(s.CountExact(stats.Column{Pred: p, Subject: true}, in.sID))
		case in.oConst:
			total := 0.0
			for _, o := range objects {
				total += float64(s.CountExact(stats.Column{Pred: p, Subject: false}, o))
			}
			return total
		default:
			return float64(s.Triples(p))
		}
	}
	if in.predConst {
		if in.predSet != nil {
			total := 0.0
			for _, p := range in.predSet {
				total += one(p)
			}
			return total
		}
		return one(in.predID)
	}
	total := 0.0
	for p := 1; p <= st.NumPredicates(); p++ {
		total += one(uint32(p))
	}
	return total
}

// varState is one variable's estimation state in a partial plan.
type varState struct {
	dv        float64      // distinct-value estimate
	origin    stats.Column // base column the variable was first bound from
	hasOrigin bool
	bound     bool
}

// joinState tracks the estimation state of a partial left-deep plan. Its
// vars and starPreds are carved from arrays shared by a whole search
// (newStates), so copying one state into another allocates nothing.
type joinState struct {
	cost      float64
	card      float64
	vars      []varState // indexed by variable id
	sortedVar int        // var the tuple stream is sorted on; -1 if none

	// While the partial plan is a pure subject-star (every pattern has the
	// same subject variable, a constant predicate and a fresh object
	// variable), starVar/starPreds track it so cardinalities come from the
	// characteristic-set statistics, which are exact for such stars — the
	// estimation upgrade the paper plans in §4.3. starVar is -1 otherwise.
	starVar   int
	starPreds []uint32

	// In the DP table, reached marks an entry that holds a state, and a
	// state links to the one it extends: prev is the mask of the patterns
	// joined before it, last the pattern it joined. dpOrder rebuilds the
	// order from these links once the search ends.
	reached    bool
	prev, last int
}

// newStates returns k states, each with room for nvars variables and n
// star predicates, carved from one array of each.
func newStates(k, nvars, n int) []joinState {
	states := make([]joinState, k)
	vars := make([]varState, k*nvars)
	preds := make([]uint32, k*n)
	for i := range states {
		states[i].vars = vars[i*nvars : (i+1)*nvars : (i+1)*nvars]
		states[i].starPreds = preds[i*n : i*n : (i+1)*n]
	}
	return states
}

// copyFrom makes js a copy of src in js's own storage.
func (js *joinState) copyFrom(src *joinState) {
	vars, preds := js.vars, js.starPreds
	*js = *src
	js.vars = vars
	copy(js.vars, src.vars)
	js.starPreds = append(preds[:0], src.starPreds...)
}

// bind marks variable v bound, first from column origin.
func (js *joinState) bind(v int, dv float64, origin stats.Column) {
	js.vars[v] = varState{dv: dv, origin: origin, hasOrigin: true, bound: true}
}

// startState initializes js with pattern i as the outer (scanned)
// relation.
func startState(js *joinState, infos []patternInfo, i int, st *store.Store, s *stats.Stats) {
	in := &infos[i]
	clear(js.vars)
	*js = joinState{
		cost:      in.baseCard,
		card:      in.baseCard,
		vars:      js.vars,
		sortedVar: -1,
		starVar:   -1,
		starPreds: js.starPreds[:0],
		reached:   true,
		last:      i,
	}
	for _, v := range in.vars {
		js.vars[v].bound = true
	}
	if in.pv >= 0 {
		js.vars[in.pv].dv = float64(st.NumPredicates())
	}
	if !in.predConst {
		// Per-var stats below need a concrete predicate; with a variable
		// predicate fall back to coarse totals.
		if in.sv >= 0 {
			js.vars[in.sv].dv = in.baseCard
		}
		if in.ov >= 0 {
			js.vars[in.ov].dv = in.baseCard
		}
		if in.sv >= 0 {
			js.sortedVar = in.sv
		}
		return
	}
	p := in.predID
	sCol := stats.Column{Pred: p, Subject: true}
	oCol := stats.Column{Pred: p, Subject: false}
	switch {
	case in.sConst && in.oConst:
		// No variables to bind.
	case in.sConst:
		// Scan the run of subjects' objects: stream sorted on the object.
		if in.ov >= 0 {
			js.bind(in.ov, math.Min(in.baseCard, float64(s.Distinct(oCol))), oCol)
			js.sortedVar = in.ov
		}
	case in.oConst:
		if in.sv >= 0 {
			js.bind(in.sv, math.Min(in.baseCard, float64(s.Distinct(sCol))), sCol)
			js.sortedVar = in.sv
		}
	default:
		if in.sv >= 0 {
			js.bind(in.sv, float64(s.Distinct(sCol)), sCol)
			js.sortedVar = in.sv
		}
		if in.ov >= 0 {
			js.bind(in.ov, float64(s.Distinct(oCol)), oCol)
		}
	}
	if isStarMember(in) {
		js.starVar = in.sv
		js.starPreds = append(js.starPreds, in.predID)
	}
}

// isStarMember reports whether a pattern can participate in exact
// characteristic-set estimation: constant unexpanded predicate, variable
// subject, fresh variable object distinct from the subject.
func isStarMember(in *patternInfo) bool {
	return in.predConst && in.predSet == nil && in.sv >= 0 && in.ov >= 0 && in.ov != in.sv
}

// extend sets next to js with pattern j joined on, or a cartesian penalty
// if no variable is shared.
func extend(next, js *joinState, infos []patternInfo, j int, s *stats.Stats) {
	in := &infos[j]
	next.copyFrom(js)

	shared := false
	for _, v := range in.vars {
		if js.vars[v].bound {
			shared = true
			break
		}
	}

	if !in.predConst {
		// Variable-predicate probe: a union over all predicates. Cost it
		// coarsely as a scan of the pattern's base cardinality per input
		// tuple fraction.
		out := js.card * math.Max(1, in.baseCard/math.Max(1, js.card))
		if !shared {
			out = js.card * in.baseCard
		}
		next.cost += js.card*math.Log2(2+in.baseCard) + out
		if !shared {
			next.cost *= cartesianPenalty
		}
		next.card = out
		for _, v := range in.vars {
			if nv := &next.vars[v]; !nv.bound {
				nv.bound = true
				nv.dv = out
			}
		}
		return
	}

	p := in.predID
	sCol := stats.Column{Pred: p, Subject: true}
	oCol := stats.Column{Pred: p, Subject: false}
	sBound := in.sv >= 0 && js.vars[in.sv].bound
	oBound := in.ov >= 0 && js.vars[in.ov].bound

	// Replica choice mirrors buildPatternPlans: constants first, then
	// bound variables (more-distinct column preferred), subject default.
	var keyCol, valCol stats.Column
	keyVar, valVar := -1, -1
	var keyConst, valConst bool
	var valConstID uint32
	switch {
	case in.sConst:
		keyCol, valCol = sCol, oCol
		keyConst = true
		valVar = in.ov
		if in.oConst {
			valConst, valConstID = true, in.oID
		}
	case in.oConst:
		keyCol, valCol = oCol, sCol
		keyConst = true
		valVar = in.sv
	case sBound && oBound:
		if s.Distinct(sCol) >= s.Distinct(oCol) {
			keyCol, valCol = sCol, oCol
			keyVar, valVar = in.sv, in.ov
		} else {
			keyCol, valCol = oCol, sCol
			keyVar, valVar = in.ov, in.sv
		}
	case sBound:
		keyCol, valCol = sCol, oCol
		keyVar, valVar = in.sv, in.ov
	case oBound:
		keyCol, valCol = oCol, sCol
		keyVar, valVar = in.ov, in.sv
	default:
		keyCol, valCol = sCol, oCol
		keyVar, valVar = in.sv, in.ov
	}

	nKeys := float64(s.Distinct(keyCol))
	nTriples := float64(s.Triples(p))

	var out float64
	var probeCost float64
	switch {
	case keyConst || keyVar < 0 || !js.vars[keyVar].bound:
		// No probe on the key: this is a cartesian-style extension with a
		// (possibly constant-restricted) base pattern.
		out = js.card * math.Max(in.baseCard, 0)
		probeCost = js.card + in.baseCard
	default:
		// Probe on bound key variable.
		if kv := &js.vars[keyVar]; kv.hasOrigin {
			j := s.PairCardinality(kv.origin, keyCol)
			nOrg := float64(s.Triples(kv.origin.Pred))
			if nOrg > 0 {
				out = js.card * j / nOrg
			}
		} else {
			dvk := math.Max(kv.dv, 1)
			out = js.card * nTriples / math.Max(dvk, nKeys)
		}
		logCost := math.Log2(2 + nKeys)
		if keyVar == js.sortedVar {
			probeCost = math.Min(js.card*logCost, nKeys+js.card)
		} else {
			probeCost = js.card * logCost
		}
	}
	// Value-side restrictions.
	if valConst && nTriples > 0 {
		out *= float64(s.CountExact(valCol, valConstID)) / nTriples
	} else if valVar >= 0 && js.vars[valVar].bound && valVar != keyVar {
		out /= math.Max(1, math.Max(js.vars[valVar].dv, float64(s.Distinct(valCol))))
	} else if valVar == keyVar && valVar >= 0 {
		// Same variable on both columns (?x p ?x).
		out /= math.Max(1, nKeys)
	}
	if out < 0 {
		out = 0
	}

	// A star extension (same subject variable, fresh object) gets the
	// exact characteristic-set cardinality instead of the estimate.
	if js.starVar >= 0 && isStarMember(in) && in.sv == js.starVar && !js.vars[in.ov].bound {
		next.starPreds = append(next.starPreds, in.predID)
		_, rows := s.CharSets().EstimateStar(next.starPreds)
		out = rows
	} else {
		next.starVar = -1
		next.starPreds = next.starPreds[:0]
	}

	next.cost += probeCost + out
	if !shared {
		next.cost += js.card * in.baseCard * cartesianPenalty
		out = js.card * math.Max(in.baseCard, 1)
	}
	next.card = out

	// Update bindings and distinct estimates.
	if keyVar >= 0 {
		if next.vars[keyVar].bound {
			next.vars[keyVar].dv = math.Min(math.Max(js.vars[keyVar].dv, 1), nKeys)
		} else {
			next.bind(keyVar, math.Min(out, nKeys), keyCol)
		}
	}
	if valVar >= 0 && valVar != keyVar && !next.vars[valVar].bound {
		next.bind(valVar, math.Min(out, float64(s.Distinct(valCol))), valCol)
	}
}

// dpOrder runs the bottom-up dynamic program over pattern subsets and
// returns the cheapest left-deep order.
func dpOrder(infos []patternInfo, nvars int, st *store.Store, s *stats.Stats) ([]int, float64, float64) {
	n := len(infos)
	full := (1 << n) - 1
	// uses[j] is the set of variable ids of pattern j; ids stay below
	// 3·maxDPPatterns, so a set fits a word.
	uses := make([]uint64, n)
	for j := range infos {
		for _, v := range infos[j].vars {
			uses[j] |= 1 << v
		}
	}
	// candidates returns the patterns a plan joining mask extends by. Prefer
	// connected extensions; fall back to cartesian ones only if none exists
	// (the cost penalty already disfavors them, this just prunes the
	// search).
	candidates := func(mask int) int {
		var bound uint64
		for m := mask; m != 0; m &= m - 1 {
			bound |= uses[bits.TrailingZeros(uint(m))]
		}
		connected, others := 0, 0
		for j := 0; j < n; j++ {
			switch {
			case mask&(1<<j) != 0:
			case uses[j]&bound != 0:
				connected |= 1 << j
			default:
				others |= 1 << j
			}
		}
		if connected == 0 {
			return others
		}
		return connected
	}
	// A first sweep finds the masks the search reaches, so that the table
	// holds states for those alone: at[mask] indexes best, 0 if unreached.
	// Iterate masks in increasing popcount order by plain numeric order:
	// any mask's subsets are numerically smaller, so a single ascending
	// sweep sees every predecessor first.
	at := make([]int32, full+1)
	for i := 0; i < n; i++ {
		at[1<<i] = -1
	}
	reached := int32(0)
	for mask := 1; mask <= full; mask++ {
		if at[mask] == 0 {
			continue
		}
		reached++
		at[mask] = reached
		for c := candidates(mask); c != 0; c &= c - 1 {
			at[mask|c&-c] = -1
		}
	}
	// best[at[mask]] is the cheapest state joining exactly the patterns in
	// mask; best[0] is where each extension is costed.
	best := newStates(int(reached)+1, nvars, n)
	next := &best[0]
	for i := 0; i < n; i++ {
		startState(&best[at[1<<i]], infos, i, st, s)
	}
	for mask := 1; mask <= full; mask++ {
		if at[mask] == 0 {
			continue
		}
		cur := &best[at[mask]]
		for c := candidates(mask); c != 0; c &= c - 1 {
			j := bits.TrailingZeros(uint(c))
			extend(next, cur, infos, j, s)
			if ns := &best[at[mask|1<<j]]; !ns.reached || next.cost < ns.cost {
				next.prev, next.last = mask, j
				*ns, *next = *next, *ns
			}
		}
	}
	// Every mask but full has a candidate, so full is always reached.
	order := make([]int, n)
	for mask, k := full, n-1; k >= 0; mask, k = best[at[mask]].prev, k-1 {
		order[k] = best[at[mask]].last
	}
	final := &best[at[full]]
	return order, final.cost, final.card
}

// greedyOrder builds an order for large BGPs: cheapest base pattern first,
// then repeatedly the connected extension with the lowest resulting cost.
func greedyOrder(infos []patternInfo, nvars int, st *store.Store, s *stats.Stats) ([]int, float64, float64) {
	n := len(infos)
	used := make([]bool, n)
	start := 0
	for i := 1; i < n; i++ {
		if infos[i].baseCard < infos[start].baseCard {
			start = i
		}
	}
	states := newStates(3, nvars, n)
	cur, cand, best := &states[0], &states[1], &states[2]
	startState(cur, infos, start, st, s)
	used[start] = true
	order := append(make([]int, 0, n), start)
	for len(order) < n {
		bestJ := -1
		for j := 0; j < n; j++ {
			if used[j] {
				continue
			}
			extend(cand, cur, infos, j, s)
			if bestJ < 0 || cand.cost < best.cost {
				best, cand, bestJ = cand, best, j
			}
		}
		cur, best = best, cur
		used[bestJ] = true
		order = append(order, bestJ)
	}
	return order, cur.cost, cur.card
}

// buildPatternPlans converts the chosen order into executable PatternPlans,
// assigning binding slots and replica choices.
func buildPatternPlans(plan *Plan, q *sparql.Query, infos []patternInfo, names []string, order []int, st *store.Store, s *stats.Stats) {
	// Slots are numbered in the order the plan first binds each variable.
	slotOf := make([]int, len(names))
	for i := range slotOf {
		slotOf[i] = -1
	}
	plan.SlotVars = make([]string, 0, len(names))
	plan.SlotIsPred = make([]bool, 0, len(names))
	newSlot := func(v int, isPred bool) int {
		if slotOf[v] < 0 {
			slotOf[v] = len(plan.SlotVars)
			plan.SlotVars = append(plan.SlotVars, names[v])
			plan.SlotIsPred = append(plan.SlotIsPred, isPred)
		}
		return slotOf[v]
	}
	plan.Patterns = make([]PatternPlan, 0, len(order))
	sortedVar := -1
	for step, idx := range order {
		in := &infos[idx]
		pp := PatternPlan{PredSlot: -1, KeyConstPos: -1, Source: in.tp}

		if in.predConst {
			pp.PredID = in.predID
			pp.PredUnion = in.predSet
		} else {
			pp.PredNew = slotOf[in.pv] < 0
			pp.PredSlot = newSlot(in.pv, true)
		}

		sBound := in.sv >= 0 && slotOf[in.sv] >= 0
		oBound := in.ov >= 0 && slotOf[in.ov] >= 0

		// Replica choice: constants first, then bound variables (prefer
		// the more selective — more distinct keys — column), subject
		// default. With a constant object the O-S replica is chosen, as in
		// Example 3.2 of the paper.
		useOS := false
		switch {
		case in.sConst:
			useOS = false
		case in.oConst:
			useOS = true
		case sBound && oBound:
			if in.predConst {
				useOS = s.Distinct(stats.Column{Pred: in.predID, Subject: false}) >
					s.Distinct(stats.Column{Pred: in.predID, Subject: true})
			}
		case sBound:
			useOS = false
		case oBound:
			useOS = true
		default:
			// Neither bound (first pattern or cartesian step): prefer the
			// replica whose key is the variable the *next* pattern joins
			// on, so the probe stream arrives sorted (paper §3, Ex. 3.1).
			if step+1 < len(order) && in.sv >= 0 && in.ov >= 0 {
				for _, v := range infos[order[step+1]].vars {
					if v == in.sv {
						useOS = false
						break
					}
					if v == in.ov {
						useOS = true
						break
					}
				}
			}
		}
		pp.UseOS = useOS

		keyIsSubject := !useOS
		pp.Key = makeTermPlan(in, keyIsSubject, slotOf, newSlot)
		pp.Val = makeTermPlan(in, !keyIsSubject, slotOf, newSlot)
		// Resolve constant keys against the table now (single-table,
		// single-constant patterns only; expanded patterns resolve their
		// union members at run time).
		if pp.Key.Kind == Const && in.predConst && !pp.Expanded() {
			t := tableOf(st, pp.PredID, useOS)
			pos, ok := t.LookupKey(pp.Key.Const)
			if !ok {
				plan.Empty = true
			} else {
				pp.KeyConstPos = pos
			}
		}
		// A fully constant, non-expanded pattern with a constant predicate
		// is a plan-time membership test: verified here and dropped.
		if in.predConst && pp.Key.Kind == Const && pp.Val.Kind == Const && !pp.Expanded() {
			if !plan.Empty && pp.KeyConstPos >= 0 {
				t := tableOf(st, pp.PredID, useOS)
				run := t.Run(pp.KeyConstPos)
				i := sort.Search(len(run), func(i int) bool { return run[i] >= pp.Val.Const })
				if !(i < len(run) && run[i] == pp.Val.Const) {
					plan.Empty = true
				}
			}
			continue // tautology (or Empty): no runtime step needed
		}

		// Sorted-probe bookkeeping for explain output.
		if step == 0 {
			switch {
			case pp.Key.Kind == Const && pp.Val.Kind == NewVar:
				sortedVar = varOf(in, !keyIsSubject)
			case pp.Key.Kind == NewVar:
				sortedVar = varOf(in, keyIsSubject)
			}
		} else if pp.Key.Kind == BoundVar && varOf(in, keyIsSubject) == sortedVar {
			pp.SortedProbe = true
		}

		plan.Patterns = append(plan.Patterns, pp)
	}
	plan.NumSlots = len(plan.SlotVars)
	finishProjection(plan, q, names)
}

// emptyPlan marks plan Empty. Its slots are the query's variables in
// query order, so result headers stay correct.
func emptyPlan(plan *Plan, q *sparql.Query, infos []patternInfo, names []string) {
	plan.Empty = true
	plan.NumSlots = len(names)
	plan.SlotVars = names
	plan.SlotIsPred = make([]bool, len(names))
	for i := range infos {
		if pv := infos[i].pv; pv >= 0 {
			plan.SlotIsPred[pv] = true
		}
	}
	finishProjection(plan, q, names)
}

// finishProjection fills plan.Project from plan.SlotVars; names lists the
// query's variables in query order, the projection of SELECT *.
func finishProjection(plan *Plan, q *sparql.Query, names []string) {
	proj := q.Select
	if q.Star {
		proj = names
	}
	plan.Project = make([]int, len(proj))
	for i, v := range proj {
		plan.Project[i] = slices.Index(plan.SlotVars, v)
	}
}

// varOf returns the variable id of the subject or the object of in.
func varOf(in *patternInfo, subject bool) int {
	if subject {
		return in.sv
	}
	return in.ov
}

func makeTermPlan(in *patternInfo, subject bool, slotOf []int, newSlot func(int, bool) int) TermPlan {
	v := varOf(in, subject)
	switch {
	case v < 0 && subject:
		return TermPlan{Kind: Const, Const: in.sID}
	case v < 0:
		return TermPlan{Kind: Const, Const: in.oID, Set: in.oSet}
	case slotOf[v] >= 0:
		return TermPlan{Kind: BoundVar, Slot: slotOf[v]}
	}
	return TermPlan{Kind: NewVar, Slot: newSlot(v, false)}
}

func tableOf(st *store.Store, pred uint32, useOS bool) *store.Table {
	if useOS {
		return st.OS(pred)
	}
	return st.SO(pred)
}

// Package optimizer translates a parsed SPARQL BGP into a left-deep
// execution plan for the PARJ engine: it chooses the join order with a
// bottom-up dynamic-programming search (paper §4.3), picks the S-O or O-S
// replica per pattern so that the constant or bound column becomes the key,
// and assigns binding slots.
//
// Following the paper, the optimizer disregards parallelism (the speedup is
// assumed to be a fixed proportion of the centralized cost) and costs each
// join assuming a single probe strategy — binary search, or a scan when the
// probe stream is fully sorted on the join variable; run-time adaptivity
// can only improve on that estimate.
package optimizer

import (
	"fmt"
	"slices"

	"parj/internal/sparql"
	"parj/internal/store"
)

// TermKind classifies how one column of a pattern behaves at execution time.
type TermKind int

const (
	// Const is a dictionary-encoded constant.
	Const TermKind = iota
	// NewVar binds its slot for the first time at this pattern.
	NewVar
	// BoundVar was bound by an earlier pattern (or earlier column of this
	// pattern) and acts as a filter/probe value.
	BoundVar
	// Wildcard appears only in val position when the variable is anonymous
	// — never, in the current planner; reserved.
	Wildcard
)

// TermPlan describes one column (key or value) of a pattern at runtime.
type TermPlan struct {
	Kind  TermKind
	Const uint32 // encoded constant when Kind == Const
	Slot  int    // binding slot when Kind is NewVar or BoundVar
	// Set, when non-nil, widens a constant to a sorted set of alternatives
	// (RDFS class-hierarchy expansion, paper §6): the column matches if it
	// equals any member. Const then holds the original constant.
	Set []uint32
}

// PatternPlan is one step of the left-deep pipeline.
type PatternPlan struct {
	// PredID is the constant predicate; 0 when the predicate is a
	// variable, in which case PredSlot/PredNew describe it.
	PredID   uint32
	PredSlot int  // binding slot of a variable predicate; -1 otherwise
	PredNew  bool // the predicate variable binds at this pattern

	// PredUnion, when non-nil, widens a constant predicate to a sorted set
	// of predicates (RDFS property-hierarchy expansion, paper §6): the
	// pattern matches over the union of those tables, deduplicated.
	PredUnion []uint32

	// UseOS selects the O-S replica: the key column is the object and the
	// value column is the subject.
	UseOS bool

	Key TermPlan
	Val TermPlan

	// KeyConstPos caches the key position for constant keys with constant
	// predicates (-1 = absent from the table, making this pattern yield
	// nothing).
	KeyConstPos int

	// SortedProbe records the optimizer's judgment that probe values for
	// this pattern arrive fully sorted, so a pure scan would be valid. The
	// engine does not need it (adaptivity decides per probe); it is kept
	// for explain output and tests.
	SortedProbe bool

	// Source is the original pattern, for explain output.
	Source sparql.TriplePattern
}

// Plan is an executable left-deep plan.
type Plan struct {
	Patterns []PatternPlan

	// NumSlots is the size of the binding array.
	NumSlots int
	// SlotVars maps slot -> variable name.
	SlotVars []string
	// SlotIsPred marks slots holding predicate-namespace IDs.
	SlotIsPred []bool
	// Project lists the slots of the projected variables in query order.
	Project []int

	Distinct bool
	Limit    int

	// Empty marks plans that provably return no rows (a constant missing
	// from the dictionary or from a table it must appear in).
	Empty bool

	// EstCost and EstCard are the optimizer's estimates for the chosen
	// order, exposed for explain output and tests.
	EstCost float64
	EstCard float64

	// Shape classifies the BGP's variable-sharing graph (shape.go);
	// PreferWCOJ records that the classifier and cost tiebreak chose the
	// worst-case-optimal operator for this plan. Execution follows it under
	// core.Options JoinAuto and can force either operator.
	Shape      Shape
	PreferWCOJ bool
}

// EstResultRows is the optimizer's estimate of the number of result rows —
// the governance layer's budget-estimation hook. Plans expected to produce
// huge results get tighter in-flight governance checks (see
// governance.IntervalForEstimate); serving layers can log or pre-screen on
// it. Zero for provably empty plans.
func (p *Plan) EstResultRows() float64 {
	if p.Empty {
		return 0
	}
	return p.EstCard
}

// EstMemoryBytes estimates the bytes a fully materialized result would
// occupy (projected uint32 payload plus per-row slice overhead), the figure
// a MemoryBudget is compared against when sizing admission policies.
func (p *Plan) EstMemoryBytes() float64 {
	return p.EstResultRows() * float64(len(p.Project)*4+24)
}

// Explain renders a human-readable description of the plan.
func (p *Plan) Explain() string {
	if p.Empty {
		return "empty result (constant not in dictionary)"
	}
	operator := ""
	if p.PreferWCOJ {
		operator = fmt.Sprintf(" join=wcoj shape=%v", p.Shape)
	}
	out := fmt.Sprintf("plan cost=%.1f card=%.1f%s\n", p.EstCost, p.EstCard, operator)
	for i, pp := range p.Patterns {
		replica := "S-O"
		if pp.UseOS {
			replica = "O-S"
		}
		sorted := ""
		if pp.SortedProbe {
			sorted = " sorted-probe"
		}
		out += fmt.Sprintf("  %d: %s  [%s%s]\n", i, pp.Source.String(), replica, sorted)
	}
	return out
}

// Expanded reports whether this pattern requires union evaluation
// (hierarchy-expanded predicate or constant set).
func (pp *PatternPlan) Expanded() bool {
	return pp.PredUnion != nil || pp.Key.Set != nil || pp.Val.Set != nil
}

// Preds returns the predicate IDs this pattern spans: the union set when
// expanded, else the single constant predicate. Empty for variable
// predicates.
func (pp *PatternPlan) Preds() []uint32 {
	if pp.PredUnion != nil {
		return pp.PredUnion
	}
	if pp.PredID != 0 {
		return []uint32{pp.PredID}
	}
	return nil
}

// Expander supplies hierarchy expansions during planning. The rdfs package
// provides the RDFS implementation; nil means no expansion.
type Expander interface {
	// ExpandPredicate returns the sorted set of predicates subsumed by p
	// (including p), or nil when p has no subproperties.
	ExpandPredicate(p uint32) []uint32
	// ExpandPredicateIRI resolves a predicate that is *not* in the
	// predicate dictionary — a parent property that is never asserted
	// directly, only implied by its subproperties. It returns the sorted
	// predicate IDs subsumed by the IRI, or nil.
	ExpandPredicateIRI(iri string) []uint32
	// ExpandObject returns the sorted set of constants subsumed by obj in
	// the object position of predicate p (including obj), or nil. For RDFS
	// this is the subclass closure when p is rdf:type.
	ExpandObject(p uint32, obj uint32) []uint32
}

// UnsupportedError reports a query outside the supported fragment.
type UnsupportedError struct{ Msg string }

func (e *UnsupportedError) Error() string { return "optimizer: unsupported query: " + e.Msg }

// patternInfo is the per-pattern metadata the DP search works with.
type patternInfo struct {
	tp sparql.TriplePattern

	predConst bool
	predID    uint32   // when predConst
	predSet   []uint32 // hierarchy expansion of predID (nil = none)

	sConst, oConst bool
	sID, oID       uint32   // encoded constants (0 if var or unknown)
	oSet           []uint32 // hierarchy expansion of oID (nil = none)

	// sv, pv and ov are the variable ids of the subject, predicate and
	// object; -1 where the term is a constant.
	sv, pv, ov int
	vars       []int // distinct variable ids: predicate, subject, object

	baseCard float64 // estimated result size of the pattern alone
}

// numberVars gives every variable of q a dense id, in order of first
// occurrence as sparql.Query.Vars lists them (so names equals q.Vars()),
// and returns the patterns' metadata with their variable ids filled in.
func numberVars(q *sparql.Query) (infos []patternInfo, names []string) {
	infos = make([]patternInfo, len(q.Patterns))
	names = make([]string, 0, 3*len(q.Patterns))
	ids := make([]int, 0, 3*len(q.Patterns)) // backs every pattern's vars
	id := func(t sparql.Term) int {
		if !t.IsVar() {
			return -1
		}
		if i := slices.Index(names, t.Var); i >= 0 {
			return i
		}
		names = append(names, t.Var)
		return len(names) - 1
	}
	for i, tp := range q.Patterns {
		in := &infos[i]
		in.tp = tp
		in.sv, in.pv, in.ov = id(tp.S), id(tp.P), id(tp.O)
		start := len(ids)
		for _, v := range [3]int{in.pv, in.sv, in.ov} {
			if v >= 0 && !slices.Contains(ids[start:], v) {
				ids = append(ids, v)
			}
		}
		in.vars = ids[start:len(ids):len(ids)]
	}
	return infos, names
}

// checkNamespaces verifies that no variable is used both in predicate
// position and in subject/object position: the two positions draw IDs from
// different dictionaries, so such a join would have to compare strings,
// which PARJ (and this reproduction) does not support.
func checkNamespaces(infos []patternInfo, names []string) error {
	for i := range infos {
		pv := infos[i].pv
		if pv < 0 {
			continue
		}
		for j := range infos {
			if infos[j].sv == pv || infos[j].ov == pv {
				return &UnsupportedError{Msg: fmt.Sprintf(
					"variable ?%s is used in both predicate and subject/object position", names[pv])}
			}
		}
	}
	return nil
}

// lookupConstants resolves the constants of the patterns against the
// store's dictionaries and applies hierarchy expansions. A missing constant
// means the query provably has no answers; that is signalled by false.
func lookupConstants(infos []patternInfo, st *store.Store, x Expander) bool {
	for i := range infos {
		in := &infos[i]
		tp := &in.tp
		if !tp.P.IsVar() {
			in.predConst = true
			in.predID = st.Predicates.Lookup(tp.P.Value)
			if int(in.predID) > st.NumPredicates() {
				// The dictionary is shared across epoch views and append-only:
				// a concurrent insert can register a predicate this view has
				// no table for yet. For this view it provably has no triples.
				in.predID = 0
			}
			if in.predID == 0 {
				// A predicate absent from the dictionary normally proves
				// the query empty — unless a hierarchy implies it through
				// subproperties that do occur in the data.
				set := []uint32(nil)
				if x != nil {
					set = x.ExpandPredicateIRI(tp.P.Value)
				}
				if len(set) == 0 {
					return false
				}
				in.predSet = set
				in.predID = set[0]
			} else if x != nil {
				in.predSet = x.ExpandPredicate(in.predID)
			}
		}
		if !tp.S.IsVar() {
			in.sConst = true
			in.sID = st.Resources.Lookup(tp.S.Value)
			if in.sID == 0 {
				return false
			}
		}
		if !tp.O.IsVar() {
			in.oConst = true
			in.oID = st.Resources.Lookup(tp.O.Value)
			if in.oID == 0 {
				return false
			}
			if x != nil && in.predConst {
				in.oSet = x.ExpandObject(in.predID, in.oID)
			}
		}
	}
	return true
}

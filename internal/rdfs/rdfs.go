// Package rdfs implements the paper's §6 future-work extension: SPARQL
// answering with respect to RDFS class and property hierarchies *without
// materializing* the implied triples. Instead of forward chaining (which
// can blow up an in-memory store) or query rewriting into unions of BGPs
// (which multiplies plans), the hierarchy closure is attached to the
// execution plan so that the pipelined join "unions tables" on the fly:
//
//   - a pattern `?x rdf:type :C` matches instances of C or any subclass;
//   - a pattern `?x :p ?y` with a property that has subproperties scans
//     the union of the subproperty tables.
//
// The closures are computed once per store from the rdfs:subClassOf and
// rdfs:subPropertyOf triples present in the data.
package rdfs

import (
	"parj/internal/store"
)

// Standard RDFS vocabulary IRIs (in N-Triples surface syntax).
const (
	SubClassOf    = "<http://www.w3.org/2000/01/rdf-schema#subClassOf>"
	SubPropertyOf = "<http://www.w3.org/2000/01/rdf-schema#subPropertyOf>"
	RDFType       = "<http://www.w3.org/1999/02/22-rdf-syntax-ns#type>"
)

// Hierarchy holds the reflexive-transitive closures of the class and
// property hierarchies of one store, keyed by dictionary IDs. Immutable
// after New; safe for concurrent use.
type Hierarchy struct {
	// subClasses[c] lists c and every (transitive) subclass of c, sorted.
	subClasses map[uint32][]uint32
	// subProperties[p] lists p and every transitive subproperty, sorted.
	subProperties map[uint32][]uint32
	// subPropertiesByIRI covers parent properties that never occur as
	// predicates themselves (no predicate-dictionary ID): parent IRI →
	// sorted predicate IDs of the asserted subproperties.
	subPropertiesByIRI map[string][]uint32
	typePred           uint32
}

// New computes the hierarchy closures from the store's rdfs:subClassOf and
// rdfs:subPropertyOf triples. Vocabulary IRIs can be overridden for data
// using a different namespace (pass "" to use the standard ones).
func New(st *store.Store, subClassIRI, subPropertyIRI, typeIRI string) *Hierarchy {
	if subClassIRI == "" {
		subClassIRI = SubClassOf
	}
	if subPropertyIRI == "" {
		subPropertyIRI = SubPropertyOf
	}
	if typeIRI == "" {
		typeIRI = RDFType
	}
	h := &Hierarchy{
		subClasses:         map[uint32][]uint32{},
		subProperties:      map[uint32][]uint32{},
		subPropertiesByIRI: map[string][]uint32{},
		typePred:           st.Predicates.Lookup(typeIRI),
	}
	// Class hierarchy: edges child -> parent live in the subClassOf table.
	if p := st.Predicates.Lookup(subClassIRI); p != 0 {
		h.subClasses = closureFromTable(st.OS(p))
	}
	// Property hierarchy: subPropertyOf relates *property IRIs* in the
	// resource dictionary; the closure must be translated to predicate
	// dictionary IDs to be useful during execution.
	if p := st.Predicates.Lookup(subPropertyIRI); p != 0 {
		resClosure := closureFromTable(st.OS(p))
		for parentRes, subsRes := range resClosure {
			parentIRI := st.Resources.Decode(parentRes)
			parentPred := st.Predicates.Lookup(parentIRI)
			var subs []uint32
			for _, subRes := range subsRes {
				if sp := st.Predicates.Lookup(st.Resources.Decode(subRes)); sp != 0 {
					subs = appendSorted(subs, sp)
				}
			}
			switch {
			case parentPred != 0 && len(subs) > 1:
				h.subProperties[parentPred] = subs
			case parentPred == 0 && len(subs) > 0:
				// Parent never asserted directly: queries can still name
				// it; they resolve through the IRI-keyed map.
				h.subPropertiesByIRI[parentIRI] = subs
			}
		}
	}
	return h
}

// closureFromTable computes, for every object of the relation (a parent),
// the sorted reflexive-transitive set of subjects reaching it (its
// descendants), from an O-S table whose runs list direct children.
func closureFromTable(os *store.Table) map[uint32][]uint32 {
	children := map[uint32][]uint32{}
	nodes := map[uint32]bool{}
	for i, parent := range os.Keys {
		children[parent] = os.Run(i)
		nodes[parent] = true
		for _, c := range os.Run(i) {
			nodes[c] = true
		}
	}
	out := make(map[uint32][]uint32, len(nodes))
	for n := range nodes {
		// DFS with a visited set; hierarchies may contain cycles (then all
		// members of the cycle are equivalent).
		visited := map[uint32]bool{n: true}
		stack := []uint32{n}
		for len(stack) > 0 {
			cur := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, c := range children[cur] {
				if !visited[c] {
					visited[c] = true
					stack = append(stack, c)
				}
			}
		}
		set := make([]uint32, 0, len(visited))
		for v := range visited {
			set = appendSorted(set, v)
		}
		if len(set) > 1 {
			out[n] = set
		}
	}
	return out
}

// appendSorted inserts v into sorted slice xs, skipping duplicates.
func appendSorted(xs []uint32, v uint32) []uint32 {
	lo, hi := 0, len(xs)
	for lo < hi {
		mid := (lo + hi) / 2
		if xs[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(xs) && xs[lo] == v {
		return xs
	}
	xs = append(xs, 0)
	copy(xs[lo+1:], xs[lo:])
	xs[lo] = v
	return xs
}

// SubClasses returns c plus all its subclasses, or nil when c has none
// (meaning: no expansion needed).
func (h *Hierarchy) SubClasses(c uint32) []uint32 { return h.subClasses[c] }

// SubProperties returns p plus all its subproperties (predicate IDs), or
// nil when p has none.
func (h *Hierarchy) SubProperties(p uint32) []uint32 { return h.subProperties[p] }

// HasExpansions reports whether any hierarchy with more than one member
// exists — if not, hierarchy-aware evaluation equals plain evaluation.
func (h *Hierarchy) HasExpansions() bool {
	return len(h.subClasses) > 0 || len(h.subProperties) > 0 || len(h.subPropertiesByIRI) > 0
}

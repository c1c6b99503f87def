package store

import (
	"cmp"
	"slices"
	"sort"

	"parj/internal/posindex"
)

// delta.go — the pending-write overlay of the live write path.
//
// The CSR tables of a Store are immutable; writes therefore accumulate in a
// Delta: per predicate, a sorted array of added (subject, object) pairs and
// a sorted array of tombstoned pairs, packed subject-high exactly like the
// Builder's buffers so they share the S-O sort order of the tables they
// overlay. The effective relation of a view is
//
//	effective(p) = (base(p) ∖ dels(p)) ∪ adds(p)
//
// with the invariant adds(p) ∩ dels(p) = ∅: an insert verdict puts its
// pair in the adds and takes it out of the tombstones, a delete verdict the
// reverse. The invariant is what makes delete-then-reinsert and duplicate
// inserts land on plain set semantics — the last verdict per pair wins,
// independently of when a reconciliation happens to cut the delta. It also
// means a pair that has a verdict keeps one: later versions of a delta
// (Delta.With) only ever move it between adds and dels, which is what lets
// a materialisation be carried forward.
//
// CarryForward materializes the effective store of a delta from the most
// recent materialisation over the same base instead of from the base:
//
//	eff(d) = eff(from) ∖ (dels_d ∖ dels_from) ∪ (adds_d ∖ adds_from)
//
// so a store pays for what changed since the last read, not for everything
// pending. ApplyDelta is the same routine started at the base (from = ∅).
// Predicates whose difference is empty share their table storage with the
// previous store (a struct copy of immutable slices); the others are merged
// linearly, replica by replica, each in its own sort order, straight from
// CSR arrays into CSR arrays. A carried store is indistinguishable from one
// built from the effective triples directly — thresholds included, which
// are re-derived from the search windows each table carries — which is
// exactly the property the snapshot-under-writes tests pin.

// Delta is a set-semantic batch of pending writes against a base Store.
// A Delta is a value: no method changes it, With returns a new one. The
// zero value (and nil) is empty and ready to use.
type Delta struct {
	// adds[p-1] and dels[p-1] hold the pending pairs of predicate ID p,
	// packed uint64(s)<<32|uint64(o) and sorted ascending.
	adds [][]uint64
	dels [][]uint64
	ops  int // verdicts recorded since the delta was last empty
}

// Verdict is one write's effect on one pair: pair (S,O) of predicate P
// exists (Insert) or does not.
type Verdict struct {
	S, P, O uint32
	Insert  bool
}

// Empty reports whether the delta holds no pending pairs.
func (d *Delta) Empty() bool {
	adds, dels := d.Counts()
	return adds+dels == 0
}

// Ops reports how many insert/delete verdicts were recorded — the pending
// write volume reconciliation thresholds trigger on. It counts operations,
// not net pairs, so a churn of inserts and deletes of the same pair still
// advances it.
func (d *Delta) Ops() int {
	if d == nil {
		return 0
	}
	return d.ops
}

// Counts reports the net pending pair counts (adds, tombstones).
func (d *Delta) Counts() (adds, dels int) {
	if d == nil {
		return 0, 0
	}
	for _, a := range d.adds {
		adds += len(a)
	}
	for _, t := range d.dels {
		dels += len(t)
	}
	return adds, dels
}

// NumPredicates reports the predicate ID space the delta spans (it can
// exceed the base store's when inserts introduced new predicates).
func (d *Delta) NumPredicates() int {
	if d == nil {
		return 0
	}
	return len(d.adds)
}

// With returns d followed by the verdicts vs, applied in order: the last
// verdict on a pair wins, within vs and over d's. Neither d nor vs changes.
// A predicate vs names gets fresh adds and dels arrays, merged in one pass
// that copies in bulk between the pairs it edits; every other predicate
// shares d's arrays, which is what lets CarryForward tell them apart in
// O(1).
func (d *Delta) With(vs []Verdict) *Delta {
	nd := &Delta{ops: d.Ops() + len(vs)}
	if d != nil {
		nd.adds, nd.dels = slices.Clone(d.adds), slices.Clone(d.dels)
	}
	vs = slices.Clone(vs)
	slices.SortStableFunc(vs, func(a, b Verdict) int {
		return cmp.Or(cmp.Compare(a.P, b.P), cmp.Compare(pairOf(a), pairOf(b)))
	})
	for len(vs) > 0 {
		// vs[:m] are predicate p's verdicts; compact them to vs[:n], the
		// last one per pair.
		p, m, n := vs[0].P, 0, 0
		for ; m < len(vs) && vs[m].P == p; m++ {
			if n > 0 && pairOf(vs[n-1]) == pairOf(vs[m]) {
				n--
			}
			vs[n] = vs[m]
			n++
		}
		for int(p) > len(nd.adds) {
			nd.adds, nd.dels = append(nd.adds, nil), append(nd.dels, nil)
		}
		nd.adds[p-1] = edit(nd.adds[p-1], vs[:n], true)
		nd.dels[p-1] = edit(nd.dels[p-1], vs[:n], false)
		vs = vs[m:]
	}
	return nd
}

func pairOf(v Verdict) uint64 { return uint64(v.S)<<32 | uint64(v.O) }

// edit returns a fresh copy of sorted xs in which the pair of every verdict
// of vs — sorted by pair, one per pair — is present iff its Insert equals
// in; pairs no verdict names are kept as they are.
func edit(xs []uint64, vs []Verdict, in bool) []uint64 {
	out := make([]uint64, 0, len(xs)+len(vs))
	for _, v := range vs {
		pair := pairOf(v)
		n, found := slices.BinarySearch(xs, pair)
		out = append(out, xs[:n]...)
		if found {
			n++
		}
		xs = xs[n:]
		if v.Insert == in {
			out = append(out, pair)
		}
	}
	out = append(out, xs...)
	if len(out) == 0 {
		return nil
	}
	return out
}

// Prune returns the residual delta of d against st: adds already present
// in st are dropped, tombstones of pairs absent from st are dropped. After
// a reconciliation promotes a merged store to the new base, the residual of
// the (possibly advanced) current delta is exactly what must still overlay
// it — in particular, a pair deleted and reinserted across the merge does
// not resurrect, and a pair inserted twice does not double. The residual's
// op counter is reset to its net pair count so reconcile thresholds re-arm.
func (d *Delta) Prune(st *Store) *Delta {
	if d == nil {
		return &Delta{}
	}
	nd := &Delta{adds: make([][]uint64, len(d.adds)), dels: make([][]uint64, len(d.dels))}
	for p := range d.adds {
		pred := uint32(p + 1)
		var adds, dels []uint64
		for _, pair := range d.adds[p] {
			if !st.HasTriple(uint32(pair>>32), pred, uint32(pair)) {
				adds = append(adds, pair)
			}
		}
		for _, pair := range d.dels[p] {
			if st.HasTriple(uint32(pair>>32), pred, uint32(pair)) {
				dels = append(dels, pair)
			}
		}
		nd.adds[p], nd.dels[p] = adds, dels
		nd.ops += len(adds) + len(dels)
	}
	if nd.ops == 0 {
		return &Delta{}
	}
	return nd
}

// HasTriple reports whether the store contains the encoded triple — a
// binary search over the predicate's S-O replica. Used by reconciliation to
// prune a residual delta against a freshly merged base.
func (s *Store) HasTriple(sub, pred, obj uint32) bool {
	if pred == 0 || int(pred) > len(s.so) {
		return false
	}
	t := &s.so[pred-1]
	pos, ok := t.LookupKey(sub)
	if !ok {
		return false
	}
	_, found := slices.BinarySearch(t.Run(pos), obj)
	return found
}

// InferBuildOptions derives the BuildOptions a merge uses for predicates
// that have no table yet, so that they match the store's physical shape:
// stores built with ID-to-Position indexes give new predicates one too.
// Tables that exist carry their own shape (windows, index) through a merge.
func InferBuildOptions(s *Store) BuildOptions {
	opts := BuildOptions{}
	for i := range s.so {
		if s.so[i].Index != nil {
			opts.BuildPosIndex = true
			break
		}
	}
	return opts
}

// ApplyDelta materializes the effective store base ∖ dels ∪ adds: the
// carry-forward routine started at the base itself.
func ApplyDelta(base *Store, d *Delta, opts BuildOptions) *Store {
	return CarryForward(base, nil, d, opts)
}

// CarryForward materializes the effective store of delta d given prev, the
// effective store of from, where from is an earlier version of d over the
// same base (nil or empty: prev is the base). Predicates on which the two
// deltas agree share prev's tables by struct copy (the immutable slices
// alias — zero build cost and zero extra memory); the others are merged
// from prev's tables and the difference. The dictionaries are shared with
// prev: delta pairs were encoded against them, and they are append-only.
// opts shapes only predicates that have no table in prev. The result is as
// immutable as any built Store.
func CarryForward(prev *Store, from, d *Delta, opts BuildOptions) *Store {
	nPred := prev.NumPredicates()
	if n := d.NumPredicates(); n > nPred {
		nPred = n
	}
	st := &Store{
		Resources:  prev.Resources,
		Predicates: prev.Predicates,
		so:         make([]Table, nPred),
		os:         make([]Table, nPred),
	}
	maxID := prev.Resources.MaxID()
	for p := 0; p < nPred; p++ {
		var adds, dels []uint64
		if p < d.NumPredicates() {
			adds, dels = d.adds[p], d.dels[p]
			if p < from.NumPredicates() {
				adds, dels = diffPairs(adds, from.adds[p]), diffPairs(dels, from.dels[p])
			}
		}
		var so, os Table // shape donors: prev's tables, or empty ones shaped by opts
		if p < prev.NumPredicates() {
			so, os = prev.so[p], prev.os[p]
		} else {
			so, os = buildCSR(nil), buildCSR(nil)
			finishTable(&so, opts, maxID)
			finishTable(&os, opts, maxID)
		}
		if len(adds) == 0 && len(dels) == 0 {
			st.so[p], st.os[p] = so, os // untouched: share prev's tables
		} else {
			st.so[p] = mergeTable(&so, adds, dels, maxID)
			// O-S order: only the batch is swapped and sorted, never the table.
			st.os[p] = mergeTable(&os, swapSort(slices.Clone(adds)), swapSort(slices.Clone(dels)), maxID)
		}
	}
	st.finish()
	return st
}

// diffPairs returns the pairs of sorted a that are not in sorted b.
func diffPairs(a, b []uint64) []uint64 {
	if len(b) == 0 || len(a) == 0 {
		return a
	}
	if len(a) == len(b) && &a[0] == &b[0] {
		return nil // one array shared by both versions
	}
	var out []uint64
	j := 0
	for _, pair := range a {
		for j < len(b) && b[j] < pair {
			j++
		}
		if j == len(b) || b[j] != pair {
			out = append(out, pair)
		}
	}
	return out
}

// mergeTable returns the replica prev ∖ dels ∪ adds as a fresh CSR table of
// prev's shape. adds and dels are packed key-high in prev's own order. One
// linear pass: runs of keys the batch does not touch are copied in bulk,
// touched keys get their value run merged. adds may repeat pairs prev
// holds, dels may name pairs it does not.
func mergeTable(prev *Table, adds, dels []uint64, maxID uint32) Table {
	t := Table{
		Keys: make([]uint32, 0, len(prev.Keys)+len(adds)),
		Offs: make([]uint32, 0, len(prev.Keys)+len(adds)+1),
		Vals: make([]uint32, 0, len(prev.Vals)+len(adds)),
	}
	copyKeys := func(from, to int) { // prev's keys [from,to) with their runs
		shift := uint32(len(t.Vals)) - prev.Offs[from]
		t.Keys = append(t.Keys, prev.Keys[from:to]...)
		offs := t.Offs[len(t.Offs) : len(t.Offs)+to-from]
		for x, off := range prev.Offs[from:to] {
			offs[x] = off + shift
		}
		t.Offs = t.Offs[:len(t.Offs)+to-from]
		t.Vals = append(t.Vals, prev.Vals[prev.Offs[from]:prev.Offs[to]]...)
	}
	i := 0 // next key position of prev not yet copied
	for len(adds) > 0 || len(dels) > 0 {
		var key uint32 // smallest key the batch still touches
		switch {
		case len(dels) == 0 || (len(adds) > 0 && adds[0] < dels[0]):
			key = uint32(adds[0] >> 32)
		default:
			key = uint32(dels[0] >> 32)
		}
		n, found := slices.BinarySearch(prev.Keys[i:], key)
		copyKeys(i, i+n)
		i += n
		var run []uint32
		if found {
			run = prev.Run(i)
			i++
		}
		na := sort.Search(len(adds), func(x int) bool { return uint32(adds[x]>>32) > key })
		nd := sort.Search(len(dels), func(x int) bool { return uint32(dels[x]>>32) > key })
		start := len(t.Vals)
		t.Vals = mergeRun(t.Vals, run, adds[:na], dels[:nd])
		if len(t.Vals) > start {
			t.Keys = append(t.Keys, key)
			t.Offs = append(t.Offs, uint32(start))
		}
		adds, dels = adds[na:], dels[nd:]
	}
	copyKeys(i, len(prev.Keys))
	t.Offs = append(t.Offs, uint32(len(t.Vals)))
	if len(t.Keys) == 0 {
		t = buildCSR(nil) // emptied: the canonical empty table, holding no capacity
	}
	// The table keeps prev's shape: prev's search windows, with thresholds
	// re-derived over the new key range, and an index iff prev had one.
	t.BinaryWindow, t.IndexWindow = prev.BinaryWindow, prev.IndexWindow
	t.setThresholds()
	if prev.Index != nil {
		t.Index = posindex.Build(t.Keys, maxID, prev.Index.Interval())
	}
	return t
}

// mergeRun appends run ∖ dels ∪ adds to dst. run holds one key's sorted
// values; adds and dels are that key's sorted pairs (values in the low
// half), disjoint from each other.
func mergeRun(dst, run []uint32, adds, dels []uint64) []uint32 {
	for len(run) > 0 || len(adds) > 0 {
		if len(adds) > 0 && (len(run) == 0 || uint32(adds[0]) <= run[0]) {
			if len(run) > 0 && run[0] == uint32(adds[0]) {
				run = run[1:] // already present: keep one
			}
			dst = append(dst, uint32(adds[0]))
			adds = adds[1:]
			continue
		}
		for len(dels) > 0 && uint32(dels[0]) < run[0] {
			dels = dels[1:]
		}
		if len(dels) == 0 || uint32(dels[0]) != run[0] {
			dst = append(dst, run[0])
		}
		run = run[1:]
	}
	return dst
}

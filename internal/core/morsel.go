package core

// Morsel-driven scheduling of the first relation.
//
// The paper parallelizes a BGP pipeline by statically sharding the first
// relation across threads (§3): each worker receives one contiguous slice
// and the query lasts as long as its largest slice. That is optimal on
// uniform data and pathological on skewed data — one hot key (a hub subject
// with a hundred-thousand-triple run) lands entirely inside one shard and
// N−1 workers go idle while one drags the query.
//
// The morsel is therefore the only unit of outer-relation work, scheduled
// in the style of HyPer/HoneyComb morsel-driven parallelism, adapted to
// PARJ's share-nothing workers:
//
//   - makeShards' output — one uncut morsel per shard range — is re-cut into
//     bounded-size morsels (at most Options.MorselSize outer tuples each).
//     Constant-key runs, expanded union vectors and — crucially — the runs
//     of individual hot keys are all cut, so no single morsel exceeds the
//     bound (except the rare unsplittable whole-pattern fallback). A bound
//     at or above the shard size cuts nothing: one morsel per worker is the
//     paper's static sharding, as a configuration rather than a code path.
//   - Morsels sit in a fixed array behind an atomic dispatch cursor; taking
//     the next morsel is one atomic add, with no locks and no channels.
//   - Every morsel carries a claim span: cursor and end packed into one
//     atomic 64-bit word. The owning worker claims grain-sized chunks by
//     CAS; when the dispatch queue drains, an idle worker steals the
//     unclaimed tail of the largest in-flight morsel by CAS-ing the end
//     down (a cursor split). Because both operations CAS the same word,
//     every outer tuple is claimed exactly once — no loss, no double count.
//   - Workers keep their per-pattern sequential-search cursors across
//     chunks of the same morsel, and morsels are contiguous ranges, so the
//     adaptive probes (Algorithm 1) still see mostly-ascending keys within
//     a morsel exactly as they do within a whole shard.
//
// Workers never block on one another: a worker with no morsel to take and
// nothing worth stealing simply exits, leaving in-flight owners to finish
// their final sub-grain remainders.

import (
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"parj/internal/governance"
	"parj/internal/optimizer"
	"parj/internal/store"
)

// DefaultMorselSize is the outer-tuple bound per morsel when
// Options.MorselSize is zero. Large enough that the per-morsel dispatch
// atomics vanish against the probe work, small enough that a skewed run
// splits into many more morsels than workers.
const DefaultMorselSize = 32 * 1024

// maxMorselSize bounds a morsel's length so both ends of its span fit in
// one packed 64-bit word.
const maxMorselSize = 1<<31 - 1

// span is a claimable half-open range: the low 32 bits hold the next
// unclaimed position (cursor), the high 32 bits the exclusive end. All
// transitions are CAS on the single word, which makes claim and steal
// linearizable against each other: a claim advances the cursor, a steal
// lowers the end, and no interleaving can hand the same position out twice.
type span struct{ word atomic.Uint64 }

func packSpan(cur, end int) uint64 { return uint64(uint32(cur)) | uint64(uint32(end))<<32 }

func unpackSpan(w uint64) (cur, end int) { return int(uint32(w)), int(uint32(w >> 32)) }

func (s *span) init(from, to int) { s.word.Store(packSpan(from, to)) }

// claim takes the next chunk of at most grain positions. It returns the
// claimed half-open range, or ok=false when the span is exhausted.
func (s *span) claim(grain int) (from, to int, ok bool) {
	for {
		w := s.word.Load()
		cur, end := unpackSpan(w)
		if cur >= end {
			return 0, 0, false
		}
		next := cur + grain
		if next > end {
			next = end
		}
		if s.word.CompareAndSwap(w, packSpan(next, end)) {
			return cur, next, true
		}
	}
}

// stealHalf splits off the upper half of the unclaimed range in one CAS
// attempt. It returns ok=false when fewer than two positions remain (the
// owner is about to finish them) or the CAS raced with the owner; callers
// rescan on failure — a failed CAS means someone else made progress, so
// the retry loop terminates.
func (s *span) stealHalf() (from, to int, ok bool) {
	w := s.word.Load()
	cur, end := unpackSpan(w)
	if end-cur < 2 {
		return 0, 0, false
	}
	mid := cur + (end-cur)/2
	if s.word.CompareAndSwap(w, packSpan(cur, mid)) {
		return mid, end, true
	}
	return 0, 0, false
}

// remaining reports the unclaimed length.
func (s *span) remaining() int {
	cur, end := unpackSpan(s.word.Load())
	if cur >= end {
		return 0
	}
	return end - cur
}

// morselKind selects how a morsel's coordinates are interpreted.
type morselKind uint8

const (
	// morselKeys spans key positions [from, to) of table t.
	morselKeys morselKind = iota
	// morselRun spans run-relative value positions [from, to) within
	// Run(keyPos) of table t — a slice of one key's run, used for
	// constant-key first patterns (Example 3.2) and for splitting the run
	// of a hot key, which a cut at key granularity cannot do.
	morselRun
	// morselUnionKeys spans indices of a materialized expanded key union.
	morselUnionKeys
	// morselUnionVals spans indices of a materialized expanded value union.
	morselUnionVals
	// morselWhole is the unsplittable whole-pattern fallback shard.
	morselWhole
	// morselWCOJ spans indices of the materialized first-variable domain of
	// a worst-case-optimal join (see wcoj.go).
	morselWCOJ
)

// morsel is one bounded unit of outer-relation work plus its claim span.
type morsel struct {
	kind   morselKind
	t      *store.Table // nil for union and whole morsels
	pred   uint32
	keyPos int      // morselRun: the key whose run is sliced
	union  []uint32 // backing array for union morsels (the span indexes it)
	grain  int32    // chunk size claimed per CAS

	span span
}

// newMorsel builds a morsel over [from, to) with a grain that keeps the
// owner's claim overhead negligible while leaving the tail stealable: a
// 64th of the span, so that even a morsel of a few hundred positions whose
// hub keys sit in one chunk leaves the other 63 to a thief. A claim costs
// about 15 ns, so the grain stays at four positions or more (under 4 ns a
// position, a tenth of the cheapest tuple's probes) unless the span is too
// short even for four such chunks.
func newMorsel(kind morselKind, t *store.Table, pred uint32, keyPos int, union []uint32, from, to int) *morsel {
	m := &morsel{kind: kind, t: t, pred: pred, keyPos: keyPos, union: union}
	m.span.init(from, to)
	g := max((to-from)/64, min((to-from)/4, 4))
	m.grain = int32(min(max(g, 1), 1024))
	return m
}

// child wraps a stolen range of m as a fresh morsel sharing the same work
// unit, so the stolen tail is itself claimable and re-stealable.
func (m *morsel) child(from, to int) *morsel {
	return newMorsel(m.kind, m.t, m.pred, m.keyPos, m.union, from, to)
}

// makeMorsels re-cuts the shards' uncut morsels into morsels of at most size
// outer tuples, in shard order. Cutting happens within each shard, so the
// deterministic shard→node assignment of the cluster extension is preserved
// exactly: a node cuts only the shards of its own range, and the union over
// nodes still partitions the input.
func makeMorsels(shards [][]*morsel, size int) []*morsel {
	if size <= 0 {
		size = DefaultMorselSize
	}
	if size > maxMorselSize {
		size = maxMorselSize
	}
	var out []*morsel
	for _, sh := range shards {
		for _, m := range sh {
			from, to := unpackSpan(m.span.word.Load())
			switch m.kind {
			case morselKeys:
				out = appendKeyMorsels(out, m, from, to, size)
			case morselWhole:
				out = append(out, m)
			default: // run slices, unions and WCOJ domains: one tuple per position
				out = appendCut(out, m, from, to, size)
			}
		}
	}
	return out
}

// appendCut cuts positions [from, to) of m's work unit into morsels of at
// most size positions.
func appendCut(out []*morsel, m *morsel, from, to, size int) []*morsel {
	for ; from < to; from += size {
		end := from + size
		if end > to {
			end = to
		}
		out = append(out, m.child(from, end))
	}
	return out
}

// appendKeyMorsels cuts key positions [keyFrom, keyTo) of morselKeys m into
// morsels bounded by outer-tuple weight (sum of run lengths plus one per
// key, so both wide and narrow tables converge). A single key whose run
// alone exceeds the bound — the skew case a cut at key granularity cannot
// split — is cut into run-slice morsels instead.
func appendKeyMorsels(out []*morsel, m *morsel, keyFrom, keyTo, size int) []*morsel {
	// Cumulative weight of [a, b) is g(b)-g(a); g is strictly increasing, so
	// each cut point is a binary search over the Offs prefix sums and the
	// whole cut costs O(morsels·log keys) instead of O(keys) — this runs on
	// every query, including sub-millisecond ones where a linear walk of the
	// key array would dominate the query itself.
	t := m.t
	g := func(i int) int { return int(t.Offs[i]) + i }
	a := keyFrom
	for a < keyTo {
		if runLen := int(t.Offs[a+1] - t.Offs[a]); runLen > size {
			out = appendCut(out, newMorsel(morselRun, t, m.pred, a, nil, 0, runLen), 0, runLen, size)
			a++
			continue
		}
		// Largest b with weight(a, b) ≤ size; the first key is always taken.
		// A key whose run exceeds size cannot be inside any range within the
		// bound, so the search naturally stops before hot keys.
		limit := g(a) + size
		b := a + 1 + sort.Search(keyTo-(a+1), func(i int) bool { return g(a+2+i) > limit })
		out = append(out, m.child(a, b))
		a = b
	}
	return out
}

// WorkerStat reports one worker's scheduler activity for a query — the
// observability surface for imbalance: a healthy skewed run shows morsel
// and steal counts spread across workers and busy times within a morsel of
// each other, while a pathological one shows a single worker owning nearly
// all tuples.
type WorkerStat struct {
	// Morsels is the number of morsels pulled from the dispatch queue. With
	// morsels left uncut (MorselSize ≥ shard size) that is the number of
	// shard ranges the worker executed.
	Morsels int64
	// Steals is the number of ranges stolen from in-flight morsels.
	Steals int64
	// Claims is the number of grain-sized chunks claimed.
	Claims int64
	// Tuples is the number of outer positions consumed (keys, run values,
	// or union entries, depending on the morsel kind).
	Tuples int64
	// Rows is the number of result rows this worker produced (before final
	// DISTINCT/LIMIT compaction).
	Rows int64
	// Busy is the wall-clock time the worker spent executing.
	Busy time.Duration
}

// SchedStats aggregates per-worker scheduler statistics.
type SchedStats struct {
	// Workers holds one entry per worker, indexed by worker id.
	Workers []WorkerStat
}

// TotalSteals sums steal counts across workers.
func (s *SchedStats) TotalSteals() int64 {
	var n int64
	for i := range s.Workers {
		n += s.Workers[i].Steals
	}
	return n
}

// TotalMorsels sums dispatch-queue pulls across workers.
func (s *SchedStats) TotalMorsels() int64 {
	var n int64
	for i := range s.Workers {
		n += s.Workers[i].Morsels
	}
	return n
}

// TotalTuples sums consumed outer positions across workers.
func (s *SchedStats) TotalTuples() int64 {
	var n int64
	for i := range s.Workers {
		n += s.Workers[i].Tuples
	}
	return n
}

// TotalRows sums per-worker produced rows.
func (s *SchedStats) TotalRows() int64 {
	var n int64
	for i := range s.Workers {
		n += s.Workers[i].Rows
	}
	return n
}

// scheduler is the shared dispatch state of one morsel-driven execution.
// It is the only mutable state workers share, and every field is atomic —
// the workers themselves stay share-nothing exactly as in the paper.
type scheduler struct {
	morsels []*morsel
	next    atomic.Int64
	// workers are the execution's workers; stealers scan their inflight
	// morsels for the largest unclaimed tail.
	workers []*worker
	// poisoned stops all workers promptly once the query outcome is decided
	// externally — a streaming consumer cancelled. Governance failures stop
	// workers through gov.Stopped instead.
	poisoned atomic.Bool
	gov      *governance.Governor
	// wg counts the running workers (see execution.launch).
	wg sync.WaitGroup

	// measure is Options.MeasureShards: the single worker then times every
	// morsel it drains into durations, in dispatch order, so hosts with fewer
	// cores than the requested thread count can simulate the parallel
	// elapsed time — see listScheduleMakespan.
	measure   bool
	durations []time.Duration
}

func newScheduler(morsels []*morsel, workers []*worker, gov *governance.Governor) *scheduler {
	return &scheduler{morsels: morsels, workers: workers, gov: gov}
}

func (s *scheduler) poison() { s.poisoned.Store(true) }

// stopped reports whether workers should abandon the query: an explicit
// poison (stream cancel) or a governance stop (violation or panic).
func (s *scheduler) stopped() bool {
	return s.poisoned.Load() || (s.gov != nil && s.gov.Stopped())
}

// steal scans the in-flight morsels of the other workers and splits the one
// with the largest unclaimed tail. It returns nil when nothing worthwhile
// remains — at that point every leftover is a sub-grain remainder its live
// owner will finish, or the abandoned tail of a worker that stopped within
// its own LIMIT semantics.
func (s *scheduler) steal(self *worker) *morsel {
	for {
		var best *morsel
		bestRem := 1 // require ≥2 so a split leaves both halves non-empty
		for _, w := range s.workers {
			if w == self {
				continue
			}
			if m := w.inflight.Load(); m != nil {
				if r := m.span.remaining(); r > bestRem {
					best, bestRem = m, r
				}
			}
		}
		if best == nil {
			return nil
		}
		if from, to, ok := best.span.stealHalf(); ok {
			return best.child(from, to)
		}
		// Raced with the owner (or another thief); rescan — the remaining
		// work shrank, so this loop terminates.
	}
}

// runScheduler is a worker's main loop: pull morsels from the dispatch
// queue, then steal until nothing is left. Returning normally means the
// worker found no more work or stopped within its own LIMIT budget; global
// stops arrive through the scheduler.
func (w *worker) runScheduler(s *scheduler) {
	start := time.Now()
	defer func() {
		w.wstat.Rows = w.count
		w.wstat.Busy += time.Since(start)
	}()
	for !s.stopped() {
		var m *morsel
		if i := s.next.Add(1) - 1; i < int64(len(s.morsels)) {
			m = s.morsels[i]
			w.wstat.Morsels++
		} else if m = s.steal(w); m != nil {
			w.wstat.Steals++
		} else {
			return
		}
		w.inflight.Store(m)
		var t0 time.Time
		if s.measure {
			t0 = time.Now()
		}
		ok := w.drainMorsel(s, m)
		if s.measure {
			s.durations = append(s.durations, time.Since(t0))
		}
		if !ok {
			return
		}
	}
}

// drainMorsel claims grain-sized chunks of m until the span is empty. It
// returns false when the worker must stop — its own LIMIT budget, a
// governance trip, or a cancelled streaming consumer (which poisons the
// scheduler so stealers stop promptly too). Chunk boundaries double as
// amortized governance points: one atomic flag read per chunk, nothing per tuple.
func (w *worker) drainMorsel(s *scheduler, m *morsel) bool {
	grain := int(m.grain)
	for {
		from, to, ok := m.span.claim(grain)
		if !ok {
			return true
		}
		w.wstat.Claims++
		w.wstat.Tuples += int64(to - from)
		if !w.processRange(m, from, to) {
			if w.stream != nil && w.stream.closed {
				s.poison()
			}
			return false
		}
		if s.stopped() {
			return false
		}
	}
}

// processRange evaluates outer positions [from, to) of m through the whole
// pipeline (or the WCOJ executor). It is the one place the first pattern is
// driven: every later pattern runs through step.
func (w *worker) processRange(m *morsel, from, to int) bool {
	pp := &w.plan.Patterns[0]
	switch m.kind {
	case morselWCOJ:
		return w.wcojRange(m.union[from:to])
	case morselWhole:
		return w.step(0)
	case morselUnionKeys:
		tables := w.unionTables()
		for _, k := range m.union[from:to] {
			if w.tick--; w.tick <= 0 && !w.slowTick() {
				return false
			}
			w.binding[pp.Key.Slot] = k
			if !w.valuesUnion(0, pp, w.collectRuns(tables, []uint32{k})) {
				return false
			}
		}
		return true
	case morselUnionVals:
		for _, v := range m.union[from:to] {
			if w.tick--; w.tick <= 0 && !w.slowTick() {
				return false
			}
			w.binding[pp.Val.Slot] = v
			if !w.step(1) {
				return false
			}
		}
		return true
	case morselRun:
		if pp.PredSlot >= 0 {
			w.binding[pp.PredSlot] = m.pred
		}
		if pp.Key.Kind == optimizer.NewVar {
			w.binding[pp.Key.Slot] = m.t.Keys[m.keyPos]
		}
		run := m.t.Run(m.keyPos)[from:to]
		for _, v := range run {
			if w.tick--; w.tick <= 0 && !w.slowTick() {
				return false
			}
			switch pp.Val.Kind {
			case optimizer.NewVar:
				w.binding[pp.Val.Slot] = v
				if !w.step(1) {
					return false
				}
			case optimizer.Const:
				if v == pp.Val.Const && !w.step(1) {
					return false
				}
			default: // BoundVar: a repeated variable bound by the key side
				if v == w.binding[pp.Val.Slot] && !w.step(1) {
					return false
				}
			}
		}
		return true
	default: // morselKeys
		if pp.PredSlot >= 0 {
			w.binding[pp.PredSlot] = m.pred
		}
		for pos := from; pos < to; pos++ {
			if pp.Key.Kind == optimizer.NewVar {
				w.binding[pp.Key.Slot] = m.t.Keys[pos]
			}
			if !w.values(0, pp, m.t, pos) {
				return false
			}
		}
		return true
	}
}

// unionTables resolves (once per worker) the tables an expanded first
// pattern unions over; morsel chunks of the same worker reuse the slice.
func (w *worker) unionTables() []*store.Table {
	if w.exp0 == nil {
		w.exp0 = w.expandedTables(0, &w.plan.Patterns[0])
	}
	return w.exp0
}

// runContained drives one worker through the scheduler with panic
// containment: a panic anywhere inside the pipeline is recovered, converted
// into a typed query error on the governor (stack attached), and stops the
// remaining workers at their next governance check instead of crashing the
// process. On normal completion the worker's produced rows are charged so budget
// accounting is exact, and a streaming worker ships its last partial batch.
func runContained(gov *governance.Governor, s *scheduler, w *worker) {
	defer func() {
		if r := recover(); r != nil {
			gov.Fail(&governance.PanicError{Value: r, Stack: debug.Stack()})
		}
	}()
	w.runScheduler(s)
	if w.gov != nil {
		w.flushProduced() // exact budget accounting once all workers finish
	}
	if w.stream != nil {
		w.stream.flush()
	}
}

// listScheduleMakespan simulates an N-worker run from measured per-morsel
// durations: morsels are handed out in dispatch order to the earliest-free
// worker — exactly the greedy list schedule the shared queue implements
// (intra-morsel stealing only tightens it further, so the simulation is
// mildly conservative). With no more morsels than workers every morsel gets
// its own worker and the makespan is the slowest one — the paper-justified
// simulation (communication-free workers ⇒ elapsed = slowest shard), which
// this extends to dynamic scheduling.
func listScheduleMakespan(durations []time.Duration, workers int) time.Duration {
	if workers <= 0 {
		workers = 1
	}
	if workers > len(durations) {
		workers = len(durations)
	}
	if workers == 0 {
		return 0
	}
	load := make([]time.Duration, workers)
	for _, d := range durations {
		mi := 0
		for i := 1; i < workers; i++ {
			if load[i] < load[mi] {
				mi = i
			}
		}
		load[mi] += d
	}
	sort.Slice(load, func(i, j int) bool { return load[i] > load[j] })
	return load[0]
}

// Package triad implements the TriAD-like baseline of the paper's
// multi-thread experiments (Tables 2–4): a shared-nothing engine whose
// workers hold hash-partitioned shards of the data (one copy partitioned by
// subject, one by object) and evaluate BGPs join-at-a-time with distributed
// index joins. Whenever the next join key differs from the current
// partitioning key of the intermediate relation, the workers perform a
// synchronous rehash exchange — the blocking data transfer the paper
// contrasts PARJ's communication-free design against. An optional summary
// graph mode (TriAD-SG) prunes with bucket-level domains computed before
// execution, paying a pre-pass overhead that only helps selective queries,
// mirroring the behavior observed in the paper. Encoding, the greedy join
// order and result handling come from package baseline.
package triad

import (
	"slices"
	"sort"
	"sync"
	"time"

	"parj/internal/baseline"
	"parj/internal/rdf"
	"parj/internal/sparql"
)

// Options configures an Engine.
type Options struct {
	// Workers is the number of shared-nothing workers (default 8).
	Workers int
	// SummaryBuckets enables summary-graph pruning with the given number
	// of buckets when > 0 (the TriAD-SG mode).
	SummaryBuckets int
	// SimulateParallel runs the per-phase worker functions sequentially
	// while recording per-worker durations, so hosts with fewer cores than
	// Workers can report the wall clock an adequately provisioned cluster
	// node would see: each barrier phase costs its *slowest* worker, and
	// phases still execute strictly one after another (the synchronization
	// structure is preserved). See Engine.SerialExcess.
	SimulateParallel bool
}

// shardTable is one predicate's pairs within one worker's partition, in CSR
// form keyed either by subject or by object.
type shardTable struct {
	keys []uint32
	offs []int32
	vals []uint32
}

func (t *shardTable) lookup(k uint32) (int, bool) {
	i := sort.Search(len(t.keys), func(i int) bool { return t.keys[i] >= k })
	return i, i < len(t.keys) && t.keys[i] == k
}

func (t *shardTable) run(i int) []uint32 { return t.vals[t.offs[i]:t.offs[i+1]] }

// Engine is an immutable multi-worker BGP evaluator.
type Engine struct {
	d       *baseline.Data
	workers int

	// bySubj[w][p-1] is predicate p's table holding only triples whose
	// subject hashes to worker w, keyed by subject. byObj is the replica
	// partitioned and keyed by object.
	bySubj [][]shardTable
	byObj  [][]shardTable

	// Summary graph (TriAD-SG): per predicate, the set of (sBucket <<32 |
	// oBucket) pairs present in the data.
	buckets   int
	summary   []map[uint64]bool
	exchanges int64 // rehash exchanges performed by the last Count/Evaluate

	simulate bool
	// serialExcess accumulates, per barrier phase, the worker time beyond
	// the slowest worker — the time a simulated parallel run would *not*
	// spend. Reset by eval.
	serialExcess time.Duration
}

// Load builds an engine from parsed triples.
func Load(triples []rdf.Triple, opts Options) *Engine {
	if opts.Workers <= 0 {
		opts.Workers = 8
	}
	d, all := baseline.Encode(triples)
	nPred := len(d.PredCount)
	e := &Engine{
		d:        d,
		workers:  opts.Workers,
		buckets:  opts.SummaryBuckets,
		simulate: opts.SimulateParallel,
	}
	// Partition twice: by hash(subject) and by hash(object); k and v are the
	// key's and the value's position in a triple.
	type pair struct{ k, v uint32 }
	build := func(k, v int) [][]shardTable {
		parts := make([][][]pair, e.workers)
		for w := range parts {
			parts[w] = make([][]pair, nPred)
		}
		for _, t := range all {
			w := int(t[k]) % e.workers
			parts[w][t[1]-1] = append(parts[w][t[1]-1], pair{t[k], t[v]})
		}
		out := make([][]shardTable, e.workers)
		for w := range out {
			out[w] = make([]shardTable, nPred)
			for p := range parts[w] {
				ps := parts[w][p]
				sort.Slice(ps, func(i, j int) bool {
					if ps[i].k != ps[j].k {
						return ps[i].k < ps[j].k
					}
					return ps[i].v < ps[j].v
				})
				st := &out[w][p]
				st.offs = append(st.offs, 0)
				for i, pr := range ps {
					if i == 0 || pr.k != ps[i-1].k {
						st.keys = append(st.keys, pr.k)
						if i > 0 {
							st.offs = append(st.offs, int32(i))
						}
					}
					st.vals = append(st.vals, pr.v)
				}
				if len(ps) > 0 {
					st.offs = append(st.offs, int32(len(ps)))
				}
			}
		}
		return out
	}
	e.bySubj = build(0, 2)
	e.byObj = build(2, 0)

	if e.buckets > 0 {
		e.summary = make([]map[uint64]bool, nPred)
		for p := range e.summary {
			e.summary[p] = map[uint64]bool{}
		}
		for _, t := range all {
			sb := uint64(t[0] % uint32(e.buckets))
			ob := uint64(t[2] % uint32(e.buckets))
			e.summary[t[1]-1][sb<<32|ob] = true
		}
	}
	return e
}

// NumTriples reports the number of distinct triples loaded.
func (e *Engine) NumTriples() int { return e.d.N }

// Exchanges reports how many rehash exchanges the last query performed.
func (e *Engine) Exchanges() int64 { return e.exchanges }

// SerialExcess reports, for the last query under SimulateParallel, how much
// of the measured wall clock a real W-core run would overlap away:
// subtracting it from the wall time yields the simulated parallel elapsed.
func (e *Engine) SerialExcess() time.Duration { return e.serialExcess }

// relation is a distributed intermediate result: rows[w] lives on worker w.
type relation struct {
	vars []string
	rows [][][]uint32 // rows[worker][row][col]
	// partVar is the variable the relation is hash-partitioned on ("" when
	// unknown, e.g. after a broadcast join).
	partVar string
}

func (r *relation) varIndex(v string) int { return slices.Index(r.vars, v) }

func (r *relation) size() int {
	n := 0
	for _, ws := range r.rows {
		n += len(ws)
	}
	return n
}

// Count evaluates q and returns the result count.
func (e *Engine) Count(q *sparql.Query) (int64, error) {
	return e.eval(q, false).Count, nil
}

// Evaluate returns the decoded projected rows (master-side gather).
func (e *Engine) Evaluate(q *sparql.Query) ([][]string, error) {
	return e.d.Decode(q, e.eval(q, true).Rows), nil
}

// varDomains holds the per-variable bucket domains computed from the
// summary graph; nil when SG mode is off or pruning found nothing to cut.
type varDomains map[string][]bool

// eval joins the patterns one at a time in greedy order and gathers the
// workers' rows into a collector on the master.
func (e *Engine) eval(q *sparql.Query, keep bool) *baseline.Collector {
	e.exchanges = 0
	e.serialExcess = 0
	domains := e.summaryPrune(q.Patterns)
	var rel *relation
	for _, idx := range e.d.Order(q.Patterns) {
		rel = e.joinStep(rel, q.Patterns[idx], domains)
		if rel.size() == 0 {
			break
		}
	}
	if rel == nil {
		rel = &relation{}
	}
	c := baseline.NewCollector(q, rel.vars, keep)
	for _, ws := range rel.rows {
		for _, row := range ws {
			if !c.Add(row) {
				return c
			}
		}
	}
	return c
}

// summaryPrune computes bucket domains per variable with a few rounds of
// constraint propagation over the summary graph. Returns nil when SG mode
// is disabled.
func (e *Engine) summaryPrune(patterns []sparql.TriplePattern) varDomains {
	if e.buckets == 0 {
		return nil
	}
	full := func() []bool {
		d := make([]bool, e.buckets)
		for i := range d {
			d[i] = true
		}
		return d
	}
	domains := varDomains{}
	for _, tp := range patterns {
		for _, v := range tp.Vars() {
			if _, ok := domains[v]; !ok {
				domains[v] = full()
			}
		}
	}
	// Constants restrict their variable's counterpart through their own
	// bucket.
	bucketOf := func(value string) (uint32, bool) {
		id := e.d.Resources.Lookup(value)
		if id == 0 {
			return 0, false
		}
		return id % uint32(e.buckets), true
	}
	for round := 0; round < 3; round++ {
		for _, tp := range patterns {
			if tp.P.IsVar() {
				continue // summary is per predicate only
			}
			p := e.d.Predicates.Lookup(tp.P.Value)
			if p == 0 {
				continue
			}
			pairs := e.summary[p-1]
			sDom := make([]bool, e.buckets)
			oDom := make([]bool, e.buckets)
			var sFix, oFix uint32
			sConst, oConst := false, false
			if !tp.S.IsVar() {
				b, ok := bucketOf(tp.S.Value)
				if !ok {
					continue
				}
				sFix, sConst = b, true
			}
			if !tp.O.IsVar() {
				b, ok := bucketOf(tp.O.Value)
				if !ok {
					continue
				}
				oFix, oConst = b, true
			}
			curS := domains[tp.S.Var]
			curO := domains[tp.O.Var]
			for pair := range pairs {
				sb := uint32(pair >> 32)
				ob := uint32(pair & 0xffffffff)
				if sConst && sb != sFix {
					continue
				}
				if oConst && ob != oFix {
					continue
				}
				if curS != nil && !curS[sb] {
					continue
				}
				if curO != nil && !curO[ob] {
					continue
				}
				sDom[sb] = true
				oDom[ob] = true
			}
			if tp.S.IsVar() {
				intersect(domains[tp.S.Var], sDom)
			}
			if tp.O.IsVar() {
				intersect(domains[tp.O.Var], oDom)
			}
		}
	}
	return domains
}

func intersect(dst, src []bool) {
	for i := range dst {
		dst[i] = dst[i] && src[i]
	}
}

// allowed checks a candidate binding against the summary domains.
func (e *Engine) allowed(domains varDomains, v string, id uint32) bool {
	if domains == nil || v == "" {
		return true
	}
	d, ok := domains[v]
	if !ok {
		return true
	}
	return d[id%uint32(e.buckets)]
}

// joinStep joins rel (possibly nil, for the first pattern) with one
// pattern, rehashing when the partitioning variable does not match.
func (e *Engine) joinStep(rel *relation, tp sparql.TriplePattern, domains varDomains) *relation {
	sVar, oVar := tp.S.Var, tp.O.Var // "" for a constant
	if rel == nil {
		return e.scanPattern(tp, domains)
	}

	// Choose the probe key column: a shared variable, preferring the
	// current partitioning variable (no exchange).
	keySubject := false
	keyVar := ""
	if sVar != "" && rel.varIndex(sVar) >= 0 {
		keySubject, keyVar = true, sVar
	}
	if oVar != "" && rel.varIndex(oVar) >= 0 {
		if keyVar == "" || oVar == rel.partVar {
			keySubject, keyVar = false, oVar
		}
	}
	if keyVar == "" {
		// No shared variable: the pattern's rows live on workers unrelated
		// to rel's partitioning, so they must be gathered and broadcast —
		// the expensive exchange case the paper attributes to such joins.
		return e.broadcastJoin(rel, tp, domains)
	}

	if rel.partVar != keyVar {
		rel = e.rehash(rel, keyVar)
	}
	return e.localJoin(rel, tp, keySubject, keyVar, domains)
}

// scanPattern evaluates the first pattern: each worker scans its partition.
func (e *Engine) scanPattern(tp sparql.TriplePattern, domains varDomains) *relation {
	pat := baseline.NewPattern(tp)
	out := &relation{vars: pat.Vars, rows: make([][][]uint32, e.workers)}
	sVar, oVar := tp.S.Var, tp.O.Var
	// Scan the subject partition (complete and disjoint across workers);
	// the result is partitioned by subject when it is a variable.
	out.partVar = sVar

	var sConst, oConst uint32
	if !tp.S.IsVar() {
		if sConst = e.d.Resources.Lookup(tp.S.Value); sConst == 0 {
			return out
		}
		out.partVar = ""
	}
	if !tp.O.IsVar() {
		if oConst = e.d.Resources.Lookup(tp.O.Value); oConst == 0 {
			return out
		}
	}
	var preds []uint32
	if tp.P.IsVar() {
		for p := uint32(1); p <= uint32(e.d.Predicates.Len()); p++ {
			preds = append(preds, p)
		}
	} else {
		p := e.d.Predicates.Lookup(tp.P.Value)
		if p == 0 {
			return out
		}
		preds = []uint32{p}
	}

	useObjPartition := oConst != 0 && sConst == 0
	if useObjPartition {
		out.partVar = "" // all matching rows live on oConst's owner worker
	}
	e.parallel(func(w int) {
		for _, p := range preds {
			t := &e.bySubj[w][p-1]
			if useObjPartition {
				t = &e.byObj[w][p-1]
			}
			emit := func(s, o uint32) {
				if !e.allowed(domains, sVar, s) || !e.allowed(domains, oVar, o) {
					return
				}
				if row, ok := pat.Bind(s, p, o); ok {
					out.rows[w] = append(out.rows[w], row)
				}
			}
			switch {
			case sConst != 0:
				if int(sConst)%e.workers != w {
					continue // another worker owns this subject
				}
				if pos, ok := t.lookup(sConst); ok {
					for _, o := range t.run(pos) {
						if oConst == 0 || o == oConst {
							emit(sConst, o)
						}
					}
				}
			case useObjPartition:
				if int(oConst)%e.workers != w {
					continue // another worker owns this object
				}
				if pos, ok := t.lookup(oConst); ok {
					for _, sub := range t.run(pos) {
						emit(sub, oConst)
					}
				}
			default:
				for i, sub := range t.keys {
					for _, o := range t.run(i) {
						if oConst == 0 || o == oConst {
							emit(sub, o)
						}
					}
				}
			}
		}
	})
	return out
}

// rehash redistributes rel by hash of variable v — a synchronous all-to-all
// exchange with a barrier, as in TriAD's blocking data transfers.
func (e *Engine) rehash(rel *relation, v string) *relation {
	e.exchanges++
	col := rel.varIndex(v)
	outbox := make([][][][]uint32, e.workers) // [from][to][row]
	e.parallel(func(w int) {
		outbox[w] = make([][][]uint32, e.workers)
		for _, row := range rel.rows[w] {
			to := int(row[col]) % e.workers
			outbox[w][to] = append(outbox[w][to], row)
		}
	})
	// Barrier: the exchange completes before any worker proceeds.
	next := &relation{vars: rel.vars, partVar: v, rows: make([][][]uint32, e.workers)}
	e.parallel(func(w int) {
		for from := 0; from < e.workers; from++ {
			next.rows[w] = append(next.rows[w], outbox[from][w]...)
		}
	})
	return next
}

// localJoin probes each worker's shard table with its local rows.
func (e *Engine) localJoin(rel *relation, tp sparql.TriplePattern, keySubject bool, keyVar string, domains varDomains) *relation {
	out := &relation{vars: append([]string(nil), rel.vars...), partVar: rel.partVar}
	var valVar string
	valTerm := tp.O
	if !keySubject {
		valTerm = tp.S
	}
	valCol := -1
	if valTerm.IsVar() {
		valVar = valTerm.Var
		valCol = rel.varIndex(valVar)
		if valCol < 0 {
			out.vars = append(out.vars, valVar)
		}
	}
	keyTerm := tp.S
	if !keySubject {
		keyTerm = tp.O
	}
	var keyConst uint32
	keyCol := -1
	if keyTerm.IsVar() {
		keyCol = rel.varIndex(keyTerm.Var)
	} else {
		keyConst = e.d.Resources.Lookup(keyTerm.Value)
		if keyConst == 0 {
			return &relation{vars: out.vars, rows: make([][][]uint32, e.workers)}
		}
	}
	var valConst uint32
	if !valTerm.IsVar() {
		valConst = e.d.Resources.Lookup(valTerm.Value)
		if valConst == 0 {
			return &relation{vars: out.vars, rows: make([][][]uint32, e.workers)}
		}
	}
	var preds []uint32
	var pVarCol = -1
	var pNew bool
	if tp.P.IsVar() {
		pVarCol = rel.varIndex(tp.P.Var)
		if pVarCol < 0 {
			pNew = true
			out.vars = append(out.vars, tp.P.Var)
		}
		for p := uint32(1); p <= uint32(e.d.Predicates.Len()); p++ {
			preds = append(preds, p)
		}
	} else {
		p := e.d.Predicates.Lookup(tp.P.Value)
		if p == 0 {
			return &relation{vars: out.vars, rows: make([][][]uint32, e.workers)}
		}
		preds = []uint32{p}
	}

	out.rows = make([][][]uint32, e.workers)
	tables := e.bySubj
	if !keySubject {
		tables = e.byObj
	}
	e.parallel(func(w int) {
		for _, row := range rel.rows[w] {
			key := keyConst
			if keyCol >= 0 {
				key = row[keyCol]
			}
			for _, p := range preds {
				if pVarCol >= 0 && row[pVarCol] != p {
					continue
				}
				t := &tables[w][p-1]
				pos, ok := t.lookup(key)
				if !ok {
					continue
				}
				emitOne := func(v uint32) {
					needVal := valCol < 0 && valVar != ""
					if !needVal && !pNew {
						out.rows[w] = append(out.rows[w], row)
						return
					}
					nr := make([]uint32, 0, len(row)+2)
					nr = append(nr, row...)
					if needVal {
						nr = append(nr, v)
					}
					if pNew {
						nr = append(nr, p)
					}
					out.rows[w] = append(out.rows[w], nr)
				}
				run := t.run(pos)
				switch {
				case valConst != 0:
					if containsSorted(run, valConst) {
						emitOne(valConst)
					}
				case valCol >= 0:
					if containsSorted(run, row[valCol]) {
						emitOne(row[valCol])
					}
				default:
					for _, v := range run {
						if valVar != "" && !e.allowed(domains, valVar, v) {
							continue
						}
						emitOne(v)
					}
				}
			}
		}
	})
	return out
}

// broadcastJoin gathers the pattern's rows on the master and broadcasts
// them to every worker for a local cross/filter join.
func (e *Engine) broadcastJoin(rel *relation, tp sparql.TriplePattern, domains varDomains) *relation {
	e.exchanges++ // the broadcast is an exchange too
	scanned := e.scanPattern(tp, domains)
	var gathered [][]uint32
	for _, ws := range scanned.rows {
		gathered = append(gathered, ws...)
	}
	out := &relation{vars: append([]string(nil), rel.vars...), partVar: rel.partVar}
	var extraCols []int
	for j, v := range scanned.vars {
		if rel.varIndex(v) < 0 {
			out.vars = append(out.vars, v)
			extraCols = append(extraCols, j)
		}
	}
	out.rows = make([][][]uint32, e.workers)
	e.parallel(func(w int) {
		for _, row := range rel.rows[w] {
			for _, prow := range gathered {
				ok := true
				for j, v := range scanned.vars {
					if c := rel.varIndex(v); c >= 0 && row[c] != prow[j] {
						ok = false
						break
					}
				}
				if !ok {
					continue
				}
				nr := append(append(make([]uint32, 0, len(row)+len(extraCols)), row...), pick(prow, extraCols)...)
				out.rows[w] = append(out.rows[w], nr)
			}
		}
	})
	return out
}

func pick(row []uint32, cols []int) []uint32 {
	out := make([]uint32, len(cols))
	for i, c := range cols {
		out[i] = row[c]
	}
	return out
}

func containsSorted(run []uint32, v uint32) bool {
	i := sort.Search(len(run), func(i int) bool { return run[i] >= v })
	return i < len(run) && run[i] == v
}

// parallel runs fn(w) for every worker and waits — every phase boundary is
// a synchronization barrier, which is the point of this baseline. Under
// SimulateParallel the workers run one at a time with per-worker timing so
// the barrier's parallel cost (its slowest worker) can be reported on
// under-provisioned hosts.
func (e *Engine) parallel(fn func(w int)) {
	if e.simulate {
		var sum, max time.Duration
		for w := 0; w < e.workers; w++ {
			start := time.Now()
			fn(w)
			d := time.Since(start)
			sum += d
			if d > max {
				max = d
			}
		}
		e.serialExcess += sum - max
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < e.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			fn(w)
		}(w)
	}
	wg.Wait()
}

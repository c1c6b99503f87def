package difftest

import (
	"fmt"
	"math/rand"
	"slices"

	"parj/internal/governance"
	"parj/internal/rdf"
	"parj/internal/rdfs"
	"parj/internal/reference"
	"parj/internal/sparql"
)

// case.go — the one trial shape, and its replay against the one oracle.
//
// A Case is a seeded, replayable schedule of write batches,
// reconciliations and queries over a base triple set. The oracle is a plain
// triple set updated by the same batches: it has no epochs, no deltas, no
// reconciliation, so any divergence pins a bug in the engine, not in the
// workload. A read case is the special case whose ops are all queries.
//
// The write-case generator deliberately aims at the anomalies set-semantic
// deltas must get right: duplicate inserts, deletes of absent triples,
// delete-then-reinsert across (and within) epoch boundaries, and
// reconciliations racing fresh writes.

// Op is one step of a case. Exactly one of the three op shapes is
// populated: a write batch (Inserts and/or Deletes; deletes apply first,
// the order the replication protocol fixes), a reconciliation, or a query
// to diff against the oracle.
type Op struct {
	Inserts   []rdf.Triple
	Deletes   []rdf.Triple
	Reconcile bool
	Query     string
}

func (op *Op) isWrite() bool { return op.Query == "" && !op.Reconcile }

// Case is a replayable trial: a base triple set every engine loads first,
// then an op sequence.
type Case struct {
	// Seed identifies where the case came from: Run sets the seed of the
	// dataset it was drawn from, the one its progress line prints.
	Seed int64
	Base []rdf.Triple
	Ops  []Op
}

// queryCase is the one-query read case of src over base.
func queryCase(seed int64, base []rdf.Triple, src string) *Case {
	return &Case{Seed: seed, Base: base, Ops: []Op{{Query: src}}}
}

// hasWrites reports whether any op is a write batch.
func (c *Case) hasWrites() bool {
	return slices.ContainsFunc(c.Ops, func(op Op) bool { return op.isWrite() })
}

// oracle is the naive mutable oracle: a plain triple set updated by the
// same batches (deletes first), evaluated by the reference engine.
type oracle struct {
	set map[rdf.Triple]bool
	// order lists each ever-present triple exactly once (inOrder guards
	// against re-appending on delete-then-reinsert), keeping evaluation
	// deterministic and duplicate-free.
	order   []rdf.Triple
	inOrder map[rdf.Triple]bool
}

func newOracle(base []rdf.Triple) *oracle {
	o := &oracle{
		set:     make(map[rdf.Triple]bool, len(base)),
		inOrder: make(map[rdf.Triple]bool, len(base)),
	}
	for _, t := range base {
		o.insert(t)
	}
	return o
}

func (o *oracle) insert(t rdf.Triple) {
	o.set[t] = true
	if !o.inOrder[t] {
		o.inOrder[t] = true
		o.order = append(o.order, t)
	}
}

func (o *oracle) apply(inserts, deletes []rdf.Triple) {
	for _, t := range deletes {
		delete(o.set, t)
	}
	for _, t := range inserts {
		o.insert(t)
	}
}

// triples returns the current effective triple set.
func (o *oracle) triples() []rdf.Triple {
	out := make([]rdf.Triple, 0, len(o.set))
	for _, t := range o.order {
		if o.set[t] {
			out = append(out, t)
		}
	}
	// Compact the order list opportunistically so long churny schedules
	// don't scan an ever-growing tombstone tail.
	if len(out)*2 < len(o.order) {
		o.order = append([]rdf.Triple(nil), out...)
		o.inOrder = make(map[rdf.Triple]bool, len(out))
		for _, t := range out {
			o.inOrder[t] = true
		}
	}
	return out
}

// answer is the oracle's result for one query op.
type answer struct {
	q    *sparql.Query
	want [][]string
}

// limits bounds the oracle: a query whose backtracking exceeds budget, or
// whose full result exceeds maxRows, is skipped by every engine.
type limits struct {
	budget  int64
	maxRows int
}

// defaultLimits are the oracle bounds Config defaults to and repros replay
// under.
var defaultLimits = limits{budget: 2_000_000, maxRows: 20_000}

// ask evaluates src over triples within lim. It returns nil for a query
// over the limits, and an error for one that does not parse — the
// generator stays inside the supported fragment by construction, so a
// parse error is itself a finding.
func (lim limits) ask(src string, triples []rdf.Triple) (*answer, error) {
	q, err := sparql.Parse(src)
	if err != nil {
		return nil, fmt.Errorf("query does not parse: %w", err)
	}
	want, ok := reference.EvaluateBudget(q, triples, lim.budget)
	if !ok || len(want) > lim.maxRows {
		return nil, nil
	}
	return &answer{q: q, want: want}, nil
}

// answers replays c's writes on the oracle and answers every query op over
// the oracle's triples at that point, forward-chained under entailment.
// ans[i] is nil for a non-query op and for a skipped query; a query that
// does not parse ends the replay with its op index and error.
func (lim limits) answers(c *Case, entail bool) (ans []*answer, skipped, opIdx int, err error) {
	o := newOracle(c.Base)
	ans = make([]*answer, len(c.Ops))
	for i := range c.Ops {
		op := &c.Ops[i]
		switch {
		case op.Query != "":
			ts := o.triples()
			if entail {
				ts = rdfs.ForwardChain(ts, "", "", "")
			}
			if ans[i], err = lim.ask(op.Query, ts); err != nil {
				return nil, skipped, i, err
			}
			if ans[i] == nil {
				skipped++
			}
		case op.isWrite():
			o.apply(op.Inserts, op.Deletes)
		}
	}
	return ans, skipped, -1, nil
}

// replay runs c on one engine, diffing every answered query op against
// ans. It returns the first diverging op and its diff ("" and -1 on
// agreement), the comparisons made, and the queries a governance policy
// refused: engines under different limits may legitimately disagree on
// whether a query runs.
func replay(ec EngineConfig, c *Case, ans []*answer) (opIdx int, diff string, checks, skipped int) {
	eng, err := ec.Make(c.Base)
	if err != nil {
		return -1, "building engine: " + err.Error(), 0, 0
	}
	defer eng.Close()
	for i := range c.Ops {
		op := &c.Ops[i]
		switch {
		case op.Query != "":
			a := ans[i]
			if a == nil {
				continue
			}
			got, err := eng.Evaluate(a.q)
			if governance.IsPolicy(err) {
				skipped++
				continue
			}
			if err != nil {
				return i, "evaluate: " + err.Error(), checks, skipped
			}
			checks++
			if d := Compare(a.q, a.want, got); d != "" {
				return i, d, checks, skipped
			}
		case op.Reconcile:
			if err := eng.Reconcile(); err != nil {
				return i, "reconcile: " + err.Error(), checks, skipped
			}
		default:
			if err := eng.Apply(op.Inserts, op.Deletes); err != nil {
				return i, "apply: " + err.Error(), checks, skipped
			}
		}
	}
	return -1, "", checks, skipped
}

// check answers c on the oracle and replays it on ec: the one verdict the
// shrinker and CheckRepro share. It returns the diverging op and diff, ""
// on agreement.
func (lim limits) check(ec EngineConfig, c *Case) (opIdx int, diff string) {
	ans, _, opIdx, err := lim.answers(c, ec.Entail)
	if err != nil {
		return opIdx, err.Error()
	}
	opIdx, diff, _, _ = replay(ec, c, ans)
	return opIdx, diff
}

// GenWriteCase draws one seeded write case over ds: a base prefix of the
// dataset, then interleaved write batches (biased toward duplicate inserts,
// deletes of absent triples and delete-then-reinsert churn), explicit
// reconciliations, and queries. Every reconciliation is immediately
// followed by a query, so each epoch boundary is an oracle checkpoint; the
// case always ends with a reconcile + query pair.
func GenWriteCase(rng *rand.Rand, ds *Dataset, ops int) *Case {
	if ops <= 0 {
		ops = 30
	}
	half := len(ds.Triples) / 2
	c := &Case{Base: append([]rdf.Triple(nil), ds.Triples[:half]...)}
	heldOut := ds.Triples[half:]

	// present tracks the simulated effective set, to bias deletes toward
	// triples that actually exist.
	present := map[rdf.Triple]bool{}
	var presentList []rdf.Triple
	for _, t := range c.Base {
		if !present[t] {
			present[t] = true
			presentList = append(presentList, t)
		}
	}
	pickPresent := func() (rdf.Triple, bool) {
		for tries := 0; tries < 8 && len(presentList) > 0; tries++ {
			t := presentList[rng.Intn(len(presentList))]
			if present[t] {
				return t, true
			}
		}
		return rdf.Triple{}, false
	}
	novel := func() rdf.Triple {
		return rdf.Triple{
			S: fmt.Sprintf("<nv-s%d>", rng.Intn(4)),
			P: fmt.Sprintf("<nv-p%d>", rng.Intn(2)),
			O: fmt.Sprintf("<nv-o%d>", rng.Intn(4)),
		}
	}
	record := func(op Op) {
		for _, t := range op.Deletes {
			delete(present, t)
		}
		for _, t := range op.Inserts {
			if !present[t] {
				present[t] = true
				presentList = append(presentList, t)
			}
		}
		c.Ops = append(c.Ops, op)
	}
	addQuery := func() {
		c.Ops = append(c.Ops, Op{Query: GenQuery(rng, ds).Src()})
	}

	for i := 0; i < ops; i++ {
		switch k := rng.Intn(10); {
		case k < 5: // write batch
			var op Op
			for n := 1 + rng.Intn(4); n > 0; n-- {
				switch r := rng.Intn(10); {
				case r < 3 && len(heldOut) > 0: // fresh triple from the held-out pool
					op.Inserts = append(op.Inserts, heldOut[rng.Intn(len(heldOut))])
				case r < 5: // duplicate insert of a present triple
					if t, ok := pickPresent(); ok {
						op.Inserts = append(op.Inserts, t)
					}
				case r < 6: // novel terms: grows dictionaries mid-flight
					op.Inserts = append(op.Inserts, novel())
				case r < 8: // delete a present triple
					if t, ok := pickPresent(); ok {
						op.Deletes = append(op.Deletes, t)
						// Half the time, schedule the reinsert churn in the
						// same batch (delete wins first, insert reinstates).
						if rng.Intn(2) == 0 {
							op.Inserts = append(op.Inserts, t)
						}
					}
				default: // delete an absent triple: must be a no-op
					op.Deletes = append(op.Deletes, novel())
				}
			}
			if len(op.Inserts) > 0 || len(op.Deletes) > 0 {
				record(op)
			}
		case k < 7: // epoch boundary: reconcile, then checkpoint-query
			c.Ops = append(c.Ops, Op{Reconcile: true})
			addQuery()
		default:
			addQuery()
		}
	}
	c.Ops = append(c.Ops, Op{Reconcile: true})
	addQuery()
	return c
}

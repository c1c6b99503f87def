// Package difftest is a deterministic differential-testing harness for
// every query engine in this repository. Every trial is one kind of Case:
// a base triple set plus an op schedule of write batches, reconciliations
// and queries. A read case is a generated dataset whose ops are all
// queries; a write case loads half a dataset and interleaves churn with
// query checkpoints. The harness replays each case on one mutable oracle
// (a plain triple set evaluated by the naive reference engine) and on the
// engine matrix — PARJ under all four probe strategies, several worker
// counts and all three join operators, the loopback cluster, and, on
// write-free cases, the hashjoin, rdf3x, btree and triad baselines — and
// diffs every query's result multiset. A failing case is shrunk (ddmin over
// ops and base, structural simplification of its queries) to a small repro
// printed as a ready-to-paste Go test.
//
// Alongside the oracle diff, the harness applies metamorphic checks that
// need no oracle at all to every plain read query: pattern-order
// permutation invariance, DISTINCT idempotence, COUNT vs materialized-row
// agreement, join-operator equivalence, governance transparency and
// snapshot save/load round-trip equivalence.
//
// Entry points: the go test files in this package (seed-matrix smoke in
// short mode, a large matrix behind -long), and cmd/parj-fuzz for
// open-ended soak runs.
package difftest

import (
	"fmt"
	"runtime"
	"slices"
	"strconv"
	"strings"

	"parj/internal/baseline/hashjoin"
	"parj/internal/baseline/rdf3x"
	"parj/internal/baseline/triad"
	"parj/internal/core"
	"parj/internal/rdf"
	"parj/internal/sparql"
)

// Engine is an engine under differential test. Apply must execute deletes
// before inserts (the write path's batch order); Evaluate must observe
// every previously applied batch.
type Engine interface {
	Evaluate(q *sparql.Query) ([][]string, error)
	Apply(inserts, deletes []rdf.Triple) error
	Reconcile() error
	Close()
}

// EngineConfig names one engine configuration of the differential matrix
// and knows how to build it over a case's base triples. Make must be
// callable repeatedly (the shrinker rebuilds engines over reduced cases).
type EngineConfig struct {
	Name string
	// Entail marks configurations that evaluate with RDFS entailment; the
	// oracle answers their queries over forward-chained triples, and they
	// run only the entailment cases.
	Entail bool
	// ReadOnly marks engines that take no writes (the baselines); they
	// run only write-free cases.
	ReadOnly bool
	Make     func(base []rdf.Triple) (Engine, error)
}

// strategies is the full probe-strategy axis of the matrix (Table 5).
var strategies = []core.Strategy{
	core.AdaptiveBinary, core.BinaryOnly, core.IndexOnly, core.AdaptiveIndex,
}

// WorkerCounts returns the worker-count axis of the matrix: 1, 2 and
// NumCPU, deduplicated (on a dual-core host that is {1, 2}).
func WorkerCounts() []int { return distinct(1, 2, runtime.NumCPU()) }

// distinct returns counts without repeats, in first-seen order.
func distinct(counts ...int) []int {
	var out []int
	for _, c := range counts {
		if !slices.Contains(out, c) {
			out = append(out, c)
		}
	}
	return out
}

// parjConfig is one PARJ configuration: a live store queried with opts,
// planned with RDFS entailment when entail is set.
func parjConfig(name string, opts core.Options, entail bool) EngineConfig {
	return EngineConfig{Name: name, Entail: entail, Make: func(base []rdf.Triple) (Engine, error) {
		return newPARJ(base, opts, entail), nil
	}}
}

// baseline is one read-only baseline configuration; load builds it over
// the base triples and returns its row-materializing evaluator.
func baseline(name string, load func(base []rdf.Triple) readOnly) EngineConfig {
	return EngineConfig{Name: name, ReadOnly: true, Make: func(base []rdf.Triple) (Engine, error) {
		return load(base), nil
	}}
}

// Configs returns the plain-semantics differential matrix: PARJ under every
// strategy at each worker count, the join-operator matrix, PARJ with
// background reconciliation, the loopback cluster, and the four read-only
// baselines. A nil workers slice selects WorkerCounts().
func Configs(workers []int) []EngineConfig {
	wcojWorkers := workers // nil lets WCOJConfigs pick its own axis
	if workers == nil {
		workers = WorkerCounts()
	}
	var out []EngineConfig
	for _, s := range strategies {
		for _, w := range workers {
			out = append(out, parjConfig(fmt.Sprintf("parj-%s-w%d", s, w), core.Options{Threads: w, Strategy: s}, false))
		}
	}
	out = append(out, WCOJConfigs(wcojWorkers)...)
	out = append(out,
		// Background reconciliation armed at a tiny threshold: epoch swaps
		// land mid-schedule at goroutine-scheduling whim, and every query
		// must still match the oracle exactly.
		EngineConfig{Name: "parj-autoreconcile", Make: func(base []rdf.Triple) (Engine, error) {
			e := newPARJ(base, core.Options{Threads: 2, Strategy: core.AdaptiveBinary}, false)
			e.h.SetAutoReconcile(4)
			return e, nil
		}},
		// The distributed serving tier: a 2-shard × 2-replica loopback
		// fleet, diffed against the oracle like any local engine.
		EngineConfig{Name: "cluster-2x2", Make: newCluster},
		baseline("hashjoin", func(b []rdf.Triple) readOnly {
			return hashjoin.Load(b).Evaluate
		}),
		baseline("rdf3x", func(b []rdf.Triple) readOnly {
			return rdf3x.Load(b).Evaluate
		}),
		// Tiny pages force every scan across many page boundaries,
		// stressing the B+ tree cursor logic itself.
		baseline("btree", func(b []rdf.Triple) readOnly {
			return rdf3x.LoadWithPageSize(b, 4).Evaluate
		}),
		baseline("triad", func(b []rdf.Triple) readOnly {
			return triad.Load(b, triad.Options{Workers: 2, SimulateParallel: runtime.NumCPU() < 2}).Evaluate
		}),
	)
	return out
}

// joinAlgos is the join-operator axis of the WCOJ matrix: the forced
// worst-case-optimal operator, the forced pipeline, and the optimizer's
// shape-based auto choice. Running all three on the same generated BGPs is
// what proves the two operators interchangeable — auto may flip between
// them per query, and any divergence from the oracle pins which operator
// (or the chooser itself) is wrong.
var joinAlgos = []core.JoinAlgo{core.JoinWCOJ, core.JoinPipeline, core.JoinAuto}

// WCOJWorkerCounts is the worker axis of the WCOJ matrix: single-worker
// (pure leapfrog, no scheduler), an odd count that never divides the outer
// domain evenly, and full parallelism — deduplicated like WorkerCounts.
func WCOJWorkerCounts() []int { return distinct(1, 3, runtime.GOMAXPROCS(0)) }

// WCOJConfigs returns the join-operator differential matrix: PARJ with the
// join operator forced to WCOJ, to the pipeline, and left on auto, at each
// worker count. Ineligible patterns (variable predicates, hierarchy
// expansion) silently fall back to the pipeline under forced WCOJ, so every
// generated query is fair game. A nil workers slice selects
// WCOJWorkerCounts().
func WCOJConfigs(workers []int) []EngineConfig {
	if workers == nil {
		workers = WCOJWorkerCounts()
	}
	var out []EngineConfig
	for _, j := range joinAlgos {
		for _, w := range workers {
			name := fmt.Sprintf("parj-%s-%s-w%d", j, core.AdaptiveBinary, w)
			out = append(out, parjConfig(name, core.Options{Threads: w, Strategy: core.AdaptiveBinary, Join: j}, false))
		}
	}
	return out
}

// MorselSizes is the morsel-size axis of the scheduler matrix: 1 makes
// every outer work unit its own morsel (maximal dispatch and steal
// traffic), 7 forces uneven chunking with constant re-claiming, and 64K —
// the default scale — usually yields fewer morsels than workers, covering
// the clamped worker-count path.
var MorselSizes = []int{1, 7, 64 * 1024}

// MorselConfigs returns the scheduler differential matrix: PARJ under
// every strategy at each worker count and each morsel size. Nil slices
// select WorkerCounts() and MorselSizes.
func MorselConfigs(workers []int, sizes []int) []EngineConfig {
	if workers == nil {
		workers = WorkerCounts()
	}
	if sizes == nil {
		sizes = MorselSizes
	}
	var out []EngineConfig
	for _, s := range strategies {
		for _, w := range workers {
			for _, m := range sizes {
				name := fmt.Sprintf("parj-%s-w%d-m%d", s, w, m)
				out = append(out, parjConfig(name, core.Options{Threads: w, Strategy: s, MorselSize: m}, false))
			}
		}
	}
	return out
}

// EntailConfigs returns the entailment matrix: PARJ (the only engine with
// backward-chained RDFS support) under every strategy at each worker count.
// The oracle side evaluates over rdfs.ForwardChain-materialized triples.
func EntailConfigs(workers []int) []EngineConfig {
	if workers == nil {
		workers = WorkerCounts()
	}
	var out []EngineConfig
	for _, s := range strategies {
		for _, w := range workers {
			out = append(out, parjConfig(fmt.Sprintf("parj-entail-%s-w%d", s, w), core.Options{Threads: w, Strategy: s}, true))
		}
	}
	return out
}

// FindConfig resolves an engine-configuration name as produced by Configs,
// WCOJConfigs, MorselConfigs or EntailConfigs, for replaying shrunk repros.
// PARJ names are parsed rather than looked up, so a repro recorded on a
// many-core host replays on any machine ("parj-AdBinary-w8-m7" works on a
// dual-core laptop). The grammar is
// parj[-entail][-(wcoj|pipe|auto)]-<strategy>-w<N>[-m<M>], with N and M
// positive decimal integers and nothing after them.
func FindConfig(name string) (EngineConfig, error) {
	for _, c := range append(Configs(nil), EntailConfigs(nil)...) {
		if c.Name == name {
			return c, nil
		}
	}
	unknown := fmt.Errorf("difftest: unknown engine config %q", name)
	rest, entail := strings.CutPrefix(name, "parj-entail-")
	if !entail {
		var plain bool
		if rest, plain = strings.CutPrefix(name, "parj-"); !plain {
			return EngineConfig{}, unknown
		}
	}
	var opts core.Options
	for _, j := range joinAlgos {
		if r, ok := strings.CutPrefix(rest, j.String()+"-"); ok {
			opts.Join, rest = j, r
			break
		}
	}
	if mIdx := strings.LastIndex(rest, "-m"); mIdx >= 0 && mIdx > strings.LastIndex(rest, "-w") {
		m, ok := positive(rest[mIdx+2:])
		if !ok {
			return EngineConfig{}, unknown
		}
		opts.MorselSize, rest = m, rest[:mIdx]
	}
	wIdx := strings.LastIndex(rest, "-w")
	if wIdx < 0 {
		return EngineConfig{}, unknown
	}
	w, ok := positive(rest[wIdx+2:])
	if !ok {
		return EngineConfig{}, unknown
	}
	for _, s := range strategies {
		if s.String() == rest[:wIdx] {
			opts.Threads, opts.Strategy = w, s
			return parjConfig(name, opts, entail), nil
		}
	}
	return EngineConfig{}, unknown
}

// positive parses s as a positive decimal integer written in its canonical
// form: no sign, no leading zeros, nothing after the digits.
func positive(s string) (int, bool) {
	n, err := strconv.Atoi(s)
	return n, err == nil && n >= 1 && strconv.Itoa(n) == s
}

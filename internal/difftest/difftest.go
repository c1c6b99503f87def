// Package difftest is a deterministic differential-testing harness for
// every query engine in this repository. It generates seeded random
// datasets with adversarial shapes and seeded random Basic Graph Patterns,
// evaluates each (dataset, query) pair on the naive reference oracle and on
// the full engine matrix — PARJ under all four probe strategies at several
// worker counts, plus the hashjoin, rdf3x, btree and triad baselines — and
// diffs the result multisets. Failing pairs are greedily shrunk to a small
// repro printed as a ready-to-paste Go test.
//
// Alongside the oracle diff, the harness applies metamorphic checks that
// need no oracle at all: pattern-order permutation invariance, DISTINCT
// idempotence, COUNT vs materialized-row agreement, and snapshot save/load
// round-trip equivalence.
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

	"parj/internal/bench"
	"parj/internal/core"
	"parj/internal/optimizer"
	"parj/internal/rdfs"
)

// EngineConfig names one engine configuration of the differential matrix
// and knows how to instantiate it over a loaded dataset. Make must be
// callable repeatedly (the shrinker rebuilds engines over reduced data).
type EngineConfig struct {
	Name string
	// Entail marks configurations that evaluate with RDFS entailment; they
	// are diffed against the oracle over forward-chained triples and only
	// run on queries generated for entailment.
	Entail bool
	Make   func(d *bench.Dataset) bench.RowEngine
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

// Configs returns the plain-semantics differential matrix: PARJ under every
// strategy at each worker count, plus the four baselines. A nil workers
// slice selects WorkerCounts().
func Configs(workers []int) []EngineConfig {
	wcojWorkers := workers // nil lets WCOJConfigs pick its own axis
	if workers == nil {
		workers = WorkerCounts()
	}
	var out []EngineConfig
	for _, s := range strategies {
		for _, w := range workers {
			s, w := s, w
			out = append(out, EngineConfig{
				Name: fmt.Sprintf("parj-%s-w%d", s, w),
				Make: func(d *bench.Dataset) bench.RowEngine {
					return d.PARJRows(fmt.Sprintf("parj-%s-w%d", s, w), core.Options{Threads: w, Strategy: s}, nil)
				},
			})
		}
	}
	out = append(out, WCOJConfigs(wcojWorkers)...)
	out = append(out,
		EngineConfig{Name: "hashjoin", Make: func(d *bench.Dataset) bench.RowEngine { return d.HashJoinRows() }},
		EngineConfig{Name: "rdf3x", Make: func(d *bench.Dataset) bench.RowEngine { return d.RDF3XRows() }},
		// Tiny pages force every scan across many page boundaries,
		// stressing the B+ tree cursor logic itself.
		EngineConfig{Name: "btree", Make: func(d *bench.Dataset) bench.RowEngine { return d.BTreeRows(4) }},
		EngineConfig{Name: "triad", Make: func(d *bench.Dataset) bench.RowEngine { return d.TriADRows(0) }},
		// The distributed serving tier: a 2-shard × 2-replica loopback
		// coordinator, diffed against the oracle like any local engine.
		clusterConfig(),
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
			j, w := j, w
			name := fmt.Sprintf("parj-%s-%s-w%d", j, core.AdaptiveBinary, w)
			out = append(out, EngineConfig{
				Name: name,
				Make: func(d *bench.Dataset) bench.RowEngine {
					return d.PARJRows(name, core.Options{Threads: w, Strategy: core.AdaptiveBinary, Join: j}, nil)
				},
			})
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
				s, w, m := s, w, m
				name := fmt.Sprintf("parj-%s-w%d-m%d", s, w, m)
				out = append(out, EngineConfig{
					Name: name,
					Make: func(d *bench.Dataset) bench.RowEngine {
						return d.PARJRows(name, core.Options{Threads: w, Strategy: s, MorselSize: m}, nil)
					},
				})
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
			s, w := s, w
			name := fmt.Sprintf("parj-entail-%s-w%d", s, w)
			out = append(out, EngineConfig{
				Name:   name,
				Entail: true,
				Make: func(d *bench.Dataset) bench.RowEngine {
					st, _ := d.Store()
					return d.PARJRows(name, core.Options{Threads: w, Strategy: s}, rdfs.New(st, "", "", ""))
				},
			})
		}
	}
	return out
}

// FindConfig resolves an engine-configuration name as produced by Configs,
// MorselConfigs or EntailConfigs, for replaying shrunk repros. PARJ names
// are parsed rather than looked up, so a repro recorded on a many-core host
// replays on any machine ("parj-AdBinary-w8-m7" works on a dual-core
// laptop).
func FindConfig(name string) (EngineConfig, error) {
	for _, c := range append(Configs(nil), EntailConfigs(nil)...) {
		if c.Name == name {
			return c, nil
		}
	}
	rest, entail := strings.CutPrefix(name, "parj-entail-")
	if !entail {
		var plain bool
		rest, plain = strings.CutPrefix(name, "parj-")
		if !plain {
			return EngineConfig{}, fmt.Errorf("difftest: unknown engine config %q", name)
		}
	}
	// Optional join-operator token (the WCOJConfigs grammar):
	// parj[-entail]-(wcoj|pipe|auto)-<strategy>-w<N>[-m<M>].
	join := core.JoinAuto
	for _, j := range joinAlgos {
		if r, ok := strings.CutPrefix(rest, j.String()+"-"); ok {
			join = j
			rest = r
			break
		}
	}
	morsel := 0
	if mIdx := strings.LastIndex(rest, "-m"); mIdx >= 0 && mIdx > strings.LastIndex(rest, "-w") {
		m, err := strconv.Atoi(rest[mIdx+2:])
		if err != nil || m < 1 {
			return EngineConfig{}, fmt.Errorf("difftest: unknown engine config %q", name)
		}
		morsel = m
		rest = rest[:mIdx]
	}
	wIdx := strings.LastIndex(rest, "-w")
	if wIdx < 0 {
		return EngineConfig{}, fmt.Errorf("difftest: unknown engine config %q", name)
	}
	w, err := strconv.Atoi(rest[wIdx+2:])
	if err != nil || w < 1 {
		return EngineConfig{}, fmt.Errorf("difftest: unknown engine config %q", name)
	}
	stratName := rest[:wIdx]
	for _, s := range strategies {
		if s.String() == stratName {
			s := s
			return EngineConfig{Name: name, Entail: entail, Make: func(d *bench.Dataset) bench.RowEngine {
				var x optimizer.Expander
				if entail {
					st, _ := d.Store()
					x = rdfs.New(st, "", "", "")
				}
				return d.PARJRows(name, core.Options{Threads: w, Strategy: s, Join: join, MorselSize: morsel}, x)
			}}, nil
		}
	}
	return EngineConfig{}, fmt.Errorf("difftest: unknown engine config %q", name)
}

package difftest

import (
	"fmt"
	"math/rand"
	"testing"

	"parj/internal/reference"
	"parj/internal/sparql"
)

// TestMorselSizeMatrix runs every probe strategy at every worker count under
// each morsel size in MorselSizes, diffing each run against the oracle and —
// the metamorphic half — against the first morsel size's result: chunking is
// a scheduling decision, so the result multiset must be identical across
// sizes. Half the datasets are Skewed, giving the scheduler hot keys whose
// runs dwarf the smaller bounds. Run it under -race: the interesting
// failures here are claim/steal races, not wrong plans.
func TestMorselSizeMatrix(t *testing.T) {
	// Serial, an odd count that never divides the outer evenly, and
	// everything the host has.
	workers := WCOJWorkerCounts()
	const datasets = 4
	const queriesPer = 3
	pairs := 0
	for di := 0; di < datasets; di++ {
		dsSeed := int64(900_001 + di*1_000_003)
		rng := rand.New(rand.NewSource(dsSeed))
		ds := GenDataset(rng, DatasetConfig{MaxTriples: 220, Skewed: di%2 == 0})
		// One engine per configuration and dataset, built on first use.
		engines := map[string]Engine{}
		defer func() {
			for _, e := range engines {
				e.Close()
			}
		}()

		done := 0
		for qi := 0; done < queriesPer && qi < queriesPer*4; qi++ {
			qRng := rand.New(rand.NewSource(dsSeed ^ int64(qi+1)*7919))
			q := GenQuery(qRng, ds)
			parsed, err := sparql.Parse(q.Src())
			if err != nil {
				t.Fatalf("parse %q: %v", q.Src(), err)
			}
			want, ok := reference.EvaluateBudget(parsed, ds.Triples, 2_000_000)
			if !ok || len(want) > 20_000 {
				continue
			}
			done++
			pairs++

			for _, s := range strategies {
				for _, w := range workers {
					// The reference result for the cross-size identity check:
					// whatever the first morsel size produced.
					var sizeRef [][]string
					for si, m := range MorselSizes {
						name := fmt.Sprintf("parj-%s-w%d-m%d", s, w, m)
						// Resolve through FindConfig so the repro-replay
						// parse path for -m names is in the loop too.
						if engines[name] == nil {
							ec, err := FindConfig(name)
							if err != nil {
								t.Fatalf("FindConfig(%q): %v", name, err)
							}
							if engines[name], err = ec.Make(ds.Triples); err != nil {
								t.Fatal(err)
							}
						}
						got, err := engines[name].Evaluate(parsed)
						if err != nil {
							t.Fatalf("%s on %q: %v", name, q.Src(), err)
						}
						if diff := Compare(parsed, want, got); diff != "" {
							t.Errorf("%s on %q: %s", name, q.Src(), diff)
						}
						// A multi-worker LIMIT run may stop on any valid
						// subset, so exact cross-size identity only holds
						// without LIMIT — or at one worker, where morsels
						// drain in dispatch order whatever their size.
						if q.HasLimit && w > 1 {
							continue
						}
						if si == 0 {
							sizeRef = got
						} else if d := reference.DiffMultisets(sizeRef, got); d != "" {
							t.Errorf("%s on %q: result differs from morsel size %d: %s",
								name, q.Src(), MorselSizes[0], d)
						}
					}
				}
			}
		}
	}
	if pairs < datasets*2 {
		t.Errorf("completed only %d (dataset, query) pairs, want >= %d", pairs, datasets*2)
	}
}

// TestMorselConfigNames pins the -m name grammar: every generated scheduler
// configuration round-trips through FindConfig, foreign-host names resolve,
// and malformed morsel suffixes are rejected.
func TestMorselConfigNames(t *testing.T) {
	for _, c := range MorselConfigs(nil, nil) {
		got, err := FindConfig(c.Name)
		if err != nil {
			t.Errorf("FindConfig(%q): %v", c.Name, err)
			continue
		}
		if got.Name != c.Name || got.Entail {
			t.Errorf("FindConfig(%q) = {%q, entail %v}", c.Name, got.Name, got.Entail)
		}
	}
	for _, name := range []string{"parj-AdBinary-w64-m65536", "parj-Index-w8-m1"} {
		if _, err := FindConfig(name); err != nil {
			t.Errorf("FindConfig(%q): %v", name, err)
		}
	}
	for _, name := range []string{"parj-AdBinary-w2-m0", "parj-AdBinary-m7-w2", "parj-AdBinary-m7"} {
		if _, err := FindConfig(name); err == nil {
			t.Errorf("FindConfig(%q) unexpectedly resolved", name)
		}
	}
}

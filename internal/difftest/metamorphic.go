package difftest

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"parj/internal/bench"
	"parj/internal/core"
	"parj/internal/optimizer"
	"parj/internal/reference"
	"parj/internal/sparql"
	"parj/internal/stats"
	"parj/internal/store"
)

// metamorphicChecks applies the oracle-free invariants to one (dataset,
// query) pair on a single PARJ configuration (AdaptiveBinary, 2 workers —
// the default strategy under real parallelism). The oracle diff already
// covers the full matrix, so one configuration here keeps these checks
// cheap while still catching invariant violations the oracle could share
// with the engine (both would have to break the same way for a bug to slip
// past both layers).
//
// Checks:
//
//   - permutation invariance: reordering BGP patterns must not change the
//     result multiset (the optimizer re-derives the join order);
//   - DISTINCT idempotence: DISTINCT(Q) must equal Dedup(Q);
//   - COUNT agreement: the silent counting path must agree with the number
//     of materialized rows;
//   - snapshot round-trip (once per dataset): Save + LoadSnapshot must
//     yield a store that answers the query identically.
func metamorphicChecks(rng *rand.Rand, benchDS *bench.Dataset, ds *Dataset, q *Query, parsed *sparql.Query, checkSnapshot bool) []Failure {
	var fails []Failure
	fail := func(check, diff string) {
		fails = append(fails, Failure{
			Engine: check, Query: q.Src(), Diff: diff, Triples: ds.Triples,
		})
	}

	eng := benchDS.PARJRows("meta", core.Options{Threads: 2, Strategy: core.AdaptiveBinary}, nil)
	base, err := eng.Evaluate(parsed)
	if err != nil {
		fail("meta-base", "error: "+err.Error())
		return fails
	}

	// Permutation invariance. LIMIT is allowed to truncate differently
	// under a different join order, so limited queries sit this one out.
	// Both sides get the same explicit projection: SELECT * lays columns
	// out in variable-appearance order, which permuting patterns changes.
	if !q.HasLimit && len(q.Patterns) > 1 {
		fixed := q.Clone()
		if vars := fixed.vars(); len(vars) > 0 {
			fixed.Star = false
			fixed.Select = append([]string(nil), vars...)
			sort.Strings(fixed.Select)
		}
		perm := fixed.Clone()
		rng.Shuffle(len(perm.Patterns), func(i, j int) {
			perm.Patterns[i], perm.Patterns[j] = perm.Patterns[j], perm.Patterns[i]
		})
		fixedRows, err := evalSrc(eng, fixed)
		permRows, err2 := evalSrc(eng, perm)
		switch {
		case err != nil:
			fail("meta-permutation", "error: "+err.Error())
		case err2 != nil:
			fail("meta-permutation", "error: "+err2.Error())
		default:
			if diff := reference.DiffMultisets(fixedRows, permRows); diff != "" {
				fail("meta-permutation", fmt.Sprintf("permuted BGP %q: %s", perm.Src(), diff))
			}
		}
	}

	// DISTINCT idempotence: evaluating with DISTINCT must match deduping
	// the plain result.
	if !q.Distinct && !q.HasLimit {
		dq := q.Clone()
		dq.Distinct = true
		if dParsed, err := sparql.Parse(dq.Src()); err != nil {
			fail("meta-distinct", "parse: "+err.Error())
		} else if rows, err := eng.Evaluate(dParsed); err != nil {
			fail("meta-distinct", "error: "+err.Error())
		} else if diff := reference.DiffMultisets(reference.Dedup(base), rows); diff != "" {
			fail("meta-distinct", diff)
		}
	}

	// COUNT agreement: the silent path must count what the materializing
	// path returns. Same strategy and worker count as eng.
	if n, _, err := benchDS.PARJ("meta-count", core.Options{Threads: 2, Strategy: core.AdaptiveBinary}).Count(parsed); err != nil {
		fail("meta-count", "error: "+err.Error())
	} else if n != int64(len(base)) {
		fail("meta-count", fmt.Sprintf("silent COUNT %d vs %d materialized rows", n, len(base)))
	}

	// Join-operator equivalence: the forced worst-case-optimal operator and
	// the forced pipeline must return identical row multisets — the two
	// operators differ in every execution detail (leapfrog intersections vs
	// probe recursion, domain morsels vs key-range morsels) but none of it
	// is allowed to show in the result. Under LIMIT only the row count is
	// comparable: which rows survive truncation legitimately differs.
	{
		wcojEng := benchDS.PARJRows("meta-wcoj", core.Options{Threads: 2, Strategy: core.AdaptiveBinary, Join: core.JoinWCOJ}, nil)
		pipeEng := benchDS.PARJRows("meta-pipe", core.Options{Threads: 2, Strategy: core.AdaptiveBinary, Join: core.JoinPipeline}, nil)
		wRows, err := wcojEng.Evaluate(parsed)
		pRows, err2 := pipeEng.Evaluate(parsed)
		switch {
		case err != nil:
			fail("meta-wcoj", "error: "+err.Error())
		case err2 != nil:
			fail("meta-wcoj", "error: "+err2.Error())
		case q.HasLimit:
			if len(wRows) != len(pRows) {
				fail("meta-wcoj", fmt.Sprintf("LIMIT: wcoj returned %d rows, pipeline %d", len(wRows), len(pRows)))
			}
		default:
			if diff := reference.DiffMultisets(pRows, wRows); diff != "" {
				fail("meta-wcoj", diff)
			}
		}
	}

	// Governance transparency: the same query under a generous deadline and
	// huge budgets must return exactly the untimed result — limits that
	// never trip may not alter what the engine computes. This also diffs the
	// gated (governed) worker inner loops against the ungated fast path.
	// LIMIT sits this out like the permutation check: truncation order is
	// not part of the contract.
	if !q.HasLimit {
		if rows, err := governedEvaluate(benchDS, parsed); err != nil {
			fail("meta-governed", "error: "+err.Error())
		} else if diff := reference.DiffMultisets(base, rows); diff != "" {
			fail("meta-governed", diff)
		}
	}

	// Snapshot round-trip, once per dataset: the reloaded store (indexes
	// rebuilt from the snapshot's tables) must answer identically. Under
	// LIMIT the morsel scheduler makes the surviving subset depend on which
	// worker claimed what first, so both sides run single-worker — the
	// scheduler drains morsels in deterministic dispatch order there.
	if checkSnapshot {
		want, threads := base, 2
		if q.HasLimit {
			threads = 1
			var err error
			want, err = benchDS.PARJRows("meta-snapshot-base", core.Options{Threads: 1, Strategy: core.AdaptiveBinary}, nil).Evaluate(parsed)
			if err != nil {
				fail("meta-snapshot", "error: "+err.Error())
				return fails
			}
		}
		if rows, err := snapshotEvaluate(benchDS, parsed, threads); err != nil {
			fail("meta-snapshot", "error: "+err.Error())
		} else if diff := reference.DiffMultisets(want, rows); diff != "" {
			fail("meta-snapshot", diff)
		}
	}
	return fails
}

// evalSrc renders, parses and evaluates q on eng.
func evalSrc(eng bench.RowEngine, q *Query) ([][]string, error) {
	parsed, err := sparql.Parse(q.Src())
	if err != nil {
		return nil, fmt.Errorf("parse %q: %w", q.Src(), err)
	}
	return eng.Evaluate(parsed)
}

// governedEvaluate runs parsed with a one-hour deadline, effectively
// unlimited budgets, and a tiny check interval, so the governed workers check in
// many times even on difftest-sized data.
func governedEvaluate(benchDS *bench.Dataset, parsed *sparql.Query) ([][]string, error) {
	st, ss := benchDS.Store()
	plan, err := optimizer.Optimize(parsed, st, ss)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	res, err := core.Execute(st, plan, core.Options{
		Threads: 2, Strategy: core.AdaptiveBinary,
		Context:       ctx,
		MaxResultRows: 1 << 40,
		MemoryBudget:  1 << 40,
		CheckInterval: 64,
	})
	if err != nil {
		return nil, err
	}
	return res.StringRows(st), nil
}

// snapshotEvaluate round-trips the PARJ store through Save/LoadSnapshot and
// evaluates parsed on the copy.
func snapshotEvaluate(benchDS *bench.Dataset, parsed *sparql.Query, threads int) ([][]string, error) {
	st, _ := benchDS.Store()
	var buf bytes.Buffer
	if err := st.Save(&buf); err != nil {
		return nil, fmt.Errorf("save snapshot: %w", err)
	}
	st2, err := store.LoadSnapshot(&buf)
	if err != nil {
		return nil, fmt.Errorf("load snapshot: %w", err)
	}
	plan, err := optimizer.Optimize(parsed, st2, stats.New(st2))
	if err != nil {
		return nil, err
	}
	res, err := core.Execute(st2, plan, core.Options{Threads: threads, Strategy: core.AdaptiveBinary})
	if err != nil {
		return nil, err
	}
	return res.StringRows(st2), nil
}

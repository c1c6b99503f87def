package bench

import (
	"math"
	"math/rand"
	"testing"

	"parj/internal/optimizer"
	"parj/internal/sparql"
)

// TestSkewZipfSampler checks the inverse-CDF sampler approximates the
// target Zipf mass: rank 0 should carry about 1/H(n) of the draws.
func TestSkewZipfSampler(t *testing.T) {
	const n, draws = 1000, 200_000
	z := newZipfSampler(n, 1.0)
	rng := rand.New(rand.NewSource(7))
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[z.Rank(rng)]++
	}
	h := 0.0
	for k := 1; k <= n; k++ {
		h += 1 / float64(k)
	}
	want := float64(draws) / h
	got := float64(counts[0])
	if math.Abs(got-want) > 0.1*want {
		t.Fatalf("rank-0 draws = %.0f, want ≈ %.0f (±10%%)", got, want)
	}
	if counts[0] <= counts[1] || counts[1] <= counts[10] {
		t.Fatalf("counts not decreasing in rank: c0=%d c1=%d c10=%d", counts[0], counts[1], counts[10])
	}
}

// TestSkewJoinOrder pins the property the experiment depends on: the
// optimizer must scan the Zipf-skewed <interest> relation first, keyed on
// the skewed subject — that is the relation whose sharding the scheduler
// experiment is about. If generator sizes drift and another relation wins
// the outer slot, the experiment silently stops measuring skew; this test
// makes that drift loud.
func TestSkewJoinOrder(t *testing.T) {
	d := NewDataset(SkewTriples(SkewConfig{}), 2)
	st, ss := d.Store()
	interest := st.Predicates.Lookup(skewInterest)
	if interest == 0 {
		t.Fatal("interest predicate not in dictionary")
	}
	for _, q := range SkewQueries() {
		parsed, err := sparql.Parse(q.SPARQL)
		if err != nil {
			t.Fatalf("%s: parse: %v", q.Name, err)
		}
		plan, err := optimizer.Optimize(parsed, st, ss)
		if err != nil {
			t.Fatalf("%s: optimize: %v", q.Name, err)
		}
		if len(plan.Patterns) == 0 {
			t.Fatalf("%s: empty plan", q.Name)
		}
		if got := plan.Patterns[0].PredID; got != interest {
			t.Fatalf("%s: first pattern predicate = %d, want <interest> (%d); join order %v",
				q.Name, got, interest, plan.Patterns)
		}
		if plan.Patterns[0].UseOS {
			t.Fatalf("%s: outer keyed on object (topics), want subject (skewed users)", q.Name)
		}
	}
}

// TestSkewEnginesAgree runs the A/B pair on the triangle query and checks
// the uncut and the cut engine produce the same count. Small config keeps
// it fast.
func TestSkewEnginesAgree(t *testing.T) {
	d := NewDataset(SkewTriples(SkewConfig{
		Users: 2000, Pages: 5000, Interests: 4000, Likes: 10_000, Topics: 64,
	}), 2)
	for _, q := range SkewQueries() {
		parsed, err := sparql.Parse(q.SPARQL)
		if err != nil {
			t.Fatalf("%s: parse: %v", q.Name, err)
		}
		var counts []int64
		for _, e := range SkewEngines(d) {
			n, _, err := e.Count(parsed)
			if err != nil {
				t.Fatalf("%s: %s: %v", q.Name, e.Name(), err)
			}
			counts = append(counts, n)
		}
		if counts[0] != counts[1] {
			t.Fatalf("%s: static count %d != morsel count %d", q.Name, counts[0], counts[1])
		}
		if counts[0] == 0 {
			t.Fatalf("%s: empty result — workload too sparse to exercise the join", q.Name)
		}
	}
}

// TestSkewImbalance verifies the generated layout actually skews static
// sharding: cutting the <interest> subject table into 8 equal key-count
// shards (what makeShards does for a variable-key first pattern), the
// heaviest shard must hold several times its fair share of the tuples.
func TestSkewImbalance(t *testing.T) {
	d := NewDataset(SkewTriples(SkewConfig{}), 2)
	st, _ := d.Store()
	interest := st.Predicates.Lookup(skewInterest)
	if interest == 0 {
		t.Fatal("interest predicate not in dictionary")
	}
	tbl := st.SO(interest)
	nkeys := tbl.NumKeys()
	per := (nkeys + SkewWorkers - 1) / SkewWorkers
	var max, total int
	for from := 0; from < nkeys; from += per {
		to := from + per
		if to > nkeys {
			to = nkeys
		}
		weight := int(tbl.Offs[to] - tbl.Offs[from])
		if weight > max {
			max = weight
		}
		total += weight
	}
	fair := total / SkewWorkers
	if max < 3*fair {
		t.Fatalf("heaviest static shard has %d of %d outer tuples (fair share %d) — dataset not skewed enough for the experiment",
			max, total, fair)
	}
}

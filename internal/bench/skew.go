package bench

// skew.go — a skewed social-graph workload for the scheduling experiment.
//
// The paper's evaluation datasets (LUBM, WatDiv) are near-uniform: every
// static shard of the first relation carries about the same work, so the
// one-shot sharding of §3 balances by construction. Real graphs are not
// like that — activity per vertex is Zipfian — and static sharding cuts
// the first relation by KEY count, so the shard holding the hub vertices
// carries most of the tuples while the other workers idle. This file
// generates such a workload and runs the same join under static sharding
// and under the morsel-driven work-stealing scheduler, A/B.

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"parj/internal/core"
	"parj/internal/rdf"
)

// SkewConfig sizes the skewed workload. The defaults produce ≈0.45M
// triples whose <interest> relation — the smallest, hence the optimizer's
// outer relation — has Zipf(s=1.0)-distributed tuples per subject: the
// top user holds thousands of interest edges while the median user holds
// a couple. Because user dictionary IDs are assigned in rank order, the
// hot subjects are adjacent in the sorted key array, so the first static
// shard (keys are split evenly, tuples are not) ends up with ≈80% of the
// outer tuples.
type SkewConfig struct {
	// Users is the number of subjects (Zipf-ranked).
	Users int
	// Pages is the object universe of <likes> and subject universe of <tag>.
	Pages int
	// Topics is the shared object universe of <interest> and <tag>.
	Topics int
	// Interests is the total number of ?u <interest> ?t edges, distributed
	// over users by Zipf rank. It is sized to keep <interest> the smallest
	// relation so the optimizer scans it first.
	Interests int
	// Likes is the number of ?u <likes> ?p edges, uniform over users.
	Likes int
	// TagsPerPage is the number of <tag> edges per referenced page.
	TagsPerPage int
	// S is the Zipf exponent (the acceptance experiment pins 1.0, which
	// math/rand's Zipf rejects — hence the sampler below).
	S float64
	// Seed drives the deterministic generator.
	Seed int64
}

func (c *SkewConfig) fill() {
	if c.Users <= 0 {
		c.Users = 20_000
	}
	if c.Pages <= 0 {
		c.Pages = 100_000
	}
	if c.Topics <= 0 {
		c.Topics = 8192
	}
	if c.Interests <= 0 {
		c.Interests = 40_000
	}
	if c.Likes <= 0 {
		c.Likes = 150_000
	}
	if c.TagsPerPage <= 0 {
		c.TagsPerPage = 5
	}
	if c.S <= 0 {
		c.S = 1.0
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// zipfSampler draws ranks with probability ∝ 1/(rank+1)^s by inverting the
// cumulative weight function. Unlike math/rand's Zipf it accepts any s > 0,
// including the s = 1.0 the experiment pins.
type zipfSampler struct {
	cdf []float64 // cumulative weights, cdf[n-1] = total mass
}

func newZipfSampler(n int, s float64) *zipfSampler {
	cdf := make([]float64, n)
	total := 0.0
	for k := 0; k < n; k++ {
		total += 1 / math.Pow(float64(k+1), s)
		cdf[k] = total
	}
	return &zipfSampler{cdf: cdf}
}

// Rank draws a rank in [0, n); rank 0 is the hottest.
func (z *zipfSampler) Rank(rng *rand.Rand) int {
	u := rng.Float64() * z.cdf[len(z.cdf)-1]
	return sort.SearchFloat64s(z.cdf, u)
}

// Skew IRI vocabulary.
const (
	skewLikes    = "<s:likes>"
	skewTag      = "<s:tag>"
	skewInterest = "<s:interest>"
)

func skewUser(i int) string  { return fmt.Sprintf("<s:u%d>", i) }
func skewPage(i int) string  { return fmt.Sprintf("<s:p%d>", i) }
func skewTopic(i int) string { return fmt.Sprintf("<s:t%d>", i) }

// SkewTriples generates the workload. Emission order matters: users are
// interned in rank order (hot users first, via their <interest> edges), so
// user dictionary IDs ascend with Zipf rank and the hot subjects cluster
// at the front of the sorted key array — the adversarial layout for static
// sharding, and the natural one for a store whose dictionary was filled by
// a crawler that met the hubs first.
func SkewTriples(cfg SkewConfig) []rdf.Triple {
	cfg.fill()
	rng := rand.New(rand.NewSource(cfg.Seed))
	var out []rdf.Triple

	// 1. Interests: Zipfian edge counts per user, emitted in rank order.
	z := newZipfSampler(cfg.Users, cfg.S)
	counts := make([]int, cfg.Users)
	for i := 0; i < cfg.Interests; i++ {
		counts[z.Rank(rng)]++
	}
	for u := 0; u < cfg.Users; u++ {
		for j := 0; j < counts[u]; j++ {
			out = append(out, rdf.Triple{
				S: skewUser(u), P: skewInterest, O: skewTopic(rng.Intn(cfg.Topics)),
			})
		}
	}

	// 2. Likes: uniform subjects over a wide page universe.
	used := make(map[int]bool)
	for i := 0; i < cfg.Likes; i++ {
		p := rng.Intn(cfg.Pages)
		used[p] = true
		out = append(out, rdf.Triple{
			S: skewUser(rng.Intn(cfg.Users)), P: skewLikes, O: skewPage(p),
		})
	}

	// 3. Tags: every referenced page carries a few topics (deterministic
	// iteration order for reproducibility).
	pages := make([]int, 0, len(used))
	for p := range used {
		pages = append(pages, p)
	}
	sort.Ints(pages)
	for _, p := range pages {
		for j := 0; j < cfg.TagsPerPage; j++ {
			out = append(out, rdf.Triple{
				S: skewPage(p), P: skewTag, O: skewTopic(rng.Intn(cfg.Topics)),
			})
		}
	}
	return out
}

// SkewQueries is the skewed workload: the triangle join (users × liked
// pages × shared topics) of the scheduling experiment, plus the plain
// two-pattern star over the same skewed outer. In both, the optimizer
// scans <interest> — the smallest relation — first, keyed on the Zipfian
// subject (pinned by TestSkewJoinOrder).
func SkewQueries() []NamedQuery {
	return []NamedQuery{
		{
			Name:  "TRI",
			Group: "Skew",
			SPARQL: "SELECT * WHERE { ?u " + skewLikes + " ?p . ?p " + skewTag + " ?t . ?u " +
				skewInterest + " ?t }",
		},
		{
			Name:   "STAR",
			Group:  "Skew",
			SPARQL: "SELECT * WHERE { ?u " + skewInterest + " ?t . ?u " + skewLikes + " ?p }",
		},
	}
}

// skewMorselSize is the morsel bound used by the skew experiment: small
// enough that a ~60K-tuple outer relation cuts into a few dozen morsels —
// plenty for 8 workers — and smaller than the hottest key's run, so the
// hot-key splitting path is exercised too.
const skewMorselSize = 2048

// SkewWorkers is the worker count of the skew experiment (the acceptance
// experiment pins 8; static vs morsel at equal worker count).
const SkewWorkers = 8

// SkewEngines returns the A/B pair: the paper's static sharding versus the
// morsel scheduler, same strategy and worker count. Static sharding is the
// engine with its shards left uncut — one morsel per worker, nothing to
// rebalance — and is always measured under MeasureShards, where the
// makespan of W uncut morsels on W workers is the slowest shard; on any
// host the Static-8 figure is therefore the simulated one, never a mix.
func SkewEngines(d *Dataset) []Engine {
	return []Engine{
		d.PARJ("Static-8", core.Options{Threads: SkewWorkers, Strategy: core.AdaptiveIndex,
			MorselSize: math.MaxInt32, MeasureShards: true}),
		d.PARJ("Morsel-8", core.Options{Threads: SkewWorkers, Strategy: core.AdaptiveIndex,
			MorselSize: skewMorselSize}),
	}
}

// Skew runs the scheduling experiment: the skewed joins under static
// sharding vs the morsel scheduler at 8 workers, with the morsel speedup
// noted per query.
func Skew(cfg ExpConfig) *Report {
	cfg.fill()
	sc := SkewConfig{}
	sc.fill()
	d := NewDataset(SkewTriples(sc), cfg.Threads)
	title := fmt.Sprintf("Skewed scheduling: Zipf(s=%.1f) outer, %d users × %d pages (%d triples), %d workers, times in ms",
		sc.S, sc.Users, sc.Pages, len(d.Triples), SkewWorkers)
	rep := timeGrid("skew", title, SkewQueries(), SkewEngines(d), false, cfg)
	rep.Params = map[string]string{
		"users":       fmt.Sprint(sc.Users),
		"pages":       fmt.Sprint(sc.Pages),
		"zipf_s":      fmt.Sprint(sc.S),
		"workers":     fmt.Sprint(SkewWorkers),
		"morsel_size": fmt.Sprint(skewMorselSize),
	}
	rep.noteSpeedups("Static-8", "Morsel-8")
	return rep
}

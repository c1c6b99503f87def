package main

import (
	"bytes"
	"testing"
	"time"

	"parj/internal/baseline/hashjoin"
	"parj/internal/sparql"
	"parj/internal/wal"
)

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n     int
		limit float64
		want  float64
	}{
		{5, 99.9, 50}, // too few for any tail: the median is all there is
		{20, 99.9, 50},
		{39, 99.9, 50},
		{40, 99.9, 75},
		{99, 99.9, 75},
		{100, 99.9, 90},
		{199, 99.9, 90},
		{200, 99.9, 95},
		{999, 99.9, 95},
		{1000, 99.9, 99},
		{9999, 99.9, 99},
		{10000, 99.9, 99.9},
		{10000, 90, 90}, // the workload's limit wins over a large sample
		{150, 99, 90},   // and the sample wins over the limit
	}
	for _, c := range cases {
		if got := tailPercentile(c.n, c.limit); got != c.want {
			t.Errorf("tailPercentile(%d, %v) = %v, want %v", c.n, c.limit, got, c.want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	var d []time.Duration
	for i := 1; i <= 100; i++ {
		d = append(d, time.Duration(i))
	}
	for p, want := range map[float64]time.Duration{50: 50, 90: 90, 99: 99, 99.9: 100, 100: 100} {
		if got := percentile(d, p); got != want {
			t.Errorf("p%v = %d, want %d", p, got, want)
		}
	}
	// Ten samples lie beyond the percentile the picker chooses for n = 100.
	if beyond := 100 - int(percentile(d, tailPercentile(100, 99.9))); beyond != 10 {
		t.Errorf("%d samples beyond the chosen tail, want 10", beyond)
	}
}

func TestSummarizeSharesOneTailAcrossTypes(t *testing.T) {
	many, few := &opSamples{name: "many"}, &opSamples{name: "few"}
	for i := 1; i <= 1000; i++ {
		many.d = append(many.d, time.Duration(i)*time.Millisecond)
	}
	for i := 1; i <= 100; i++ {
		few.d = append(few.d, time.Duration(i)*time.Millisecond)
	}
	sum := summarize([]*opSamples{many, few}, 99)
	if sum[0].TailPct != 90 || sum[1].TailPct != 90 {
		t.Fatalf("tail percentiles %v and %v, want 90 for both", sum[0].TailPct, sum[1].TailPct)
	}
	if sum[0].TailMs != 900 || sum[1].TailMs != 90 || sum[0].P50ms != 500 {
		t.Fatalf("unexpected summary %+v", sum)
	}
	if g := geomeanOf(sum, func(s opSummary) float64 { return s.TailMs }); g < 284.6 || g > 284.7 {
		t.Fatalf("geomean of 900 and 90 = %v", g)
	}
}

func TestGeneratorsRepeatPerSeedAndDifferAcrossSeeds(t *testing.T) {
	doc := func(seed int64) []byte {
		var all []byte
		lubmDoc, err := ntriples(lubmTriples(3, seed))
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, lubmDoc...)
		graph, err := ntriples(newCyclicGraph(300, 1500, 1.5, seed).triples())
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, graph...)
		for _, op := range append(lubmJoinOps(seed), lubmPointOps(lubmTriples(3, seed), seed)...) {
			for _, q := range op.queries {
				all = append(all, op.name+q.sparql...)
			}
		}
		courses := churnCourses(lubmTriples(3, seed), 8, seed)
		batches, err := ntriples(append(churnBatch(courses, seed, 5), durableBatch(seed, 1, 2, 4)...))
		if err != nil {
			t.Fatal(err)
		}
		return append(all, batches...)
	}
	a, again, b := doc(1), doc(1), doc(2)
	if !bytes.Equal(a, again) {
		t.Error("the same seed produced different inputs")
	}
	if bytes.Equal(a, b) {
		t.Error("different seeds produced the same inputs")
	}
}

func TestLubmBlockOrderKeepsEveryTriple(t *testing.T) {
	count := func(seed int64) map[string]int {
		m := make(map[string]int)
		for _, tr := range lubmTriples(4, seed) {
			m[tr.S+" "+tr.P+" "+tr.O]++
		}
		return m
	}
	a, b := count(1), count(2)
	if len(a) != len(b) {
		t.Fatalf("%d distinct triples under seed 1, %d under seed 2", len(a), len(b))
	}
	for k, n := range a {
		if b[k] != n {
			t.Fatalf("triple %s: %d times under seed 1, %d under seed 2", k, n, b[k])
		}
	}
}

// The cyclic workload's oracle is arithmetic on the generator's integers;
// check it against the hash-join baseline the other workloads use.
func TestClosedWalksMatchHashJoin(t *testing.T) {
	g := newCyclicGraph(200, 900, 1.5, 9)
	tri, cyc4 := g.closedWalks()
	if tri == 0 || cyc4 == 0 {
		t.Fatalf("degenerate graph: %d triangles, %d 4-cycles", tri, cyc4)
	}
	oracle := hashjoin.Load(g.triples())
	for i, op := range cyclicOps(tri, cyc4) {
		q, err := sparql.Parse(op.queries[0].sparql)
		if err != nil {
			t.Fatal(err)
		}
		got, err := oracle.Count(q)
		if err != nil {
			t.Fatal(err)
		}
		if got != op.queries[0].want {
			t.Errorf("query %d (%s): hash join counts %d, closed walks %d", i, op.name, got, op.queries[0].want)
		}
	}
}

func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	spans := []span{
		{Req: 1, ID: 1, Layer: rootLayer, Op: "q", Start: 0, End: 100},
		{Req: 1, ID: 2, Parent: 1, Layer: "a", Start: 10, End: 30},
		{Req: 1, ID: 3, Parent: 1, Layer: "b", Start: 20, End: 50},  // overlaps a
		{Req: 1, ID: 4, Parent: 1, Layer: "c", Start: 60, End: 120}, // clipped to the parent
		{Req: 1, ID: 5, Parent: 2, Layer: "a.inner", Start: 12, End: 18},
	}
	self := selfTimes(spans)
	want := map[uint64]time.Duration{
		1: 100 - (50 - 10) - (100 - 60), // covered: [10,50] and [60,100]
		2: 20 - 6,
		3: 30,
		4: 60,
		5: 6,
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
}

func TestProfileMediansAndWindow(t *testing.T) {
	var spans []span
	id := uint64(0)
	add := func(req uint64, op string, start, parse, exec int64) {
		id++
		root := id
		spans = append(spans, span{Req: req, ID: root, Layer: rootLayer, Op: op, Start: start, End: start + parse + exec + 2})
		id++
		spans = append(spans, span{Req: req, ID: id, Parent: root, Layer: "parse", Start: start + 1, End: start + 1 + parse})
		if exec > 0 {
			id++
			spans = append(spans, span{Req: req, ID: id, Parent: root, Layer: "exec", Start: start + 1 + parse, End: start + 1 + parse + exec})
		}
	}
	add(1, "q", 0, 5, 10)
	add(2, "q", 100, 7, 30)
	add(3, "q", 200, 9, 0) // never entered exec: counts as zero there
	add(4, "other", 300, 1, 1)

	p := profile(spans)["q"]
	if p == nil || p.N != 3 {
		t.Fatalf("profile of q: %+v", p)
	}
	if p.Self["parse"] != 7 || p.Self["exec"] != 10 || p.Root != 5+10+2 {
		t.Errorf("medians parse=%d exec=%d root=%d", p.Self["parse"], p.Self["exec"], p.Root)
	}
	late := profile(spansFrom(spans, 150))
	if late["q"].N != 1 || late["other"].N != 1 {
		t.Errorf("window kept %d q and %d other operations, want 1 and 1", late["q"].N, late["other"].N)
	}
}

func TestFloorFSCountsExactlyAndHoldsTheFloor(t *testing.T) {
	inner, err := wal.NewOSFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const floor = 2 * time.Millisecond
	fs := newFloorFS(inner, floor)
	f, err := fs.Create("seg")
	if err != nil {
		t.Fatal(err)
	}
	for _, chunk := range []string{"abc", "defgh", "i"} {
		if _, err := f.Write([]byte(chunk)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		start := time.Now()
		if err := f.Sync(); err != nil {
			t.Fatal(err)
		}
		if d := time.Since(start); d < floor {
			t.Errorf("fsync took %v, below the %v floor", d, floor)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := fs.SyncDir(); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < floor {
		t.Errorf("directory fsync took %v, below the %v floor", d, floor)
	}
	app, err := fs.OpenAppend("seg")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := app.Write([]byte("jk")); err != nil {
		t.Fatal(err)
	}
	if err := app.Close(); err != nil {
		t.Fatal(err)
	}
	got := fs.counters()
	if want := (fsCounters{syncs: 2, dirSyncs: 1, bytes: 11, writes: 4}); got != want {
		t.Errorf("counters %+v, want %+v", got, want)
	}
	if d := got.sub(fsCounters{syncs: 1, bytes: 3}); d.syncs != 1 || d.bytes != 8 {
		t.Errorf("counter difference %+v", d)
	}
}

package core

import (
	"reflect"
	"testing"

	"parj/internal/optimizer"
	"parj/internal/sparql"
)

func streamPlan(t *testing.T, f *fixture, src string) *optimizer.Plan {
	t.Helper()
	q, err := sparql.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := optimizer.Optimize(q, f.st, f.stats)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

func TestStreamMatchesExecute(t *testing.T) {
	f := universityFixture(t)
	for _, tq := range testQueries {
		q, err := sparql.Parse(tq.src)
		if err != nil {
			t.Fatal(err)
		}
		if q.Distinct || q.Limit > 0 {
			continue
		}
		plan, err := optimizer.Optimize(q, f.st, f.stats)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Execute(f.st, plan, Options{Threads: 4})
		if err != nil {
			t.Fatal(err)
		}
		for _, threads := range []int{1, 4} {
			var got [][]uint32
			n, err := ExecuteStream(f.st, plan, Options{Threads: threads}, func(row []uint32) bool {
				got = append(got, append([]uint32(nil), row...))
				return true
			})
			if err != nil {
				t.Fatalf("%s: %v", tq.name, err)
			}
			if n != want.Count || int64(len(got)) != want.Count {
				t.Errorf("%s (threads=%d): streamed %d rows, want %d", tq.name, threads, n, want.Count)
			}
			// Same multiset of rows.
			if !sameRowMultiset(got, want.Rows) {
				t.Errorf("%s (threads=%d): row multiset mismatch", tq.name, threads)
			}
		}
	}
}

func sameRowMultiset(a, b [][]uint32) bool {
	if len(a) != len(b) {
		return false
	}
	count := map[string]int{}
	key := func(r []uint32) string {
		buf := make([]byte, 0, len(r)*4)
		for _, v := range r {
			buf = append(buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
		}
		return string(buf)
	}
	for _, r := range a {
		count[key(r)]++
	}
	for _, r := range b {
		count[key(r)]--
	}
	for _, c := range count {
		if c != 0 {
			return false
		}
	}
	return true
}

func TestStreamEarlyCancel(t *testing.T) {
	f := universityFixture(t)
	plan := streamPlan(t, f, `SELECT ?x ?c WHERE { ?x <takesCourse> ?c }`)
	const stopAt = 5
	var got int
	n, err := ExecuteStream(f.st, plan, Options{Threads: 4}, func(row []uint32) bool {
		got++
		return got < stopAt
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != stopAt {
		t.Errorf("callback ran %d times, want %d", got, stopAt)
	}
	if n != stopAt-1 {
		t.Errorf("count = %d, want %d (rows delivered before cancel)", n, stopAt-1)
	}
}

func TestStreamRejectsDistinctAndLimit(t *testing.T) {
	f := universityFixture(t)
	for _, src := range []string{
		`SELECT DISTINCT ?x WHERE { ?x <teaches> ?c }`,
		`SELECT ?x WHERE { ?x <teaches> ?c } LIMIT 3`,
	} {
		plan := streamPlan(t, f, src)
		if _, err := ExecuteStream(f.st, plan, Options{}, func([]uint32) bool { return true }); err == nil {
			t.Errorf("%s: streaming accepted, want error", src)
		}
	}
}

func TestStreamEmptyAndConstantPlans(t *testing.T) {
	f := universityFixture(t)
	plan := streamPlan(t, f, `SELECT ?x WHERE { ?x <nosuchpred> ?y }`)
	n, err := ExecuteStream(f.st, plan, Options{}, func([]uint32) bool { return true })
	if err != nil || n != 0 {
		t.Errorf("empty plan: n=%d err=%v", n, err)
	}
	plan = streamPlan(t, f, `SELECT * WHERE { <prof0_0_0> <type> <Professor> }`)
	rows := 0
	n, err = ExecuteStream(f.st, plan, Options{}, func([]uint32) bool { rows++; return true })
	if err != nil || n != 1 || rows != 1 {
		t.Errorf("constant plan: n=%d rows=%d err=%v", n, rows, err)
	}
}

func TestStreamHugeResultBoundedMemory(t *testing.T) {
	// A cartesian-ish query with a large result must stream without
	// buffering everything: we can't measure memory directly in a unit
	// test, but we verify counts match silent execution.
	f := universityFixture(t)
	plan := streamPlan(t, f, `SELECT ?a ?b WHERE { ?a <takesCourse> ?c . ?b <takesCourse> ?c }`)
	silent, err := Execute(f.st, plan, Options{Threads: 4, Silent: true})
	if err != nil {
		t.Fatal(err)
	}
	var n int64
	streamed, err := ExecuteStream(f.st, plan, Options{Threads: 4}, func([]uint32) bool {
		n++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if streamed != silent.Count || n != silent.Count {
		t.Errorf("streamed %d (callback %d), silent count %d", streamed, n, silent.Count)
	}
}

func TestStreamRowContentsMatchDecode(t *testing.T) {
	f := universityFixture(t)
	plan := streamPlan(t, f, `SELECT ?x ?d WHERE { ?x <worksFor> ?d }`)
	res, err := Execute(f.st, plan, Options{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	var got [][]uint32
	if _, err := ExecuteStream(f.st, plan, Options{Threads: 1}, func(row []uint32) bool {
		got = append(got, append([]uint32(nil), row...))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	// Single thread: same order as buffered execution.
	if !reflect.DeepEqual(got, res.Rows) {
		t.Error("single-thread streamed rows differ from buffered rows")
	}
}

// countingTracer counts the memory accesses the probe kernels replay.
type countingTracer struct{ n int64 }

func (c *countingTracer) Access(uint64) { c.n++ }

// TestStreamHonoursMemTracer pins that a streamed query is traced exactly
// like a buffered one: on a single worker both walk the same probe sequence,
// so a counting tracer must see the same number of accesses either way.
func TestStreamHonoursMemTracer(t *testing.T) {
	f := universityFixture(t)
	plan := streamPlan(t, f, `SELECT ?s ?p ?d WHERE { ?s <advisor> ?p . ?p <worksFor> ?d }`)
	for _, strat := range []Strategy{AdaptiveBinary, BinaryOnly, IndexOnly, AdaptiveIndex} {
		var buffered, streamed countingTracer
		if _, err := Execute(f.st, plan, Options{Threads: 1, Strategy: strat, MemTracer: &buffered}); err != nil {
			t.Fatalf("%v: Execute: %v", strat, err)
		}
		if _, err := ExecuteStream(f.st, plan, Options{Threads: 1, Strategy: strat, MemTracer: &streamed},
			func([]uint32) bool { return true }); err != nil {
			t.Fatalf("%v: ExecuteStream: %v", strat, err)
		}
		if buffered.n == 0 || streamed.n != buffered.n {
			t.Errorf("%v: tracer saw %d accesses streamed, %d buffered", strat, streamed.n, buffered.n)
		}
	}
}

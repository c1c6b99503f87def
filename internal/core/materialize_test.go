package core

import (
	"math"
	"runtime"
	"testing"

	"parj/internal/lubm"
	"parj/internal/optimizer"
	"parj/internal/sparql"
	"parj/internal/stats"
	"parj/internal/store"
)

// TestMaterializeBytesPerRow bounds the bytes ExecuteShardRange allocates
// per row it hands out, on the endpoint benchmark's shape: LUBM 16, one
// shard of two at Threads 2, L7 (three columns) and L10 (two). A row costs
// its IDs once, in the chunk its worker wrote it into, and one 24-byte
// header in the result's row array; the rest is the query's fixed cost
// spread over some 20 000 rows. A header array that grows per row, in a
// worker or at the merge, costs several headers per row and fails here.
func TestMaterializeBytesPerRow(t *testing.T) {
	ceiling := map[string]float64{"L7": 42.7, "L10": 37.4}
	st := store.LoadTriples(lubm.Triples(16, lubm.Config{}), store.BuildOptions{})
	ss := stats.New(st)
	for _, nq := range lubm.Queries() {
		bar, ok := ceiling[nq.Name]
		if !ok {
			continue
		}
		q, err := sparql.Parse(nq.SPARQL)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := optimizer.Optimize(q, st, ss)
		if err != nil {
			t.Fatal(err)
		}
		// Other goroutines may allocate now and then; the smallest of
		// three readings is the query's own.
		least, rows := uint64(math.MaxUint64), int64(0)
		for i := 0; i < 3; i++ {
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			res, err := ExecuteShardRange(st, plan, Options{Threads: 2}, 0, 1)
			runtime.ReadMemStats(&m1)
			if err != nil {
				t.Fatal(err)
			}
			least, rows = min(least, m1.TotalAlloc-m0.TotalAlloc), res.Count
		}
		if rows < 1000 {
			t.Fatalf("%s: %d rows, too few to price a row", nq.Name, rows)
		}
		perRow := float64(least) / float64(rows)
		t.Logf("%s: %d rows, %.1f B/row (ceiling %.1f)", nq.Name, rows, perRow, bar)
		if perRow > bar {
			t.Errorf("%s: %.1f allocated B/row over %d rows, want ≤ %.1f", nq.Name, perRow, rows, bar)
		}
	}
}

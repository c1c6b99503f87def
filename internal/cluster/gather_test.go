package cluster

import (
	"context"
	"slices"
	"testing"

	"parj/internal/lubm"
	"parj/internal/testutil"
)

// loopbackCluster stands up two shard groups of one node each over the
// fixture's store and a coordinator over them, two threads per shard; stop
// closes all three.
func loopbackCluster(t *testing.T, f *fixture) (r *Remote, stop func()) {
	t.Helper()
	_, n0 := startNode(t, f)
	_, n1 := startNode(t, f)
	r, err := NewRemote(RemoteOptions{
		Replicas:        [][]string{{n0.URL}, {n1.URL}},
		ThreadsPerShard: 2,
	})
	if err != nil {
		n0.Close()
		n1.Close()
		t.Fatal(err)
	}
	return r, func() { r.Close(); n0.Close(); n1.Close() }
}

// TestRemoteZeroWidthRows: an all-constant BGP projects no column, so its
// row block is empty whatever the row count. The gather takes a shard's row
// count from its Count, not from the block, and must still hand out one
// empty row for a true pattern and none for a false one, under DISTINCT
// too.
func TestRemoteZeroWidthRows(t *testing.T) {
	defer testutil.LeakCheck(t)()
	f := lubmFixture(t)
	r, stop := loopbackCluster(t, f)
	defer stop()
	tr := lubm.Triples(2, lubm.Config{})[0]
	yes := `SELECT * WHERE { ` + tr.S + ` ` + tr.P + ` ` + tr.O + ` }`
	no := `SELECT * WHERE { ` + tr.S + ` ` + tr.P + ` ` + tr.S + ` }`
	for _, c := range []struct {
		src  string
		want int64
	}{
		{yes, 1},
		{no, 0},
		{`SELECT DISTINCT * WHERE { ` + tr.S + ` ` + tr.P + ` ` + tr.O + ` }`, 1},
	} {
		got, err := r.Execute(context.Background(), c.src, false)
		if err != nil {
			t.Fatalf("%s: %v", c.src, err)
		}
		if got.Count != c.want || int64(len(got.Rows)) != c.want {
			t.Fatalf("%s: count %d, %d rows; want %d of each", c.src, got.Count, len(got.Rows), c.want)
		}
		for i, row := range got.Rows {
			if row == nil || len(row) != 0 {
				t.Errorf("%s: row %d = %#v, want empty", c.src, i, row)
			}
		}
		if n, err := r.Count(context.Background(), c.src); err != nil || n != c.want {
			t.Errorf("%s: silent count %d, err %v; want %d", c.src, n, err, c.want)
		}
	}
}

// TestRemoteGatheredRowsAreDisjoint: the coordinator's rows are slices of
// the shards' decoded blocks, so writing or appending to one must not touch
// its neighbour, across a shard boundary too.
func TestRemoteGatheredRowsAreDisjoint(t *testing.T) {
	defer testutil.LeakCheck(t)()
	f := lubmFixture(t)
	r, stop := loopbackCluster(t, f)
	defer stop()
	got, err := r.Execute(context.Background(), qScanXY, false)
	if err != nil {
		t.Fatal(err)
	}
	if got.PerShard[0] == 0 || got.PerShard[1] == 0 {
		t.Fatalf("per-shard rows %v: need rows from both shards", got.PerShard)
	}
	want := make([][]uint32, len(got.Rows))
	for i, row := range got.Rows {
		want[i] = slices.Clone(row)
	}
	// Every other row, so that each written row, the ones at the shard
	// boundary too, sits between untouched ones.
	for i := 0; i < len(got.Rows); i += 2 {
		for k := range got.Rows[i] {
			got.Rows[i][k] = ^uint32(0)
		}
		_ = append(got.Rows[i], 77)
	}
	for i := 1; i < len(got.Rows); i += 2 {
		if !slices.Equal(got.Rows[i], want[i]) {
			t.Fatalf("row %d changed from %v to %v when its neighbours were written", i, want[i], got.Rows[i])
		}
	}
}

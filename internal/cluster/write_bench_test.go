package cluster

import (
	"context"
	"fmt"
	"net/http/httptest"
	"testing"

	"parj/internal/rdf"
	"parj/internal/remote"
	"parj/internal/store"
)

// Write-path micro benchmarks for a volatile coordinator (no log directory)
// over loopback replicas. They use only NewRemote, Write and Resync, so the
// same file runs against any version of the coordinator's replay log:
//
//	go test ./internal/cluster -run '^$' -bench 'BenchmarkRemote(Write|Resync)' -benchtime 2000x
//	go test ./internal/cluster -run '^$' -bench BenchmarkRemoteResync -benchtime 20x

// benchBatch is the write batch both benchmarks send: 16 inserts, each term
// distinct per batch so every batch grows the replicas' dictionaries.
func benchBatch(i int) []remote.Triple {
	ts := make([]remote.Triple, 16)
	for j := range ts {
		ts[j] = remote.Triple{S: fmt.Sprintf("<http://ex.org/s%d_%d>", i, j), P: "<http://ex.org/p>", O: fmt.Sprintf(`"value %d"`, j)}
	}
	return ts
}

// benchNode serves a replica at seq 0 over a small base store.
func benchNode() *httptest.Server {
	base := []rdf.Triple{{S: "<http://ex.org/a>", P: "<http://ex.org/p>", O: "<http://ex.org/b>"}}
	st := store.LoadTriples(base, store.BuildOptions{BuildPosIndex: true})
	return httptest.NewServer(remote.NewNode(st, nil, remote.NodeOptions{}).Handler())
}

// BenchmarkRemoteWrite prices one committed batch end to end: sequencing,
// the replay log append and retention, and the fan-out to two replicas.
func BenchmarkRemoteWrite(b *testing.B) {
	ctx := context.Background()
	srvA, srvB := benchNode(), benchNode()
	defer srvA.Close()
	defer srvB.Close()
	r, err := NewRemote(RemoteOptions{Replicas: [][]string{{srvA.URL, srvB.URL}}})
	if err != nil {
		b.Fatal(err)
	}
	defer r.Close()
	batches := make([][]remote.Triple, b.N)
	for i := range batches {
		batches[i] = benchBatch(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Write(ctx, batches[i], nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRemoteResync prices catching a replica at seq 0 up with a
// 1000-batch stream: reading the replay log and shipping every batch. Each
// iteration resyncs a fresh replica, built outside the timer.
func BenchmarkRemoteResync(b *testing.B) {
	const stream = 1000
	ctx := context.Background()
	srvA := benchNode()
	defer srvA.Close()
	r, err := NewRemote(RemoteOptions{Replicas: [][]string{{srvA.URL}}})
	if err != nil {
		b.Fatal(err)
	}
	defer r.Close()
	for i := 0; i < stream; i++ {
		if _, err := r.Write(ctx, benchBatch(i), nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		srv := benchNode()
		b.StartTimer()
		if err := r.Resync(ctx, srv.URL); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		srv.Close()
		b.StartTimer()
	}
}

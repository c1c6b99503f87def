package cluster_test

import (
	"context"
	"fmt"
	"log"
	"net/http/httptest"

	"parj/internal/cluster"
	"parj/internal/core"
	"parj/internal/lubm"
	"parj/internal/optimizer"
	"parj/internal/remote"
	"parj/internal/sparql"
	"parj/internal/stats"
	"parj/internal/store"
)

// The paper's §6 cluster extension: full replication, each node processes
// a disjoint range of shards, and no data crosses node boundaries until the
// final gather. Two replica nodes serve one LUBM store on loopback HTTP
// (the handler parj-server mounts); the coordinator's count equals a
// single-node run of every query, and PerShard shows each node's share.
func ExampleRemote() {
	st := store.LoadTriples(lubm.Triples(1, lubm.Config{}), store.BuildOptions{BuildPosIndex: true})
	ss := stats.New(st)

	// One replica group per node: group s serves shards [2s, 2s+2).
	replicas := make([][]string, 2)
	for s := range replicas {
		srv := httptest.NewServer(remote.NewNode(st, ss, remote.NodeOptions{}).Handler())
		defer srv.Close()
		replicas[s] = []string{srv.URL}
	}
	c, err := cluster.NewRemote(cluster.RemoteOptions{
		Replicas:        replicas,
		ThreadsPerShard: 2,
		Strategy:        core.AdaptiveIndex,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()

	for _, q := range lubm.Queries() {
		parsed, err := sparql.Parse(q.SPARQL)
		if err != nil {
			log.Fatal(err)
		}
		plan, err := optimizer.Optimize(parsed, st, ss)
		if err != nil {
			log.Fatal(err)
		}
		single, err := core.Execute(st, plan, core.Options{Threads: 2, Silent: true})
		if err != nil {
			log.Fatal(err)
		}
		res, err := c.Execute(context.Background(), q.SPARQL, true)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-4s cluster=%6d single=%6d equal=%v per-node=%v\n",
			q.Name, res.Count, single.Count, res.Count == single.Count, res.PerShard)
	}
	// Output:
	// L1   cluster=   147 single=   147 equal=true per-node=[81 66]
	// L2   cluster=   240 single=   240 equal=true per-node=[120 120]
	// L3   cluster=   240 single=   240 equal=true per-node=[120 120]
	// L4   cluster=     3 single=     3 equal=true per-node=[3 0]
	// L5   cluster=    40 single=    40 equal=true per-node=[0 40]
	// L6   cluster=    12 single=    12 equal=true per-node=[7 5]
	// L7   cluster=  2554 single=  2554 equal=true per-node=[1709 845]
	// L8   cluster=   240 single=   240 equal=true per-node=[120 120]
	// L9   cluster=    43 single=    43 equal=true per-node=[23 20]
	// L10  cluster=  2554 single=  2554 equal=true per-node=[1304 1250]
}

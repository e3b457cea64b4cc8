// Social-network similarity: PPSD queries on a weighted scale-free graph —
// the paper's "similarity analysis on biological and social networks"
// workload. Shows why the Hybrid algorithm exists: on scale-free
// topologies pure PLaNT pays a large exploration overhead on the fringe
// (high Ψ), while Hybrid switches to DGLL and wins (§5.2.1, §7.3).
//
// Run with: go run ./examples/socialdistance
package main

import (
	"fmt"
	"log"
	"time"

	chl "repro"
)

func main() {
	// A scale-free "social network": preferential attachment, weights
	// uniform in [1, √n) as in §7.1.1; degree ranking puts the celebrity
	// core on top of the hierarchy.
	g := chl.GenerateScaleFree(4096, 4, 11)
	ord := chl.RankByDegree(g)
	fmt.Printf("social network: %d users, %d ties\n", g.NumVertices(), g.NumEdges())

	// Build with the distributed Hybrid algorithm on a simulated 8-node
	// cluster: PLaNT for the label-rich core trees, DGLL for the fringe.
	ix, err := chl.Build(g, chl.Options{
		Algorithm:    chl.AlgoHybrid,
		Order:        ord,
		Nodes:        8,
		PsiThreshold: 100, // §7.1: Ψth = 100 for scale-free networks
		Eta:          16,  // §7.1's 16-hub table; the default lets it grow, and then Ψ never trips
	})
	if err != nil {
		log.Fatal(err)
	}
	m := ix.Metrics()
	fmt.Printf("Hybrid on %d nodes: ALS %.1f, %d bytes of label traffic, %d syncs\n",
		m.Nodes, ix.Stats().ALS, m.BytesSent, m.Synchronizations)
	if m.SwitchedAtTree >= 0 {
		fmt.Printf("  PLaNTed the first %d trees, then switched to DGLL (Ψ > 100)\n", m.SwitchedAtTree)
	} else {
		fmt.Println("  never switched: PLaNT stayed efficient throughout")
	}

	// "Degrees of separation" in weighted terms between random user pairs.
	celebrities := ord.Perm[:3]
	fmt.Println("most connected users:", celebrities)
	for _, pair := range [][2]int{{100, 4000}, {1, 4095}, {2048, 2049}} {
		d, hub, ok := ix.QueryHub(pair[0], pair[1])
		if !ok {
			fmt.Printf("users %d and %d are not connected\n", pair[0], pair[1])
			continue
		}
		fmt.Printf("similarity distance(%d, %d) = %g — connected through user %d\n",
			pair[0], pair[1], d, hub)
	}

	// Serving: freeze the labels into the flat store and answer a batch
	// in parallel on this machine's cores — every answer the build's own.
	fx, err := ix.Freeze()
	if err != nil {
		log.Fatal(err)
	}
	pairs := make([]chl.QueryPair, 50_000)
	for i := range pairs {
		pairs[i] = chl.QueryPair{U: (i * 37) % 4096, V: (i * 101) % 4096}
	}
	start := time.Now()
	dists := chl.NewBatchEngineFlat(fx).Batch(pairs)
	elapsed := time.Since(start)
	for i, p := range pairs {
		if dists[i] != ix.Query(p.U, p.V) {
			log.Fatalf("batch answer %d: d(%d, %d) = %g, the build says %g", i, p.U, p.V, dists[i], ix.Query(p.U, p.V))
		}
	}
	fmt.Printf("frozen batch: %d queries in %v (wall clock), all equal to the build's\n", len(pairs), elapsed)
}

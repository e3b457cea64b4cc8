// Road navigation: the paper's motivating route-planning workload. Builds
// the CHL for a road network, times hub-label route queries, and
// demonstrates that PLaNT alone is both scalable and efficient on
// high-diameter road topologies (§7.3 "Graph Topologies").
//
// Run with: go run ./examples/roadnavigation
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	chl "repro"
)

func main() {
	// A city-scale road grid with betweenness ranking — highways (high
	// betweenness) become the top hubs, mirroring how a good network
	// hierarchy ranks "highways vs residential streets" (§1).
	g := chl.GenerateRoadGrid(96, 96, 7)
	ord := chl.RankByBetweenness(g, 16, 7)
	fmt.Printf("road network: %d intersections, %d segments\n", g.NumVertices(), g.NumEdges())

	// On road networks PLaNT needs no distance queries at all and its
	// trees terminate early — build the CHL with it directly.
	start := time.Now()
	ix, err := chl.Build(g, chl.Options{Algorithm: chl.AlgoPLaNT, Order: ord})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("PLaNT built the CHL in %v: ALS %.1f\n", time.Since(start), ix.Stats().ALS)
	m := ix.Metrics()
	fmt.Printf("  %d trees, %d vertices explored, %d distance queries (PLaNT uses none)\n",
		m.Trees, m.VerticesExplored, m.DistanceQueries)

	// Route queries: a navigation frontend fires thousands per second.
	rng := rand.New(rand.NewSource(9))
	n := g.NumVertices()
	const routes = 200_000
	pairs := make([][2]int, routes)
	for i := range pairs {
		pairs[i] = [2]int{rng.Intn(n), rng.Intn(n)}
	}
	start = time.Now()
	var checksum float64
	for _, p := range pairs {
		checksum += ix.Query(p[0], p[1])
	}
	elapsed := time.Since(start)
	fmt.Printf("%d route queries in %v (%.2f Mq/s, checksum %.0f)\n",
		routes, elapsed, float64(routes)/elapsed.Seconds()/1e6, checksum)

	// The top-ranked hubs are the network's "highways": the label of any
	// vertex starts with them.
	fmt.Println("top 5 hubs by hierarchy:", ord.Perm[:5])
	labels := ix.Labels(0)
	fmt.Printf("vertex 0 carries %d labels; its most important hubs: ", len(labels))
	for i := 0; i < 5 && i < len(labels); i++ {
		fmt.Printf("%d(d=%g) ", labels[i].Hub, labels[i].Dist)
	}
	fmt.Println()
}

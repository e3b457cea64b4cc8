// Quickstart: build a Canonical Hub Labeling for a small road network and
// answer shortest-distance queries with it.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	chl "repro"
)

func main() {
	// A 64×64 road-like grid: ~4k intersections, ~9k road segments with
	// travel-time weights.
	g := chl.GenerateRoadGrid(64, 64, 42)
	fmt.Printf("road network: %d vertices, %d edges\n", g.NumVertices(), g.NumEdges())

	// Build the CHL with GLL — the paper's best shared-memory algorithm.
	// The ranking (network hierarchy) is picked automatically: sampled
	// betweenness for road-like topologies.
	ix, err := chl.Build(g, chl.Options{Algorithm: chl.AlgoGLL})
	if err != nil {
		log.Fatal(err)
	}
	st := ix.Stats()
	fmt.Printf("index: %d labels, %.1f per vertex (%.2f MiB)\n",
		st.TotalLabels, st.ALS, float64(st.Bytes)/(1<<20))

	// Point-to-point shortest distance queries are two sorted-list merges.
	for _, q := range [][2]int{{0, 4095}, {17, 3942}, {100, 200}} {
		d, hub, _ := ix.QueryHub(q[0], q[1])
		fmt.Printf("d(%d, %d) = %g   (shortest path passes through hub %d)\n",
			q[0], q[1], d, hub)
	}

	// Freeze packs the labels into the one index file format; any number
	// of serving processes then open it, memory-mapped where the host
	// allows.
	fx, err := ix.Freeze()
	if err != nil {
		log.Fatal(err)
	}
	path := filepath.Join(os.TempDir(), "quickstart.flat")
	if err := fx.SaveFile(path); err != nil {
		log.Fatal(err)
	}
	back, err := chl.OpenFlat(path)
	if err != nil {
		log.Fatal(err)
	}
	defer back.Close()
	fmt.Printf("reopened index answers d(0, 4095) = %g\n", back.Query(0, 4095))
}

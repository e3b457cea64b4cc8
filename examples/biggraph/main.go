// Big-graph processing: the paper's P2 objective — construct a labeling
// whose size exceeds what any single node may store, by partitioning labels
// across a cluster (§5.1 "Label Set Partitioning"). Querying the
// partitioned labels without assembling them (the paper's QFDL mode) is
// modelled, beside QLSN and QDOL, by `go run ./cmd/experiments -only table4`.
//
// Run with: go run ./examples/biggraph
package main

import (
	"errors"
	"fmt"
	"log"

	chl "repro"
)

func main() {
	g := chl.GenerateScaleFree(6144, 6, 3)
	fmt.Printf("graph: %d vertices, %d edges\n", g.NumVertices(), g.NumEdges())

	// First measure the labeling's true size with an unconstrained build.
	free, err := chl.Build(g, chl.Options{Algorithm: chl.AlgoDPLaNT, Nodes: 4})
	if err != nil {
		log.Fatal(err)
	}
	labelBytes := free.Stats().Bytes
	fmt.Printf("full labeling: %.2f MiB\n", float64(labelBytes)/(1<<20))

	// Simulate nodes whose memory holds only half the labeling (plus the
	// graph). DparaPLL replicates all labels on every node — it cannot
	// process this graph, just like the paper's Figure 8 OOM entries.
	limit := labelBytes/2 + 1
	_, err = chl.Build(g, chl.Options{Algorithm: chl.AlgoDParaPLL, Nodes: 8, MemoryLimitBytes: limit})
	if errors.Is(err, chl.ErrOutOfMemory) {
		fmt.Printf("DparaPLL with %.2f MiB/node: out of memory (labels are replicated)\n",
			float64(limit)/(1<<20))
	} else if err != nil {
		log.Fatal(err)
	} else {
		fmt.Println("unexpected: DparaPLL fit — raise the graph size")
	}

	// PLaNT partitions labels by generating node: 8 nodes with the same
	// budget build the index collaboratively ("effective memory scales in
	// proportion to the number of nodes", §5.1).
	ix, err := chl.Build(g, chl.Options{Algorithm: chl.AlgoDPLaNT, Nodes: 8, MemoryLimitBytes: limit})
	if err != nil {
		log.Fatal(err)
	}
	m := ix.Metrics()
	fmt.Printf("PLaNT with the same budget: built %.2f MiB of labels, peak node storage %.2f MiB\n",
		float64(ix.Stats().Bytes)/(1<<20), float64(m.MaxNodeBytes)/(1<<20))
}

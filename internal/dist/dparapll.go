package dist

import (
	"repro/internal/cluster"
	"repro/internal/graph"
	"repro/internal/label"
)

// DParaPLL runs the distributed paraPLL baseline (§3): every node builds
// pruned SPTs for its round-robin share of each superstep's roots, pruning
// only by distance queries against the replicated global table and its own
// in-progress local labels — no rank queries, no cleaning. Each superstep
// ends with an AllGather that replicates the new labels on every node.
//
// A node claims its roots in rank order and hashes each root's labels
// before the next claim (ptree.Forest), so a tree is pruned only through
// hubs that outrank its root and the output holds the CHL. Labels generated
// concurrently on different nodes cannot prune each other, so redundant
// labels grow with q (Figure 9), and because every node stores the whole
// (inflated) labeling the per-node memory is what trips
// Options.MemoryLimitBytes first (Figure 8's OOM rows).
func DParaPLL(g *graph.Graph, o Options) (*Result, error) {
	r := newRun("DparaPLL", g, o)
	bounds := schedule(0, r.n)
	return r.result(r.exec(func(nd *cluster.Node, c *perNodeCounters) []label.Set {
		return r.dgllSupersteps(nd, make([]label.Set, r.n), bounds, false, c)
	}))
}

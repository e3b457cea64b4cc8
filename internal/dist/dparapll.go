package dist

import (
	"time"

	"repro/internal/cluster"
	"repro/internal/graph"
	"repro/internal/label"
	"repro/internal/metrics"
)

// DParaPLL runs the distributed paraPLL baseline (§3): every node builds
// pruned SPTs for its round-robin share of each superstep's roots, pruning
// only by distance queries against the replicated global table and its own
// in-progress local labels — no rank queries, no cleaning. Each superstep
// ends with an AllGather that replicates the new labels on every node.
//
// Labels generated concurrently on different nodes cannot prune each
// other, so the output satisfies the cover property but grows with q
// (Figure 9), and because every node stores the whole (inflated) labeling
// the per-node memory is what trips Options.MemoryLimitBytes first
// (Figure 8's OOM rows).
func DParaPLL(g *graph.Graph, o Options) (*Result, error) {
	o = o.normalize()
	n := guard(g)
	m := &metrics.Build{Algorithm: "DparaPLL", Workers: o.WorkersPerNode, Nodes: o.Nodes, Trees: int64(n)}

	cl := cluster.New(o.Nodes)
	counters := make([]perNodeCounters, o.Nodes)
	rootOwner := make([]int32, n)
	var finalSets []label.Set
	oom := false
	bounds := schedule(0, n, o.Beta, o.Supersteps)

	start := time.Now()
	st := cl.Run(func(nd *cluster.Node) {
		c := &counters[nd.Rank()]
		global := make([]label.Set, n)
		if !dgllSupersteps(nd, g, global, bounds, o, false, rootOwner, c) {
			if nd.Rank() == 0 {
				oom = true
			}
			return
		}
		if nd.Rank() == 0 {
			finalSets = global
		}
	})
	m.TotalTime = time.Since(start)
	m.ConstructTime = m.TotalTime
	m.BytesSent = st.BytesSent
	m.MessagesSent = st.MessagesSent
	m.Synchronizations = st.Barriers
	fold(m, counters)
	if oom {
		return nil, ErrOutOfMemory
	}
	ix := label.FromSets(finalSets)
	m.Labels = ix.TotalLabels()
	return &Result{Index: ix, PerNode: assemble(ix, rootOwner, o.Nodes), Metrics: m}, nil
}

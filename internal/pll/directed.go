package pll

import (
	"repro/internal/graph"
	"repro/internal/label"
	"repro/internal/metrics"
	"repro/internal/ptree"
)

// SequentialDirected runs sequential pruned landmark labeling on a directed
// graph, producing forward and backward label sets (footnote 1 of the
// paper: "all labeling approaches described here can be easily extended to
// directed graphs by using forward and backward labels for each vertex").
//
// Forward labels Lout(u) hold hubs reachable FROM u with d(u→h); backward
// labels Lin(v) hold hubs that REACH v with d(h→v). A query u→v joins
// Lout(u) with Lin(v). For every root h in rank order two pruned Dijkstras
// run: a forward one over G inserting (h, d(h→v)) into Lin(v) — pruned by
// joining the snapshot of Lout(h) against Lin(v) — and a backward one over
// Gᵀ inserting (h, d(u→h)) into Lout(u), pruned symmetrically.
func SequentialDirected(g *graph.Graph, opts Options) (*label.DirectedIndex, *metrics.Build) {
	opts = opts.normalize()
	n := g.NumVertices()
	lout := label.NewIndex(n, g.WeightUnitExp()) // forward labels, d(v→h)
	lin := label.NewIndex(n, g.WeightUnitExp())  // backward labels, d(h→v)
	gt := g.Transpose()
	m := sequential("seqPLL-directed", n, opts, func(s *ptree.Scratch, h int) ptree.Stats {
		// Forward tree: distances d(h→v); prune via Lout(h) ⋈ Lin(v).
		st := tree(g, s, lout.Labels(h), lin, h, opts.PruneHubBound)
		// Backward tree: distances d(u→h); prune via Lin(h) ⋈ Lout(u).
		st.Add(tree(gt, s, lin.Labels(h), lout, h, opts.PruneHubBound))
		return st
	})
	m.Trees = 2 * int64(n)
	return &label.DirectedIndex{Forward: lout, Backward: lin}, m
}

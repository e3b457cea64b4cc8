package pll

import (
	"repro/internal/graph"
	"repro/internal/label"
	"repro/internal/metrics"
	"repro/internal/ptree"
)

// SequentialWithPaths runs sequential PLL recording, for every label, the
// labeled vertex's parent in the hub's shortest path tree — the §5.4
// extension that upgrades distance queries to full shortest-path retrieval.
// Parent chains only traverse labeled vertices: a pruned vertex never
// relaxes its edges, so every tree path to a labeled vertex passes through
// labeled vertices exclusively, and the canonical max-rank property is
// closed under subpaths.
func SequentialWithPaths(g *graph.Graph, opts Options) (*label.PathIndex, *metrics.Build) {
	opts = opts.normalize()
	n := g.NumVertices()
	ix := label.NewIndex(n, g.WeightUnitExp())
	px := label.NewPathIndex(ix)
	parents := make([][]uint32, n) // built per vertex in hub order
	parent := make([]int32, n)
	m := sequential("seqPLL+paths", n, opts, func(s *ptree.Scratch, h int) ptree.Stats {
		parent[h] = int32(h)
		st := tree(g, s, ix.Labels(h), ix, h, opts.PruneHubBound, parent)
		// A popped vertex's distance, hence its parent, is final; the ones
		// this tree labeled are the touched ones whose last label is h's.
		for _, v := range s.Dirty {
			if lv := ix.Labels(int(v)); len(lv) > 0 && label.Hub(lv[len(lv)-1]) == uint32(h) {
				parents[v] = append(parents[v], uint32(parent[v]))
			}
		}
		return st
	})
	for v := 0; v < n; v++ {
		px.SetParents(v, parents[v])
	}
	m.Trees = int64(n)
	return px, m
}

package sssp

import (
	"repro/internal/graph"
)

// DeltaStepping computes single-source shortest paths with the
// delta-stepping bucket algorithm — one of the "state-of-the-art traversal
// algorithms" the paper's introduction compares hub labeling against
// (Meyer & Sanders; the paper cites its parallel descendants [8,11,18,20]).
// It is the package's bucket search with buckets delta wide; delta ≤ 0
// picks a heuristic width (max edge weight / average degree, the standard
// choice). Distances are exact, and equal Dijkstra's, at any width.
//
// It exists here as a query-time baseline: internal/exp measures how many
// microseconds a traversal-based PPSD query costs versus a label
// merge-join.
func DeltaStepping(g *graph.Graph, source int, delta float64) []float64 {
	n := g.NumVertices()
	dist := make([]float64, n)
	if n == 0 {
		return dist
	}
	if delta <= 0 {
		avgDeg := max(float64(g.NumArcs())/float64(n), 1)
		delta = g.MaxWeight() / avgDeg
		if delta <= 0 {
			delta = 1
		}
	}
	s := getScratch(n)
	s.search(g, source, -1, delta, dist, nil)
	putScratch(s)
	return dist
}

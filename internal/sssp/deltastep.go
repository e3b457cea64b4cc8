package sssp

import (
	"math"

	"repro/internal/graph"
)

// DeltaStepping computes single-source shortest paths with the
// delta-stepping bucket algorithm — one of the "state-of-the-art traversal
// algorithms" the paper's introduction compares hub labeling against
// (Meyer & Sanders; the paper cites its parallel descendants [8,11,18,20]).
// It is the package's bucket search with buckets at most delta wide: the
// largest power of two units not above delta or the lightest arc, the
// regime in which every bucket settles in one pass. delta ≤ 0 picks the
// standard heuristic width, max edge weight / average degree. Distances
// are exact, and equal Dijkstra's, at any width.
//
// It exists here as a query-time baseline: internal/exp measures how many
// microseconds a traversal-based PPSD query costs versus a label
// merge-join.
func DeltaStepping(g *graph.Graph, source int, delta float64) []float64 {
	n := g.NumVertices()
	if n == 0 {
		return []float64{}
	}
	if delta <= 0 {
		delta = g.MaxWeight() / max(float64(g.NumArcs())/float64(n), 1)
	}
	width := g.MinUnits()
	if units := math.Ldexp(delta, g.WeightUnitExp()); units < float64(width) {
		width = uint32(max(units, 1))
	}
	return row(g, source, width, nil)
}

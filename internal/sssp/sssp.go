// Package sssp provides the reference shortest path searches: Dijkstra,
// the plain row every labeling is verified against, and DijkstraTo, the
// search that stops at its target (UnitsTo hands its distances, in units,
// to the /paths walk where no labels describe the graph). DijkstraTo is
// the one point-to-point traversal here: the baseline the paper's
// introduction compares hub labeling to (internal/exp's intro table) and
// the overlay's fallback (internal/delta).
//
// Every search runs in the graph's integer units (internal/graph) and
// returns float64 distances only at the edge: Dijkstra's rows and
// DijkstraTo's answer are graph.FromUnits of exact sums.
//
// Both share one bucket search (bucket.go) on vheap.Window, the
// bucket queue PLaNT's trees settle from too: buckets a power of two units
// wide, never wider than the lightest arc, so every vertex is final when
// its bucket is reached and each bucket drains in one pass. The window
// parks a distance beyond its end on its vheap.Heap until it reaches it.
package sssp

import (
	"sync"

	"repro/internal/graph"
	"repro/internal/vheap"
)

// scratch is a bucket window, with the heap it parks its far distances on,
// and a distance buffer, kept between calls so that a search on a sparse
// graph does not spend its time allocating and zeroing them. One serves
// any graph of at most len(dist) vertices.
type scratch struct {
	w    *vheap.Window
	dist []uint64
}

var scratchPool sync.Pool

// getScratch returns a cleared scratch for a graph of n vertices.
func getScratch(n int) *scratch {
	if s, ok := scratchPool.Get().(*scratch); ok && len(s.dist) >= n {
		return s
	}
	return &scratch{w: vheap.NewWindow(vheap.New(n)), dist: make([]uint64, n)}
}

func putScratch(s *scratch) {
	s.w.Clear()
	scratchPool.Put(s)
}

// Dijkstra computes shortest-path distances from source over g (following
// outgoing arcs) and returns the distance array; unreachable vertices get
// graph.Infinity. The array is the caller's.
func Dijkstra(g *graph.Graph, source int) []float64 {
	s := getScratch(g.NumVertices())
	dist := s.dist[:g.NumVertices()]
	s.search(g, source, -1, dist)
	row := make([]float64, len(dist))
	for v, d := range dist {
		row[v] = g.FromUnits(d)
	}
	putScratch(s)
	return row
}

// DijkstraTo returns the shortest-path distance from s to t, stopping as
// soon as t's distance is final: the same float as Dijkstra(g, s)[t],
// graph.Infinity if t is unreachable. It allocates nothing once a scratch
// is pooled.
func DijkstraTo(g *graph.Graph, s, t int) float64 {
	var d uint64
	UnitsTo(g, s, t, func(du []uint64) { d = du[t] })
	return g.FromUnits(d)
}

// UnitsTo searches from s until t is final and calls f with the distances
// it holds, in g's units: every entry at most du[t] is d(s,·) exactly, and
// every other one an upper bound or graph.Unreached. Each such entry lies
// in a bucket the search has drained, where every vertex is final. du is
// the search's own buffer, valid only until f returns.
func UnitsTo(g *graph.Graph, s, t int, f func(du []uint64)) {
	sc := getScratch(g.NumVertices())
	dist := sc.dist[:g.NumVertices()]
	sc.search(g, s, t, dist)
	f(dist)
	putScratch(sc)
}

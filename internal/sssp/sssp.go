// Package sssp provides reference single-source shortest path routines:
// plain Dijkstra (the gold standard every labeling is verified against,
// with predecessors where a path is wanted), a Dijkstra variant that also
// computes the maximum-rank vertex on any shortest path (the quantity
// Canonical Hub Labeling is defined by), and a bidirectional point-to-point
// Dijkstra, the traversal baseline the paper's introduction compares hub
// labeling to.
//
// Every search runs in the graph's integer units (internal/graph) and
// returns float64 distances only at the edge: the rows of Dijkstra and
// ShortestPathTree and the answers of DijkstraTo and PointToPoint are
// graph.FromUnits of exact sums.
//
// Dijkstra, DijkstraTo and ShortestPathTree share one bucket search
// (bucket.go) on vheap.Window, the bucket queue PLaNT's trees settle
// from too: buckets a power of two units wide, never wider than the
// lightest arc, so every vertex is final when its bucket is reached and
// each bucket drains in one pass. The window parks a distance beyond its
// end on its vheap.Heap until it reaches it.
//
// PointToPoint stays on the heap alone: it stops on the sum of the two
// frontiers' minima, which it reads with Peek.
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
func Dijkstra(g *graph.Graph, source int) []float64 { return row(g, source, nil) }

// row runs the search from source and returns its distances as a row.
func row(g *graph.Graph, source int, pred []int) []float64 {
	s := getScratch(g.NumVertices())
	dist := s.dist[:g.NumVertices()]
	s.search(g, source, -1, dist, pred)
	row := make([]float64, len(dist))
	for v, d := range dist {
		row[v] = g.FromUnits(d)
	}
	putScratch(s)
	return row
}

// ShortestPathTree is Dijkstra that also returns, for every vertex reached
// from source but source itself, its predecessor on a shortest path (-1
// elsewhere). Walking pred back from v and summing the arc weights from
// source onwards reproduces dist[v] exactly.
func ShortestPathTree(g *graph.Graph, source int) (dist []float64, pred []int) {
	pred = make([]int, g.NumVertices())
	for i := range pred {
		pred[i] = -1
	}
	return row(g, source, pred), pred
}

// DijkstraTo returns the shortest-path distance from s to t, stopping as
// soon as t's distance is final: the same float as Dijkstra(g, s)[t]. It
// allocates nothing once a scratch is pooled.
func DijkstraTo(g *graph.Graph, s, t int) float64 {
	sc := getScratch(g.NumVertices())
	dist := sc.dist[:g.NumVertices()]
	sc.search(g, s, t, dist, nil)
	d := dist[t]
	putScratch(sc)
	return g.FromUnits(d)
}

// PointToPoint runs bidirectional Dijkstra between s and t and returns the
// shortest-path distance, or graph.Infinity if t is unreachable from s. It
// is the "traversal algorithm" baseline of the paper's introduction: correct
// but orders of magnitude slower per query than a hub labeling lookup.
func PointToPoint(g *graph.Graph, s, t int) float64 {
	if s == t {
		return 0
	}
	n := g.NumVertices()
	gt := g.Transpose()

	distF := make(map[int]uint64, 64)
	distB := make(map[int]uint64, 64)
	hf := vheap.New(n)
	hb := vheap.New(n)
	hf.Push(s, 0)
	hb.Push(t, 0)
	distF[s] = 0
	distB[t] = 0
	bestMu := uint64(graph.Unreached)

	// A popped vertex is settled: the heap returns it once, so no done set
	// is needed to skip it.
	relax := func(dir *graph.Graph, h *vheap.Heap, dist, otherDist map[int]uint64) {
		u, du := h.Pop()
		if db, ok := otherDist[u]; ok && du+db < bestMu {
			bestMu = du + db
		}
		heads, wts := dir.Neighbors(u)
		for i, v := range heads {
			nd := du + uint64(wts[i])
			if old, ok := dist[int(v)]; !ok || nd < old {
				dist[int(v)] = nd
				h.Push(int(v), nd)
			}
		}
	}

	for !hf.Empty() && !hb.Empty() {
		_, kf := hf.Peek()
		_, kb := hb.Peek()
		if kf+kb >= bestMu {
			break
		}
		if kf <= kb {
			relax(g, hf, distF, distB)
		} else {
			relax(gt, hb, distB, distF)
		}
	}
	return g.FromUnits(bestMu)
}

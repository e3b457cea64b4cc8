// Package sssp provides reference single-source shortest path routines:
// plain Dijkstra (the gold standard every labeling is verified against,
// with predecessors where a path is wanted), a Dijkstra variant that also
// computes the maximum-rank vertex on any shortest path (the quantity
// Canonical Hub Labeling is defined by), and Δ-stepping and a bidirectional
// point-to-point Dijkstra, the traversal baselines the paper's introduction
// compares hub labeling to.
//
// Dijkstra, DijkstraTo, ShortestPathTree and DeltaStepping share one exact
// bucket search (bucket.go) on vheap.Window, the bucket queue PLaNT's trees
// settle from too: a circular window of Δ-wide buckets, here drained in
// FIFO rounds that queue a vertex again whenever its distance improves.
// That makes the search label-correcting, so every row is the minimum over
// all paths of the left-to-right sum of their weights — the same float a
// heap-ordered Dijkstra returns — whatever Δ is. Δ is the lightest arc's
// weight for the Dijkstra entry points, which makes nearly every vertex
// final when its bucket is first drained. The window parks a distance
// beyond its end on its vheap.Heap until it reaches it.
//
// MaxRankOnPath and PointToPoint stay on the heap alone: the first folds
// its ancestors in settle order, and is the verifier's reference, kept
// independent of the bucket search; the second stops on the sum of the two
// frontiers' minima, which it reads with Peek.
package sssp

import (
	"sync"

	"repro/internal/graph"
	"repro/internal/vheap"
)

// scratch is a heap, a bucket window, and a distance buffer for the
// searches whose row does not leave the package, kept between calls so
// that a search on a sparse graph does not spend its time allocating and
// zeroing them. One serves any graph of at most len(dist) vertices.
type scratch struct {
	h    *vheap.Heap
	w    *vheap.Window // parks its far distances on h
	dist []float64
}

var scratchPool sync.Pool

// getScratch returns a cleared scratch for a graph of n vertices.
func getScratch(n int) *scratch {
	if s, ok := scratchPool.Get().(*scratch); ok && len(s.dist) >= n {
		return s
	}
	h := vheap.New(n)
	return &scratch{h: h, w: vheap.NewWindow(h), dist: make([]float64, n)}
}

func putScratch(s *scratch) {
	s.w.Clear()
	scratchPool.Put(s)
}

// Dijkstra computes shortest-path distances from source over g (following
// outgoing arcs) and returns the distance array; unreachable vertices get
// graph.Infinity. The array is the caller's.
func Dijkstra(g *graph.Graph, source int) []float64 {
	dist := make([]float64, g.NumVertices())
	s := getScratch(len(dist))
	s.search(g, source, -1, g.MinWeight(), dist, nil)
	putScratch(s)
	return dist
}

// ShortestPathTree is Dijkstra that also returns, for every vertex reached
// from source but source itself, its predecessor on a shortest path (-1
// elsewhere). Walking pred back from v and summing the arc weights from
// source onwards reproduces dist[v] exactly.
func ShortestPathTree(g *graph.Graph, source int) (dist []float64, pred []int) {
	dist, pred = make([]float64, g.NumVertices()), make([]int, g.NumVertices())
	for i := range pred {
		pred[i] = -1
	}
	s := getScratch(len(dist))
	s.search(g, source, -1, g.MinWeight(), dist, pred)
	putScratch(s)
	return dist, pred
}

// DijkstraTo returns the shortest-path distance from s to t, stopping as
// soon as t's distance is final: the same float as Dijkstra(g, s)[t]. It
// allocates nothing once a scratch is pooled.
func DijkstraTo(g *graph.Graph, s, t int) float64 {
	sc := getScratch(g.NumVertices())
	dist := sc.dist[:g.NumVertices()]
	sc.search(g, s, t, g.MinWeight(), dist, nil)
	d := dist[t]
	putScratch(sc)
	return d
}

// MaxRankOnPath computes, for every vertex v reachable from source, the
// highest-ranked vertex that appears on ANY shortest path from source to v
// (endpoints included). Rank is position: vertex 0 is the highest ranked, so
// "highest-ranked" means minimum id. This is exactly the quantity that
// defines the Canonical Hub Labeling (Definition 3 / Lemma 1): hub h belongs
// to L_v iff h == MaxRankOnPath(h→v). The verifier uses it as independent
// ground truth for PLaNT's ancestor propagation.
//
// The returned slice holds, per vertex, the id of that maximum-rank vertex,
// or -1 if unreachable. dist receives the distances (may be nil).
func MaxRankOnPath(g *graph.Graph, source int) (best []int32, dist []float64) {
	n := g.NumVertices()
	dist = make([]float64, n)
	best = make([]int32, n)
	for i := range dist {
		dist[i] = graph.Infinity
		best[i] = -1
	}
	dist[source] = 0
	best[source] = int32(source)
	s := getScratch(n)
	defer putScratch(s)
	h := s.h
	h.Push(source, 0)
	order := make([]int, 0, n) // settle order
	for !h.Empty() {
		u, du := h.Pop()
		order = append(order, u)
		heads, wts := g.Neighbors(u)
		for i, v := range heads {
			if nd := du + wts[i]; nd < dist[v] {
				dist[v] = nd
				h.Push(int(v), nd)
			}
		}
	}
	// With positive weights, predecessors on shortest paths settle strictly
	// before their successors, so one pass in settle order computes the
	// max-rank (minimum id) over all shortest paths exactly.
	for _, u := range order {
		if u == source {
			continue
		}
		tails, wts := g.InNeighbors(u)
		bu := int32(u)
		for i, t := range tails {
			if dist[t] != graph.Infinity && dist[t]+wts[i] == dist[u] {
				if bt := best[t]; bt >= 0 && bt < bu {
					bu = bt
				}
			}
		}
		best[u] = bu
	}
	return best, dist
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

	distF := make(map[int]float64, 64)
	distB := make(map[int]float64, 64)
	hf := vheap.New(n)
	hb := vheap.New(n)
	hf.Push(s, 0)
	hb.Push(t, 0)
	distF[s] = 0
	distB[t] = 0
	bestMu := graph.Infinity

	// A popped vertex is settled: the heap returns it once, so no done set
	// is needed to skip it.
	relax := func(dir *graph.Graph, h *vheap.Heap, dist, otherDist map[int]float64) {
		u, du := h.Pop()
		if db, ok := otherDist[u]; ok && du+db < bestMu {
			bestMu = du + db
		}
		heads, wts := dir.Neighbors(u)
		for i, v := range heads {
			nd := du + wts[i]
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
	return bestMu
}

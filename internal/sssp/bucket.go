package sssp

import (
	"repro/internal/graph"
)

// search writes the distances from source over g into dist (every cell),
// and, if pred is non-nil, each improved vertex's predecessor. It stops
// once the queue drains or target (-1: none) is final; the rest of dist is
// not final then. It runs on the scratch's bucket window (vheap.Window),
// buckets delta wide, which it leaves for putScratch.
//
// Relaxing from d gives fl(d + w) ≥ d, so a relaxation lands in the current
// bucket or later, and once the current bucket drains no distance in it or
// before it can improve: the window moves strictly forward, and a vertex is
// final when its bucket drains. A bucket drains in FIFO rounds: a vertex
// whose distance improves while its bucket drains is queued in it again.
// Every improvement is therefore relaxed before the search ends, whatever Δ
// is, so dist is the least left-to-right path sum, as a heap-ordered
// Dijkstra computes it. With Δ the lightest weight, w ≥ Δ puts d + w in a
// later bucket but for rounding, so a re-queue is rare.
func (s *scratch) search(g *graph.Graph, source, target int, delta float64, dist []float64, pred []int) {
	for i := range dist {
		dist[i] = graph.Infinity
	}
	dist[source] = 0
	w := s.w
	w.Start(delta)
	w.Queue(source, 0)
	for {
		// The bucket may grow while it drains: its length is read again
		// for every entry.
		for i := 0; i < len(w.Bucket()); i++ {
			e := w.Bucket()[i]
			if e.D != dist[e.V] {
				continue
			}
			heads, wts := g.Neighbors(int(e.V))
			for j, v := range heads {
				nd := e.D + wts[j]
				if nd >= dist[v] {
					continue
				}
				dist[v] = nd
				if pred != nil {
					pred[v] = int(e.V)
				}
				w.Queue(int(v), nd)
			}
		}
		if target >= 0 && w.Done(dist[target]) || !w.Next(dist) {
			return
		}
	}
}

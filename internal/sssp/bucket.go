package sssp

import (
	"repro/internal/graph"
)

// search writes the distances in units from source over g into dist (every
// cell), and, if pred is non-nil, each improved vertex's predecessor. It
// stops once the queue drains or target (-1: none) is final; the rest of
// dist is not final then. It runs on the scratch's bucket window
// (vheap.Window), buckets the largest power of two units not above the
// lightest arc wide, which it leaves for putScratch.
//
// A bucket is then no wider than any arc, so a relaxation d + w from bucket
// k lands in bucket k+1 or later: when a bucket is reached every vertex in
// it has its final distance, and the bucket drains in one pass. dist is the
// least path sum, exactly, as a heap-ordered Dijkstra computes it.
func (s *scratch) search(g *graph.Graph, source, target int, dist []uint64, pred []int) {
	for i := range dist {
		dist[i] = graph.Unreached
	}
	dist[source] = 0
	w := s.w
	w.Start(g.MinUnits())
	w.Queue(source, 0)
	for {
		for _, e := range w.Bucket() {
			if e.D != dist[e.V] {
				continue
			}
			heads, wts := g.Neighbors(int(e.V))
			for j, v := range heads {
				nd := e.D + uint64(wts[j])
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

package sssp

import (
	"repro/internal/graph"
)

// UnitsTo searches from s until every vertex of targets is final (an empty
// set: until the queue drains) and calls f with the distances it holds, in
// g's units: every entry at most the largest target's is d(s,·) exactly,
// and every other one an upper bound or graph.Unreached. du is the search's
// own buffer, valid only until f returns.
//
// The search runs on a pooled bucket window (vheap.Window), buckets the
// largest power of two units not above the lightest arc wide. A bucket is
// then no wider than any arc, so a relaxation d + w from bucket k lands in
// bucket k+1 or later: when a bucket is reached every vertex in it has its
// final distance, and the bucket drains in one pass. An entry at most the
// largest target's lies in a drained bucket: the least path sum, exactly,
// as a heap-ordered Dijkstra computes it.
func UnitsTo(g *graph.Graph, s int, targets []int, f func(du []uint64)) {
	sc := getScratch(g.NumVertices())
	dist := sc.dist[:g.NumVertices()]
	for i := range dist {
		dist[i] = graph.Unreached
	}
	dist[s] = 0
	w := sc.w
	w.Start(g.MinUnits())
	w.Queue(s, 0)
	final := 0 // targets[:final] are final, and a final distance stays Done
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
				w.Queue(int(v), nd)
			}
		}
		for final < len(targets) && w.Done(dist[targets[final]]) {
			final++
		}
		if final > 0 && final == len(targets) || !w.Next(dist) {
			break
		}
	}
	f(dist)
	putScratch(sc)
}

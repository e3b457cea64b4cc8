// Package verify checks hub labelings against first principles. It is the
// test suite's ground truth: every algorithm in this repository is asserted
// to emit (a) a labeling satisfying the cover property — PPSD queries equal
// Dijkstra distances; (b) for the CHL algorithms, a labeling that respects
// the rank order R and is minimal (Definitions 1–3 of the paper), which
// together pin down the Canonical Hub Labeling uniquely.
//
// Everything operates in rank space (vertex 0 = highest rank).
package verify

import (
	"container/heap"
	"fmt"
	"math/rand"

	"repro/internal/graph"
	"repro/internal/label"
)

// Dijkstra is the oracle every labeling is held to: a textbook float64
// Dijkstra over the input weights (graph.FromUnits of each arc) on
// container/heap, sharing no code with internal/sssp or internal/vheap,
// which run in integer units. A labeling's answer must equal its row bit
// for bit, so the two domains are checked against each other. Unreachable
// vertices get graph.Infinity.
func Dijkstra(g *graph.Graph, source int) []float64 {
	dist, _ := settle(g, source)
	return dist
}

// MaxRankOnPath computes, for every vertex v reachable from source, the
// highest-ranked vertex that appears on ANY shortest path from source to v
// (endpoints included). Rank is position: vertex 0 is the highest ranked, so
// "highest-ranked" means minimum id. This is exactly the quantity that
// defines the Canonical Hub Labeling (Definition 3 / Lemma 1): hub h belongs
// to L_v iff h == MaxRankOnPath(h→v). It is the independent ground truth
// for PLaNT's ancestor propagation, over the oracle's float64 distances.
//
// best holds, per vertex, the id of that maximum-rank vertex, or -1 if
// unreachable, and dist the oracle's row.
func MaxRankOnPath(g *graph.Graph, source int) (best []int32, dist []float64) {
	dist, order := settle(g, source)
	best = make([]int32, len(dist))
	for i := range best {
		best[i] = -1
	}
	// With positive weights, predecessors on shortest paths settle strictly
	// before their successors, so one pass in settle order computes the
	// max-rank (minimum id) over all shortest paths exactly.
	for _, u := range order {
		bu := int32(u)
		tails, wts := g.InNeighbors(u)
		for i, t := range tails {
			if bt := best[t]; bt >= 0 && bt < bu && dist[t]+g.FromUnits(uint64(wts[i])) == dist[u] {
				bu = bt
			}
		}
		best[u] = bu
	}
	return best, dist
}

// settle runs the oracle from source: the row, and the vertices it reached
// in the order they settled.
func settle(g *graph.Graph, source int) (dist []float64, order []int) {
	dist = make([]float64, g.NumVertices())
	for i := range dist {
		dist[i] = graph.Infinity
	}
	dist[source] = 0
	q := &floatQueue{{source, 0}}
	for q.Len() > 0 {
		e := heap.Pop(q).(queued)
		if e.d > dist[e.v] {
			continue // a stale entry
		}
		order = append(order, e.v)
		heads, wts := g.Neighbors(e.v)
		for i, h := range heads {
			if nd := e.d + g.FromUnits(uint64(wts[i])); nd < dist[h] {
				dist[h] = nd
				heap.Push(q, queued{int(h), nd})
			}
		}
	}
	return dist, order
}

// queued is a vertex on the oracle's queue at a tentative distance.
type queued struct {
	v int
	d float64
}

type floatQueue []queued

func (q floatQueue) Len() int           { return len(q) }
func (q floatQueue) Less(i, j int) bool { return q[i].d < q[j].d }
func (q floatQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *floatQueue) Push(x any)        { *q = append(*q, x.(queued)) }
func (q *floatQueue) Pop() any {
	old := *q
	e := old[len(old)-1]
	*q = old[:len(old)-1]
	return e
}

// Cover checks the cover property exhaustively for sources in [0,
// maxSources) (all sources if maxSources ≤ 0): for every vertex pair (s,v),
// the labeling's query must equal the true shortest-path distance
// (Infinity for disconnected pairs — hub labelings answer those correctly
// too, by finding no common hub... note a common hub cannot exist across
// components). Returns a descriptive error on the first mismatch.
func Cover(g *graph.Graph, ix *label.Index, maxSources int) error {
	n := g.NumVertices()
	if maxSources <= 0 || maxSources > n {
		maxSources = n
	}
	for s := 0; s < maxSources; s++ {
		dist := Dijkstra(g, s)
		for v := 0; v < n; v++ {
			got := ix.Query(s, v)
			if got != dist[v] {
				return fmt.Errorf("verify: query(%d,%d) = %v, want %v", s, v, got, dist[v])
			}
		}
	}
	return nil
}

// CoverSampled checks the cover property from `samples` random sources
// (each against all targets).
func CoverSampled(g *graph.Graph, ix *label.Index, samples int, seed int64) error {
	n := g.NumVertices()
	if n == 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < samples; i++ {
		s := rng.Intn(n)
		dist := Dijkstra(g, s)
		for v := 0; v < n; v++ {
			got := ix.Query(s, v)
			if got != dist[v] {
				return fmt.Errorf("verify: query(%d,%d) = %v, want %v", s, v, got, dist[v])
			}
		}
	}
	return nil
}

// RespectsR checks Definition 3 from `sources` roots (all if ≤ 0): for
// every vertex v connected to s, the highest-ranked vertex w on any
// shortest s–v path must be a hub of both s and v, at its true distances.
func RespectsR(g *graph.Graph, ix *label.Index, sources int) error {
	n := g.NumVertices()
	if sources <= 0 || sources > n {
		sources = n
	}
	for s := 0; s < sources; s++ {
		best, dist := MaxRankOnPath(g, s)
		ls := ix.Labels(s)
		at := func(d uint32) float64 { return label.FromUnits(float64(d), ix.UnitExp()) }
		for v := 0; v < n; v++ {
			if dist[v] == graph.Infinity {
				continue
			}
			w := uint32(best[v])
			dw, ok := ls.Find(w)
			if !ok || at(dw) != dist[best[v]] {
				return fmt.Errorf("verify: pair (%d,%d): max-rank hub %d missing from L_%d (or wrong distance %v, want %v)",
					s, v, w, s, at(dw), dist[best[v]])
			}
			dv, ok := ix.Labels(v).Find(w)
			if !ok || at(dv) != dist[v]-dist[best[v]] {
				return fmt.Errorf("verify: pair (%d,%d): max-rank hub %d missing from L_%d (or wrong distance %v, want %v)",
					s, v, w, v, at(dv), dist[v]-dist[best[v]])
			}
		}
	}
	return nil
}

// Minimal checks Definition 2 via Lemma 2: no label may have a witness —
// a common hub ranked strictly above it covering the pair at no greater
// distance. For a labeling that respects R this is exactly canonical
// minimality.
func Minimal(ix *label.Index) error {
	n := ix.NumVertices()
	for v := 0; v < n; v++ {
		for _, l := range ix.Labels(v) {
			h, d := label.Hub(l), label.Dist(l)
			if int(h) == v {
				continue
			}
			if hub, bad := witnessAbove(ix.Labels(v), ix.Labels(int(h)), h, d); bad {
				return fmt.Errorf("verify: redundant label (hub %d, d=%v) at vertex %d: witnessed by higher-ranked hub %d",
					h, d, v, hub)
			}
		}
	}
	return nil
}

// CanonicalDistances checks that every label stores the exact shortest-path
// distance to its hub (labelings respecting R must; redundant labels in
// paraPLL output may legitimately be inflated, so this is only asserted for
// CHL outputs). Cost: one Dijkstra per distinct hub in use.
func CanonicalDistances(g *graph.Graph, ix *label.Index, maxHubs int) error {
	n := g.NumVertices()
	if maxHubs <= 0 || maxHubs > n {
		maxHubs = n
	}
	for h := 0; h < maxHubs; h++ {
		dist := Dijkstra(g, h)
		for v := 0; v < n; v++ {
			if d, ok := ix.Labels(v).Find(uint32(h)); ok && label.FromUnits(float64(d), ix.UnitExp()) != dist[v] {
				return fmt.Errorf("verify: label (hub %d) at vertex %d stores %v units of 2^-%d, true distance %v", h, v, d, ix.UnitExp(), dist[v])
			}
		}
	}
	return nil
}

// IsCHL asserts the full Canonical Hub Labeling contract on small graphs:
// structural validity, exact cover, respects-R, minimality and exact label
// distances. The CHL for a given (G, R) is unique, so any two labelings
// passing IsCHL are identical — which the tests also assert directly via
// Index.Equal.
func IsCHL(g *graph.Graph, ix *label.Index) error {
	if err := ix.Validate(); err != nil {
		return err
	}
	if err := Cover(g, ix, 0); err != nil {
		return err
	}
	if err := RespectsR(g, ix, 0); err != nil {
		return err
	}
	if err := Minimal(ix); err != nil {
		return err
	}
	return CanonicalDistances(g, ix, 0)
}

// witnessAbove reports the first satisfying common hub if it is ranked
// strictly above h.
func witnessAbove(lv, lh label.Set, h, delta uint32) (uint32, bool) {
	i, j := 0, 0
	for i < len(lv) && j < len(lh) {
		a, b := lv[i], lh[j]
		switch ha, hb := label.Hub(a), label.Hub(b); {
		case ha < hb:
			i++
		case ha > hb:
			j++
		default:
			if uint64(label.Dist(a))+uint64(label.Dist(b)) <= uint64(delta) {
				return ha, ha < h
			}
			i++
			j++
		}
	}
	return 0, false
}

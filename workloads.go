package chl

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/delta"
	"repro/internal/graph"
	"repro/internal/label"
	"repro/internal/sssp"
)

// Rich query workloads over the packed-label substrate: shortest paths
// (/paths), top-k nearest targets (/knn), and one-to-many/many-to-many
// distance matrices (/matrix). Every workload reuses the join kernels —
// same sum of unit counts, same smallest-hub tie-break — so its numbers
// agree bit-for-bit with /dist on every tier and storage format; a path
// walks the graph over exact distances, so it is the same path on every
// tier. ARCHITECTURE.md ("Query workloads") walks through each one.

// hubQuerier answers one distance-with-witness query on a tier:
// BatchEngine.QueryHub (cache-through, never errs) or the router's
// queryHub (cross-shard rows joined at the router, the witness's original
// id fetched with u's row). /knn under an overlay answers each winner
// through it, and /paths on a tier with no graph its one pair.
type hubQuerier func(u, v int) (dist float64, hub int, ok bool, err error)

// walkPath is the one shortest-path walk of /paths, on every tier: the
// shortest u→v path on g that du describes. du(x) must be d(u,x) on g,
// exactly, in g's units (graph.Unreached where no path reaches x). From v
// the walk steps back over in-arcs, at each vertex x to the smallest-id
// in-neighbour w with du(w) + w(w,x) = du(x), until it reaches u; rows
// are sorted by id, so the first match is that one. Weights are positive,
// so every step lowers du strictly and the walk ends without a budget.
// Ties are pinned, so any two exact sources of du — labels or a search —
// give the same path. A vertex with no such in-neighbour means du is not
// a distance on g: the labels and the graph disagree, and the walk fails
// naming the vertex.
func walkPath(g *Graph, u, v int, du func(x int) uint64) (dist float64, path []int, reachable bool, err error) {
	dx := du(v)
	if dx == graph.Unreached {
		return Infinity, nil, false, nil
	}
	dist, path = g.FromUnits(dx), []int{v}
	for x := v; x != u; {
		tails, wts := g.InNeighbors(x)
		next := -1
		for i, w := range tails {
			if dw := du(int(w)); dw != graph.Unreached && dw+uint64(wts[i]) == dx {
				next, dx = int(w), dw
				break
			}
		}
		if next < 0 {
			return 0, nil, false, fmt.Errorf("chl: labels and graph disagree at %d: no in-neighbour of it lies on a shortest path from %d", x, u)
		}
		x = next
		path = append(path, x)
	}
	slices.Reverse(path)
	return dist, path, true, nil
}

// Path returns a shortest u→v path on g, the graph the index was built
// from (original ids): the distance, the vertices from u to v inclusive,
// each consecutive pair an arc whose weights sum to dist exactly, and
// reachability. It scatters u's forward run once and probes the backward
// run of each vertex the walk reads (the /matrix kernels), so it costs one
// probe per in-arc the walk scans. A graph fitsBase refuses — another
// vertex count, directedness or unit — is an error, and so is one the
// labels disagree with (walkPath).
func (fx *FlatIndex) Path(g *Graph, u, v int) (dist float64, path []int, reachable bool, err error) {
	n := fx.NumVertices()
	if g == nil {
		return 0, nil, false, fmt.Errorf("chl: Path needs the graph the index was built from")
	}
	if err := fitsBase(g, n, fx.Directed(), fx.unitExp()); err != nil {
		return 0, nil, false, err
	}
	if err := inRange(n, u, v); err != nil {
		return 0, nil, false, err
	}
	s := fx.scratch.Get(n)
	rs := label.ScatterRun(s, fx.fwd.RunInto(nil, u))
	dist, path, reachable, err = walkPath(g, u, v, func(x int) uint64 {
		d, _, ok := rs.ProbeAt(fx.bwd, x)
		if !ok {
			return graph.Unreached
		}
		return uint64(d)
	})
	rs.Release()
	fx.scratch.Put(s) // not deferred: only a clean table goes back
	return dist, path, reachable, err
}

// rowPath is the walk over one search: a tier without labels of g — a
// delta overlay's patched graph on either tier, or the router's graph —
// reads du in units off a search from u that stops once v is final
// (sssp.UnitsTo). That is exact for the walk: it starts at du(v), and
// every in-neighbour it accepts is at least the lightest arc closer to u,
// so already final; an entry not yet final exceeds du(v) and matches no
// step.
func rowPath(g *Graph, u, v int) (dist float64, path []int, reachable bool, err error) {
	sssp.UnitsTo(g, u, v, func(du []uint64) {
		dist, path, reachable, err = walkPath(g, u, v, func(x int) uint64 { return du[x] })
	})
	return dist, path, reachable, err
}

// witnessPath is /paths on a tier with no graph to walk (a server without
// EnableUpdates, a router without BaseGraph): one pair query, answered as
// its witness triple [u, h, v] — [u, v] when the witness is an endpoint,
// [u] when u == v. Each vertex lies on a shortest u→v path, but
// consecutive ones need not share an arc.
func witnessPath(u, v int, q hubQuerier) (float64, []int, bool, error) {
	d, h, ok, err := q(u, v)
	switch {
	case err != nil:
		return 0, nil, false, err
	case !ok:
		return Infinity, nil, false, nil
	case u == v:
		return d, []int{u}, true, nil
	case h == u || h == v:
		return d, []int{u, v}, true, nil
	}
	return d, []int{u, h, v}, true, nil
}

// hubQuery is QueryHub as a hubQuerier.
func (e *BatchEngine) hubQuery(u, v int) (float64, int, bool, error) {
	d, h, ok := e.QueryHub(u, v)
	return d, h, ok, nil
}

// Neighbor is one top-k result: a target vertex, its exact distance
// from the source, and the witness hub (original id) that proved it —
// the same triple /dist answers for the pair.
type Neighbor struct {
	V    int     `json:"v"`
	Dist float64 `json:"dist"`
	Hub  int     `json:"hub"`
}

// KNN returns up to k nearest targets from u (original ids), excluding
// u itself, sorted by (distance, vertex). Distances and witness hubs
// are bit-identical to QueryHub on each (u, target) pair; on directed
// indexes targets are vertices reachable *from* u. The first call
// builds the index's inverted half (see FlatIndex.inverted).
func (fx *FlatIndex) KNN(u, k int) []Neighbor {
	return fx.KNNFromRun(fx.fwd.RunInto(nil, u), k, u)
}

// KNNFromRun is KNN for a source label run that need not live in this
// index — the shard-scan case, where the router ships the source's
// forward run to every shard and each shard scans only its own
// vertices' postings. exclude names a vertex to omit (the source), or
// -1. The run must count this index's unit.
func (fx *FlatIndex) KNNFromRun(run []uint64, k, exclude int) []Neighbor {
	raw := fx.inverted().TopK(run, k, exclude)
	out := make([]Neighbor, len(raw))
	for i, nb := range raw {
		out[i] = Neighbor{V: nb.V, Dist: label.FromUnits(nb.Dist, fx.unitExp()), Hub: fx.perm[nb.Hub]}
	}
	return out
}

// KNN is FlatIndex.KNN plus cache seeding: each result is a complete
// (distance, witness) pair answer, so it is deposited into the
// engine's pair cache — later /dist queries for those pairs hit
// without touching the label arrays. Only true pair answers enter the
// cache; the k parameter never leaks into the pair keyspace. Under a
// delta overlay it is knnPatched, each winner answered through QueryHub.
func (e *BatchEngine) KNN(u, k int) []Neighbor {
	if e.ov != nil {
		out, _ := knnPatched(e.ov, u, k, e.hubQuery)
		return out
	}
	out := e.fx.KNN(u, k)
	if e.cache != nil {
		for _, nb := range out {
			e.cache.Put(u, nb.V, Answer{Dist: nb.Dist, Hub: nb.Hub, Reachable: true})
		}
	}
	return out
}

// knnPatched is /knn under overlay ov on either tier. An inverted-index
// scan would rank by frozen distances, so the k nearest targets —
// ordered by (distance, vertex), excluding the source — come from an
// exact patched-graph row, and each winner is answered through the
// tier's own pair querier, so distance, witness and any cache deposit
// are exactly the tier's /dist answer for that pair. The first querier
// error ends the scan.
func knnPatched(ov *delta.Overlay, source, k int, pairQ hubQuerier) ([]Neighbor, error) {
	if k <= 0 {
		return []Neighbor{}, nil
	}
	row := ov.Row(source)
	cand := make([]int, 0, len(row))
	for v, d := range row {
		if v != source && d < Infinity {
			cand = append(cand, v)
		}
	}
	sort.Slice(cand, func(i, j int) bool {
		if row[cand[i]] != row[cand[j]] {
			return row[cand[i]] < row[cand[j]]
		}
		return cand[i] < cand[j]
	})
	if len(cand) > k {
		cand = cand[:k]
	}
	out := make([]Neighbor, len(cand))
	for i, v := range cand {
		d, h, _, err := pairQ(source, v)
		if err != nil {
			return nil, err
		}
		out[i] = Neighbor{V: v, Dist: d, Hub: h}
	}
	return out, nil
}

// matrixRowInto fills dst[j] with the distance from the source whose
// forward run is run to targets[j] (Infinity when unreachable) — one
// scatter of the source run, then one probe per target
// (label.RunScatter.ProbeStore), instead of a fresh two-sided join per
// pair. dst must have len(targets); the scratch is the caller's (one per
// goroutine), clean on entry and left clean on return.
func (fx *FlatIndex) matrixRowInto(s *label.HubTable, dst []float64, run []uint64, targets []int) {
	rs := label.ScatterRun(s, run)
	rs.ProbeStore(dst, fx.bwd, targets)
	rs.Release()
}

// MatrixRows streams the sources × targets distance matrix row by row:
// emit is called once per source, in order, with a row of
// len(targets) distances (Infinity for unreachable). The row slice is
// reused between calls — emit must consume it before returning (the
// streaming discipline that keeps a many-to-many query's memory at one
// row, not the full matrix). A non-nil error from emit aborts the
// scan.
func (fx *FlatIndex) MatrixRows(sources, targets []int, emit func(u int, dists []float64) error) error {
	s := fx.scratch.Get(fx.NumVertices())
	row := make([]float64, len(targets))
	var buf []uint64
	var err error
	for _, u := range sources {
		fx.matrixRowInto(s, row, fx.fwd.RunInto(&buf, u), targets)
		if err = emit(u, row); err != nil {
			break
		}
	}
	fx.scratch.Put(s) // not deferred: a panicking row leaves the scratch dirty
	return err
}

// MatrixRows streams the matrix through the engine: the frozen
// scatter-probe kernel when no overlay is attached, matrixPatched under
// one.
func (e *BatchEngine) MatrixRows(sources, targets []int, emit func(u int, dists []float64) error) error {
	if e.ov == nil {
		return e.fx.MatrixRows(sources, targets, emit)
	}
	return matrixPatched(e.ov, sources, targets, emit)
}

// matrixPatched is /matrix under overlay ov on either tier: every row is
// a whole-graph Dijkstra on the patched graph projected onto the target
// set — each cell the exact patched distance, bit-identical to /dist on
// the same pair — streamed one reused row at a time.
func matrixPatched(ov *delta.Overlay, sources, targets []int, emit func(u int, dists []float64) error) error {
	row := make([]float64, len(targets))
	for _, u := range sources {
		full := ov.Row(u)
		for j, t := range targets {
			row[j] = full[t]
		}
		if err := emit(u, row); err != nil {
			return err
		}
	}
	return nil
}

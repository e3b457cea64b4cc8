package chl

import (
	"fmt"
	"sort"

	"repro/internal/delta"
	"repro/internal/label"
)

// Rich query workloads over the packed-label substrate: shortest-path
// reconstruction (/paths), top-k nearest targets (/knn), and
// one-to-many/many-to-many distance matrices (/matrix). Every workload
// reuses the pairwise join kernels — same sum of unit counts, same
// smallest-hub tie-break — so its numbers agree bit-for-bit with /dist
// on every tier and storage format. ARCHITECTURE.md ("Query workloads")
// walks through each one.

// hubQuerier answers one distance-with-witness query during path
// expansion. The three tiers plug in their own: FlatIndex.QueryHub
// (never errs), BatchEngine.QueryHub (cache-through), and the router's
// queryHub (cross-shard rows joined at the router, the witness's
// original id fetched with u's row).
type hubQuerier func(u, v int) (dist float64, hub int, ok bool, err error)

// expandPath reconstructs the witness chain between u and v by
// recursive hub expansion: the witness hub h of (u,v) lies on a
// shortest u→v path, so the chain of (u,v) is the chain of (u,h)
// followed by the chain of (h,v); a segment whose witness is one of
// its own endpoints cannot be refined further from labels alone and
// stays atomic. The result is the maximally refined via-vertex
// sequence — every returned vertex provably lies on one shortest u→v
// path, in order, and consecutive pairs' label distances sum to the
// total bit-for-bit (each leg's distance is itself the /dist answer
// for that pair).
//
// n bounds the work: a shortest path over positive weights visits each
// vertex once, so a well-formed chain makes at most ~2n queries. A
// querier that misbehaves — witness cycles, legs that do not sum, zero
// or negative legs, out-of-range hubs — is detected and reported as an
// error before the budget can loop; FuzzPathExpand drives this with
// hostile queriers.
func expandPath(u, v, n int, q hubQuerier) (dist float64, path []int, reachable bool, err error) {
	if u == v {
		return 0, []int{u}, true, nil
	}
	d, h, ok, err := q(u, v)
	if err != nil {
		return 0, nil, false, err
	}
	if !ok {
		return Infinity, nil, false, nil
	}
	budget := 2*n + 8
	path, err = appendChain(make([]int, 0, 8), u, v, d, h, n, q, &budget)
	if err != nil {
		return 0, nil, false, err
	}
	return d, append(path, v), true, nil
}

// appendChain appends the refined chain of the segment u→v — known to
// have distance d and witness hub h — to dst, including u and
// excluding v.
func appendChain(dst []int, u, v int, d float64, h int, n int, q hubQuerier, budget *int) ([]int, error) {
	if h == u || h == v {
		return append(dst, u), nil
	}
	if h < 0 || h >= n {
		return nil, fmt.Errorf("chl: witness hub %d of segment %d→%d outside [0,%d) — corrupt labels?", h, u, v, n)
	}
	dl, hl, okl, err := chainQuery(u, h, q, budget)
	if err != nil {
		return nil, err
	}
	dr, hr, okr, err := chainQuery(h, v, q, budget)
	if err != nil {
		return nil, err
	}
	// The witness proves d(u,h)+d(h,v) == d with both legs strictly
	// inside (0,d); anything else means the labels (or a hostile
	// querier) contradict themselves, and recursing on such legs could
	// fail to shrink the problem.
	if !okl || !okr || dl+dr != d || !(dl > 0) || !(dr > 0) {
		return nil, fmt.Errorf("chl: witness %d of segment %d→%d has inconsistent legs (%g + %g vs %g) — corrupt labels?", h, u, v, dl, dr, d)
	}
	if dst, err = appendChain(dst, u, h, dl, hl, n, q, budget); err != nil {
		return nil, err
	}
	return appendChain(dst, h, v, dr, hr, n, q, budget)
}

// chainQuery is one budgeted querier call during chain refinement.
func chainQuery(u, v int, q hubQuerier, budget *int) (float64, int, bool, error) {
	if *budget--; *budget < 0 {
		return 0, 0, false, fmt.Errorf("chl: path expansion exceeded its query budget — cyclic witness chain?")
	}
	return q(u, v)
}

// Path reconstructs the shortest-path witness chain between u and v
// (original ids): the distance, the maximally refined via-vertex
// sequence from u to v inclusive, and reachability. Consecutive
// vertices of the sequence are segments whose own Query distances sum
// to dist exactly. Unreachable pairs return (Infinity, nil, false,
// nil); an error means the labels are inconsistent.
func (fx *FlatIndex) Path(u, v int) (dist float64, path []int, reachable bool, err error) {
	return expandPath(u, v, fx.NumVertices(), func(a, b int) (float64, int, bool, error) {
		d, h, ok := fx.QueryHub(a, b)
		return d, h, ok, nil
	})
}

// Path is FlatIndex.Path through the engine's cache: every segment
// query fills (and is served from) the pair cache when one is
// attached; under a delta overlay it is pathPatched.
func (e *BatchEngine) Path(u, v int) (dist float64, path []int, reachable bool, err error) {
	if e.ov != nil {
		return pathPatched(e.ov, u, v)
	}
	return expandPath(u, v, e.fx.NumVertices(), e.hubQuery)
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

// MatrixRowInto fills dst[j] with the distance from the source whose
// forward run is run to targets[j] (Infinity when unreachable) — one
// scatter of the source run, then one probe per target
// (label.RunScatter.ProbeStore), instead of a fresh two-sided join per
// pair. dst must have len(targets); the scratch is the caller's (one per
// goroutine), clean on entry and left clean on return.
func (fx *FlatIndex) MatrixRowInto(s *QueryScratch, dst []float64, run []uint64, targets []int) {
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
		fx.MatrixRowInto(s, row, fx.fwd.RunInto(&buf, u), targets)
		if err = emit(u, row); err != nil {
			break
		}
	}
	fx.scratch.Put(s) // not deferred: a panicking row leaves the scratch dirty
	return err
}

// pathPatched is /paths under overlay ov on either tier. Witness-hub
// expansion is unavailable there (frozen hubs need not lie on patched
// shortest paths), so the chain comes from an exact predecessor Dijkstra
// on the patched graph; each leg is a patched edge, so consecutive Query
// distances still sum to dist exactly.
func pathPatched(ov *delta.Overlay, u, v int) (dist float64, path []int, reachable bool, err error) {
	path, dist = ov.ShortestPath(u, v)
	if path == nil {
		return Infinity, nil, false, nil
	}
	return dist, path, true, nil
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

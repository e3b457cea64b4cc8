package chl

import (
	"context"
	"fmt"
	"sort"
	"sync"
)

// The rich query workloads (/paths, /knn, /matrix) routed through the
// cluster. /knn and /matrix decompose into the shard protocol the router
// already speaks — shipped-run scans (/shardscan) — so every number they
// return is bit-identical to what /dist would answer for the same pair,
// on any topology; /paths walks the router's own graph. ARCHITECTURE.md
// ("Query workloads") has the full walkthrough.

// Path answers /paths through the cluster, as Server.Path does on an
// unsharded index. The router holds no labels, so with a graph — the
// overlay's patched graph, or RouterConfig.BaseGraph — it walks one
// search from u (rowPath), which gives the path the flat server walks
// over its labels, byte for byte. Without one it answers the witness triple of
// one pair query through its single-query path (answer cache,
// singleflight, cross-shard row joins).
func (r *Router) Path(u, v int) (dist float64, path []int, reachable bool, err error) {
	if err := inRange(r.n, u, v); err != nil {
		return 0, nil, false, err
	}
	var g *Graph
	switch st := r.state.Load(); {
	case st.patch != nil:
		g = st.patch.Materialize()
	case r.log != nil:
		g = r.log.Base()
	default:
		return witnessPath(u, v, r.dist)
	}
	r.queries.Add(1)
	return rowPath(g, u, v)
}

// KNN returns up to k nearest targets from u through the cluster,
// sorted by (distance, vertex) with witness hubs, exactly as
// Server.KNN does on an unsharded index. The router fetches u's
// forward run from its owner once, ships it to every shard's
// /shardscan, and merges the per-shard top-k candidate lists — each
// shard scans only its own slice of the inverted index, so the global
// answer is the k best of at most shards×k candidates. Concurrent
// identical (u, k) requests collapse into one fan-out (singleflight,
// keyed apart from pair flights — see flightKind).
func (r *Router) KNN(u, k int) ([]Neighbor, error) {
	if err := inRange(r.n, u); err != nil {
		return nil, err
	}
	if k < 1 || k > r.n {
		return nil, fmt.Errorf("chl: k must be in [1,%d], got %d", r.n, k)
	}
	r.queries.Add(1)
	st := r.state.Load()
	key := flightKeyFor(flightKNN, r.directed, u, k, st.patchEpoch())
	res := r.flights.do(key, func() { r.collapsed.Add(1) }, func() flightResult {
		if st.patch != nil {
			// The winners are this /knn's answers, not queries of their own.
			nbs, err := knnPatched(st.patch, u, k, func(u, v int) (float64, int, bool, error) {
				return r.answer(st, u, v, true)
			})
			return flightResult{neighbors: nbs, err: err}
		}
		// Background parent: a flight outlives its leader's client (see
		// queryHub).
		nbs, err := r.routeKNN(context.Background(), st, u, k)
		return flightResult{neighbors: nbs, err: err}
	})
	return res.neighbors, res.err
}

// routeKNN is the leader's half of KNN: fetch the source run, broadcast
// the scan, merge, and seed the pair cache. Each merged neighbor is a
// complete (distance, witness) pair answer — the same triple QueryHub
// would compute — so it enters the pair cache under the normal pair
// key; k itself never reaches the cache keyspace (see Cache).
func (r *Router) routeKNN(ctx context.Context, st *routerState, u, k int) ([]Neighbor, error) {
	so := newObserver()
	rows := r.fetchRows(ctx, []int{u}, nil, nil, so)
	if err := so.err(); err != nil {
		return nil, err
	}
	req := shardScanRequest{Run: encodePackedRun(rows.fwd[u]), K: k, Exclude: u}
	merged := make([]Neighbor, 0, k)
	var (
		wg sync.WaitGroup
		mu sync.Mutex
	)
	for sid := range r.shards {
		wg.Add(1)
		go func(sid int) {
			defer wg.Done()
			if resp := r.shardScan(ctx, sid, req, so); resp != nil {
				mu.Lock()
				merged = append(merged, resp.Neighbors...)
				mu.Unlock()
			}
		}(sid)
	}
	wg.Wait()
	if err := so.err(); err != nil {
		return nil, err
	}
	sort.Slice(merged, func(i, j int) bool {
		if merged[i].Dist != merged[j].Dist {
			return merged[i].Dist < merged[j].Dist
		}
		return merged[i].V < merged[j].V
	})
	if len(merged) > k {
		merged = merged[:k]
	}
	if r.cacheValid(st, so) {
		for _, nb := range merged {
			st.cache.Put(u, nb.V, Answer{Dist: nb.Dist, Hub: nb.Hub, Reachable: true})
		}
	}
	return merged, nil
}

// Matrix streams the sources × targets distance matrix through the
// cluster: emit is called once per source, in order, with a row of
// len(targets) distances (Infinity for unreachable), exactly as
// FlatIndex.MatrixRows does on an unsharded index. The router fetches
// every source's forward run up front (fetchRows: one /shardquery per
// owning shard) then, per source, fans the run out to the shards
// owning targets (/shardscan with the target fragment each shard owns)
// and assembles the row in target order. The row slice is reused
// between emits: the matrix itself is never materialized at the
// router, which is what keeps a many-to-many query's memory at one
// row.
//
// Matrix answers are deliberately not cached: a sources×targets sweep
// would evict the cache's working set with hub-less entries /batch can
// re-derive anyway. Observed snapshot identities still feed the
// cache-retirement machinery (noteGenerations).
func (r *Router) Matrix(sources, targets []int, emit func(u int, dists []float64) error) error {
	// The exported call has no client to hang up; the /matrix handler
	// passes its request's context instead.
	return r.matrix(context.Background(), sources, targets, emit)
}

func (r *Router) matrix(ctx context.Context, sources, targets []int, emit func(u int, dists []float64) error) error {
	if err := inRange(r.n, sources...); err != nil {
		return err
	}
	if err := inRange(r.n, targets...); err != nil {
		return err
	}
	r.queries.Add(int64(len(sources)) * int64(len(targets)))
	// Under a delta overlay the shard-scan fan-out below would answer
	// from frozen labels.
	if st := r.state.Load(); st.patch != nil {
		return matrixPatched(st.patch, sources, targets, emit)
	}
	row := make([]float64, len(targets))
	so := newObserver()
	rows := r.fetchRows(ctx, sources, nil, nil, so)
	if err := so.err(); err != nil {
		return err
	}

	// Group targets by owning shard once; tgtPos remembers each target's
	// column so rows assemble in request order regardless of which shard
	// answered first.
	tgtPos := map[int][]int{} // shard id -> positions into targets
	tgtIDs := map[int][]int{} // shard id -> target ids, same order as tgtPos
	for j, t := range targets {
		sid := r.part.Owner(t)
		tgtPos[sid] = append(tgtPos[sid], j)
		tgtIDs[sid] = append(tgtIDs[sid], t)
	}
	for _, u := range sources {
		req := shardScanRequest{Run: encodePackedRun(rows.fwd[u]), Exclude: -1}
		var wg sync.WaitGroup
		for sid := range tgtPos {
			wg.Add(1)
			go func(sid int) {
				defer wg.Done()
				sreq := req
				sreq.Targets = tgtIDs[sid]
				// Each shard's fragment lands in its own columns of row.
				if resp := r.shardScan(ctx, sid, sreq, so); resp != nil {
					for i, j := range tgtPos[sid] {
						row[j] = unwireDist(resp.Dists[i])
					}
				}
			}(sid)
		}
		wg.Wait()
		if err := so.err(); err != nil {
			return err
		}
		if err := emit(u, row); err != nil {
			return err
		}
	}
	r.noteGenerations(so.obs)
	return nil
}

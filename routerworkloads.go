package chl

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"sync"
)

// The rich query workloads (/paths, /knn, /matrix) routed through the
// cluster. Each one decomposes into the shard protocol the router
// already speaks — pair queries for path expansion, shipped-run scans
// (/shardscan) for top-k and matrix rows — so every number a workload
// returns is bit-identical to what /dist would answer for the same
// pair, on any topology. ARCHITECTURE.md ("Query workloads") has the
// full walkthrough.

// Path reconstructs the shortest-path witness chain between u and v
// through the cluster, exactly as Server.Path does on an unsharded
// index. Every segment query runs through the router's own single-query
// path — answer cache, singleflight, cross-shard row joins, and batched
// witness-rank resolution (resolveRankOn) — so each consecutive
// segment's distance is the same number /dist serves for that pair, bit
// for bit, and a hot path's segments are answered from cache.
func (r *Router) Path(u, v int) (dist float64, path []int, reachable bool, err error) {
	if u < 0 || u >= r.n {
		return 0, nil, false, &VertexRangeError{ID: u, N: r.n}
	}
	if v < 0 || v >= r.n {
		return 0, nil, false, &VertexRangeError{ID: v, N: r.n}
	}
	if err := r.ensurePatch(); err != nil {
		return 0, nil, false, err
	}
	// Under a delta overlay witness-hub expansion is unavailable (frozen
	// hubs need not lie on patched shortest paths), so the chain comes
	// from an exact predecessor Dijkstra on the patched graph — the same
	// fallback the engine tier takes (see BatchEngine.Path).
	if st := r.state.Load(); st.patch != nil {
		path, dist := st.patch.ShortestPath(u, v)
		if path == nil {
			return Infinity, nil, false, nil
		}
		return dist, path, true, nil
	}
	return expandPath(u, v, r.n, func(a, b int) (float64, int, bool, error) {
		return r.queryHub(a, b, true)
	})
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
	if u < 0 || u >= r.n {
		return nil, &VertexRangeError{ID: u, N: r.n}
	}
	if k < 1 || k > r.n {
		return nil, fmt.Errorf("chl: k must be in [1,%d], got %d", r.n, k)
	}
	if err := r.ensurePatch(); err != nil {
		return nil, err
	}
	r.queries.Add(1)
	st := r.state.Load()
	key := flightKeyFor(flightKNN, r.directed, u, k, false, st.patchEpoch())
	res := r.flights.do(key, func() { r.collapsed.Add(1) }, func() flightResult {
		if st.patch != nil {
			nbs, err := r.routePatchedKNN(st, u, k)
			return flightResult{neighbors: nbs, err: err}
		}
		nbs, err := r.routeKNN(u, k)
		return flightResult{neighbors: nbs, err: err}
	})
	return res.neighbors, res.err
}

// routePatchedKNN is KNN under a delta overlay: the shard-side inverted
// scans would rank candidates by frozen distances, so candidates come
// from an exact patched-graph row instead, and each winner is
// re-answered through the router's corrected pair path so distance,
// witness, and the cache deposit agree bit-for-bit with /dist — the
// same topKFromRow funnel the engine tier uses, which is what keeps the
// two tiers' /knn responses identical.
func (r *Router) routePatchedKNN(st *routerState, u, k int) ([]Neighbor, error) {
	var qerr error
	out := topKFromRow(st.patch.Row(u), u, k, func(v int) (float64, int, bool) {
		d, h, ok, err := r.queryHub(u, v, true)
		if err != nil && qerr == nil {
			qerr = err
		}
		return d, h, ok
	})
	if qerr != nil {
		return nil, qerr
	}
	return out, nil
}

// scanObserver accumulates replica snapshot identities across a
// workload's fan-out, detecting the same race Batch does: one replica
// answering under two identities means a reload landed mid-request, so
// the answers are not attributable to a single snapshot and must not
// seed the cache.
type scanObserver struct {
	mu       sync.Mutex
	obs      map[repRef]genObs
	fails    []*ShardError
	conflict bool
}

func newScanObserver() *scanObserver {
	return &scanObserver{obs: map[repRef]genObs{}}
}

func (so *scanObserver) observe(k repRef, o genObs, serr *ShardError) {
	so.mu.Lock()
	defer so.mu.Unlock()
	if serr != nil {
		so.fails = append(so.fails, serr)
		return
	}
	if prev, seen := so.obs[k]; seen && prev != o {
		so.conflict = true
	}
	so.obs[k] = o
}

// err returns the accumulated fan-out failure, if any, as a
// ClusterError with deterministically ordered shards.
func (so *scanObserver) err() error {
	if len(so.fails) == 0 {
		return nil
	}
	sort.Slice(so.fails, func(i, j int) bool { return so.fails[i].Shard < so.fails[j].Shard })
	return &ClusterError{Failed: so.fails}
}

// shardScan runs one validated /shardscan round trip against shard sid
// (with the usual failover and hedging) and folds the replica's
// snapshot identity into so.
func (r *Router) shardScan(sid int, req shardScanRequest, so *scanObserver) *shardScanResponse {
	resp, rep, serr := postJSON[shardScanResponse](r, sid, "/shardscan", req)
	if serr == nil && resp.Generation == 0 {
		serr = r.terminalErr(rep, errNotShardBackend)
	}
	if serr == nil && resp.Vertices != r.n {
		serr = r.terminalErr(rep, fmt.Errorf("shard serves %d vertices but the manifest says %d — mismatched index files?", resp.Vertices, r.n))
	}
	if serr == nil {
		serr = r.checkDirected(rep, resp.Directed)
	}
	if serr != nil {
		so.observe(repRef{}, genObs{}, serr)
		return nil
	}
	rep.lastGen.Store(resp.Generation)
	so.observe(repRef{sid, rep.id}, genObs{epoch: resp.Epoch, gen: resp.Generation, hash: resp.Ident}, nil)
	return resp
}

// routeKNN is the leader's half of KNN: fetch the source run, broadcast
// the scan, merge, and seed the pair cache. Each merged neighbor is a
// complete (distance, witness) pair answer — the same triple QueryHub
// would compute — so it enters the pair cache under the normal pair
// key; k itself never reaches the cache keyspace (see Cache).
func (r *Router) routeKNN(u, k int) ([]Neighbor, error) {
	st := r.state.Load()
	so := newScanObserver()
	su := r.part.Owner(u)
	rowsF, _, rep, o, serr := r.fetchRows(su, []int{u}, nil)
	if serr != nil {
		return nil, &ClusterError{Failed: []*ShardError{serr}}
	}
	so.observe(repRef{su, rep.id}, o, nil)
	req := shardScanRequest{Run: encodePackedRun(rowsF[u]), K: k, Exclude: u}
	merged := make([]Neighbor, 0, k)
	var (
		wg sync.WaitGroup
		mu sync.Mutex
	)
	for sid := range r.shards {
		wg.Add(1)
		go func(sid int) {
			defer wg.Done()
			resp := r.shardScan(sid, req, so)
			if resp == nil {
				return
			}
			mu.Lock()
			merged = append(merged, resp.Neighbors...)
			mu.Unlock()
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
	if !so.conflict && r.cacheValid(st, so.obs) {
		for _, nb := range merged {
			st.cache.Put(u, nb.V, Answer{Dist: nb.Dist, Hub: nb.Hub, Reachable: true})
		}
	} else if so.conflict {
		r.noteGenerations(so.obs)
	}
	return merged, nil
}

// Matrix streams the sources × targets distance matrix through the
// cluster: emit is called once per source, in order, with a row of
// len(targets) distances (Infinity for unreachable), exactly as
// FlatIndex.MatrixRows does on an unsharded index. The router fetches
// every source's forward run up front — batched, one /shardquery per
// owning shard — then, per source, fans the run out to the shards
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
	for _, id := range sources {
		if id < 0 || id >= r.n {
			return &VertexRangeError{ID: id, N: r.n}
		}
	}
	for _, id := range targets {
		if id < 0 || id >= r.n {
			return &VertexRangeError{ID: id, N: r.n}
		}
	}
	if err := r.ensurePatch(); err != nil {
		return err
	}
	r.queries.Add(int64(len(sources)) * int64(len(targets)))

	// Under a delta overlay every cell needs the seeded correction, so
	// rows come from exact patched single-source Dijkstras projected
	// onto the target set (the engine tier's exact policy — see
	// BatchEngine.MatrixRows), preserving the one-row streaming
	// discipline; the shard-scan fan-out below would answer from frozen
	// labels.
	if st := r.state.Load(); st.patch != nil {
		row := make([]float64, len(targets))
		for _, u := range sources {
			full := st.patch.Row(u)
			for j, t := range targets {
				row[j] = full[t]
			}
			if err := emit(u, row); err != nil {
				return err
			}
		}
		return nil
	}
	so := newScanObserver()

	// Source-run prefetch, one /shardquery per owning shard, concurrent.
	needF := map[int][]int{} // shard id -> deduplicated owned sources
	seen := map[int]struct{}{}
	for _, u := range sources {
		if _, dup := seen[u]; dup {
			continue
		}
		seen[u] = struct{}{}
		su := r.part.Owner(u)
		needF[su] = append(needF[su], u)
	}
	rowsF := make(map[int][]uint64, len(seen))
	var (
		wg sync.WaitGroup
		mu sync.Mutex
	)
	for sid, vs := range needF {
		wg.Add(1)
		go func(sid int, vs []int) {
			defer wg.Done()
			sort.Ints(vs)
			got, _, rep, o, serr := r.fetchRows(sid, vs, nil)
			if serr != nil {
				so.observe(repRef{}, genObs{}, serr)
				return
			}
			mu.Lock()
			for v, run := range got {
				rowsF[v] = run
			}
			mu.Unlock()
			so.observe(repRef{sid, rep.id}, o, nil)
		}(sid, vs)
	}
	wg.Wait()
	if err := so.err(); err != nil {
		return err
	}

	// Group targets by owning shard once; pos remembers each target's
	// column so rows assemble in request order regardless of which shard
	// answered first.
	tgtPos := map[int][]int{} // shard id -> positions into targets
	for j, t := range targets {
		sid := r.part.Owner(t)
		tgtPos[sid] = append(tgtPos[sid], j)
	}
	tgtIDs := make(map[int][]int, len(tgtPos)) // shard id -> target ids, same order as tgtPos
	for sid, pos := range tgtPos {
		ids := make([]int, len(pos))
		for i, j := range pos {
			ids[i] = targets[j]
		}
		tgtIDs[sid] = ids
	}

	row := make([]float64, len(targets))
	for _, u := range sources {
		req := shardScanRequest{Run: encodePackedRun(rowsF[u]), Exclude: -1}
		var rwg sync.WaitGroup
		for sid := range tgtPos {
			rwg.Add(1)
			go func(sid int) {
				defer rwg.Done()
				sreq := req
				sreq.Targets = tgtIDs[sid]
				resp := r.shardScan(sid, sreq, so)
				if resp == nil {
					return
				}
				pos := tgtPos[sid]
				if len(resp.Dists) != len(pos) {
					so.observe(repRef{}, genObs{}, &ShardError{Shard: sid, Replica: -1, Addr: r.shards[sid].addrList(),
						Err: fmt.Errorf("scan of %d targets answered with %d distances", len(pos), len(resp.Dists))})
					return
				}
				mu.Lock()
				for i, j := range pos {
					d := resp.Dists[i]
					if d == -1 {
						d = Infinity
					}
					row[j] = d
				}
				mu.Unlock()
			}(sid)
		}
		rwg.Wait()
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

// --- HTTP handlers ---

func (r *Router) handlePaths(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "use GET /paths?u=&v=")
		return
	}
	u, err1 := strconv.Atoi(req.URL.Query().Get("u"))
	v, err2 := strconv.Atoi(req.URL.Query().Get("v"))
	if err1 != nil || err2 != nil {
		httpError(w, http.StatusBadRequest, "u and v must be integer vertex ids")
		return
	}
	d, path, ok, err := r.Path(u, v)
	if err != nil {
		routeError(w, err)
		return
	}
	resp := map[string]any{"u": u, "v": v, "reachable": ok}
	if ok {
		resp["dist"] = d
		resp["path"] = path
	}
	writeJSON(w, http.StatusOK, resp)
}

func (r *Router) handleKNN(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "use GET /knn?u=&k=")
		return
	}
	u, err1 := strconv.Atoi(req.URL.Query().Get("u"))
	k, err2 := strconv.Atoi(req.URL.Query().Get("k"))
	if err1 != nil || err2 != nil {
		httpError(w, http.StatusBadRequest, "u and k must be integers")
		return
	}
	if k < 1 || k > r.n {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("k must be in [1,%d]", r.n))
		return
	}
	neighbors, err := r.KNN(u, k)
	if err != nil {
		routeError(w, err)
		return
	}
	if neighbors == nil {
		neighbors = []Neighbor{}
	}
	writeJSON(w, http.StatusOK, map[string]any{"u": u, "k": k, "neighbors": neighbors})
}

// handleMatrix streams the matrix as NDJSON in the exact shape the
// single-process Server serves (see streamMatrix): a header line, then
// one flushed line per source row, -1 for unreachable. The header is
// written lazily on the first row so a prefetch failure still gets a
// proper error status; a shard failure after streaming has begun
// terminates the stream with an {"error": ...} line instead — the
// status line is long gone.
func (r *Router) handleMatrix(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST a JSON {\"sources\":[...],\"targets\":[...]} body")
		return
	}
	mreq, ok := decodeMatrixBody(w, req, r.n)
	if !ok {
		return
	}
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	headerWritten := false
	wire := make([]float64, len(mreq.Targets))
	err := r.Matrix(mreq.Sources, mreq.Targets, func(u int, dists []float64) error {
		if !headerWritten {
			headerWritten = true
			w.Header().Set("Content-Type", "application/x-ndjson")
			enc.Encode(map[string]any{"targets": mreq.Targets, "rows": len(mreq.Sources)})
			if flusher != nil {
				flusher.Flush()
			}
		}
		for i, d := range dists {
			if d == Infinity {
				wire[i] = -1 // JSON has no +Inf
			} else {
				wire[i] = d
			}
		}
		if err := enc.Encode(map[string]any{"u": u, "dists": wire}); err != nil {
			return err
		}
		if flusher != nil {
			flusher.Flush()
		}
		return nil
	})
	if err != nil {
		if !headerWritten {
			routeError(w, err)
			return
		}
		enc.Encode(map[string]any{"error": err.Error()})
	}
}

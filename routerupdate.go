package chl

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"

	"repro/internal/delta"
)

// Dynamic edge updates at the router tier. The shards stay frozen —
// they serve the mmap'd index files they were built from and never see
// a patch — so the router owns the whole correction: it keeps the
// accumulated patch log, builds a delta overlay against the base graph
// (RouterConfig.BaseGraph) from the label rows of every patch vertex,
// fetched once at patch-apply time, and corrects each query locally by
// handing the endpoints' fetched rows to that overlay. It is the very
// path the single-process engine runs (delta.Overlay.Query — see
// ARCHITECTURE.md "Dynamic updates"); only where the two runs come from
// differs: the engine reads them from its own index, the router fetches
// them over the shard protocol.
//
// The overlay rides the routerState pointer, so a patch batch swaps
// overlay and answer cache in one atomic publish, and the overlay epoch
// discriminates singleflight keys (flightKey.pepoch): a flight computed
// before a batch can never feed a query arriving after it.
//
// The overlay's seed tables assume the cluster keeps serving the index
// built from BaseGraph. A shard /reload that changes content while
// updates are outstanding invalidates them — the same operator contract
// as the flat server, which refuses to reload under outstanding patches;
// the router cannot refuse (shards reload out from under it), so this is
// a documented operator rule instead.

// errRouterUpdatesDisabled distinguishes "no base graph configured"
// (409) from a bad patch (400) in handleUpdate.
var errRouterUpdatesDisabled = errors.New("chl: router updates disabled — configure RouterConfig.BaseGraph (cmd/chlrouter: -graph) to accept /update")

// ensurePatch replays the update journal once, lazily, on the first
// query or update after construction — NewRouter must never contact
// shards, and replay pins patch-vertex rows. Failed replays are
// retried by the next caller; nothing is marked loaded until the
// journal has been applied in full.
func (r *Router) ensurePatch() error {
	if r.journalLoaded.Load() {
		return nil
	}
	r.patchMu.Lock()
	defer r.patchMu.Unlock()
	if r.journalLoaded.Load() {
		return nil
	}
	ops, err := delta.ReadJournal(r.journal)
	if err != nil {
		return fmt.Errorf("chl: replaying update journal %s: %w", r.journal, err)
	}
	if len(ops) > 0 {
		if _, err := r.applyPatchOpsLocked(ops, false); err != nil {
			return fmt.Errorf("chl: replaying update journal %s: %w", r.journal, err)
		}
	}
	r.journalLoaded.Store(true)
	return nil
}

// Update applies one batch of edge operations to the cluster's served
// graph without touching the shards, journaling it first when a
// journal is configured. The returned stats describe the accumulated
// overlay after the batch.
func (r *Router) Update(ops []EdgeOp) (delta.Stats, error) {
	if r.baseGraph == nil {
		return delta.Stats{}, errRouterUpdatesDisabled
	}
	if len(ops) == 0 {
		return delta.Stats{}, fmt.Errorf("chl: empty patch")
	}
	if err := r.ensurePatch(); err != nil {
		return delta.Stats{}, err
	}
	r.patchMu.Lock()
	defer r.patchMu.Unlock()
	return r.applyPatchOpsLocked(ops, true)
}

// applyPatchOpsLocked validates ops against the accumulated log, builds
// the new overlay (fetching and pinning patch-vertex rows from the
// shards), journals, and publishes the new state. Callers hold patchMu.
// The journal append happens after validation but before any state
// changes — a batch is observable iff it is durable.
func (r *Router) applyPatchOpsLocked(ops []EdgeOp, journal bool) (delta.Stats, error) {
	combined := make([]EdgeOp, 0, len(r.patchOps)+len(ops))
	combined = append(append(combined, r.patchOps...), ops...)
	red, err := delta.Reduce(r.baseGraph, combined)
	if err != nil {
		return delta.Stats{}, err
	}
	fwd, bwd, err := r.fetchPatchRows(red.Verts())
	if err != nil {
		return delta.Stats{}, err
	}
	ov, err := delta.NewOverlay(red, combined, r.patchBatches+1, fwd, bwd)
	if err != nil {
		return delta.Stats{}, err
	}
	if journal && r.journal != "" {
		if err := delta.AppendJournal(r.journal, ops); err != nil {
			return delta.Stats{}, fmt.Errorf("chl: journaling update: %w", err)
		}
	}
	r.patchOps = combined
	r.patchBatches++
	patch := ov
	if ov.Empty() {
		patch = nil
	}
	for {
		st := r.state.Load()
		next := &routerState{
			idents: make([][]genObs, len(st.idents)),
			cache:  r.newAnswerCache(), // the patch batch retires every pre-patch answer
			patch:  patch,
		}
		for i, group := range st.idents {
			next.idents[i] = append([]genObs(nil), group...)
		}
		if r.state.CompareAndSwap(st, next) {
			break
		}
	}
	r.cacheResets.Add(1)
	r.updates.Add(1)
	return ov.Stat(), nil
}

// fetchPatchRows fetches the packed label rows of every patch vertex,
// in verts order — forward always, backward too on directed clusters
// (nil otherwise) — one /shardquery per owning shard.
func (r *Router) fetchPatchRows(verts []int) (fwd, bwd [][]uint64, err error) {
	byShard := map[int][]int{}
	for _, v := range verts {
		sid := r.part.Owner(v)
		byShard[sid] = append(byShard[sid], v)
	}
	sids := make([]int, 0, len(byShard))
	for sid := range byShard {
		sids = append(sids, sid)
	}
	sort.Ints(sids)
	slot := make(map[int]int, len(verts))
	for i, v := range verts {
		slot[v] = i
	}
	fwd = make([][]uint64, len(verts))
	if r.directed {
		bwd = make([][]uint64, len(verts))
	}
	for _, sid := range sids {
		vs := byShard[sid]
		var bvs []int
		if r.directed {
			bvs = vs
		}
		gotF, gotB, rep, o, serr := r.fetchRows(sid, vs, bvs)
		if serr != nil {
			return nil, nil, &ClusterError{Failed: []*ShardError{serr}}
		}
		for v, run := range gotF {
			fwd[slot[v]] = run
		}
		for v, run := range gotB {
			bwd[slot[v]] = run
		}
		r.noteGenerations(map[repRef]genObs{{sid, rep.id}: o})
	}
	return fwd, bwd, nil
}

// routePatchedQueryHub is the leader's half of queryHub under a delta
// overlay: fetch the endpoints' rows and hand them to the overlay, which
// runs the same join/seed/correct/fallback path the engine tier runs.
// Even same-shard pairs take this path — the shard's own /dist would
// answer from frozen labels, which is exactly what the overlay must
// correct. The witness hub is served only when the overlay certifies the
// frozen answer intact (frozen); a corrected distance has no label
// witness and reports hub -1 (see BatchEngine.queryHubPatched — same
// contract).
func (r *Router) routePatchedQueryHub(st *routerState, u, v int, needHub bool) flightResult {
	su, sv := r.part.Owner(u), r.part.Owner(v)
	obs := map[repRef]genObs{}

	// Fetch u's forward row and v's backward (directed) or forward
	// (undirected) row — one /shardquery when one shard owns everything.
	needF := map[int][]int{su: {u}}
	needB := map[int][]int{}
	if r.directed {
		needB[sv] = []int{v}
	} else if v != u {
		needF[sv] = append(needF[sv], v)
	}
	rowShards := map[int]struct{}{su: {}, sv: {}}
	rowsF := map[int][]uint64{}
	rowsB := map[int][]uint64{}
	var repU *replica
	for sid := range rowShards {
		fvs, bvs := needF[sid], needB[sid]
		sort.Ints(fvs)
		gotF, gotB, rep, o, serr := r.fetchRows(sid, fvs, bvs)
		if serr != nil {
			return flightResult{err: &ClusterError{Failed: []*ShardError{serr}}}
		}
		for vert, run := range gotF {
			rowsF[vert] = run
		}
		for vert, run := range gotB {
			rowsB[vert] = run
		}
		if sid == su {
			repU = rep
		}
		obs[repRef{sid, rep.id}] = o
	}
	rowU := rowsF[u]
	rowV := rowsF[v]
	if r.directed {
		rowV = rowsB[v]
	}

	dist, rank0, frozen := st.patch.Query(rowU, rowV, u, v)
	if dist >= Infinity {
		r.cachePut(st, obs, u, v, Answer{Dist: Infinity, Hub: hubUnknown, Reachable: false})
		return flightResult{dist: Infinity, hub: 0, ok: false}
	}
	// Hub contract: -1 (no label witness) unless the overlay certified
	// the frozen answer, in which case the frozen witness still lies on
	// a patched shortest path. Its rank is resolved to an original id
	// only when the caller needs it; hub-less answers cache under
	// hubUnknown (== -1) so a later hub-needing query recomputes — the
	// same collision the engine tier documents on its cache.
	hub := -1
	if frozen {
		switch {
		case u == v:
			hub = u
		case needHub:
			h, o, serr := r.resolveRankOn(repU, int(rank0))
			if serr != nil {
				return flightResult{err: &ClusterError{Failed: []*ShardError{serr}}}
			}
			key := repRef{repU.shard, repU.id}
			if prev, seen := obs[key]; seen && prev != o {
				// The shard reloaded between the row fetch and the rank
				// resolution; the hub is not attributable to the rows that
				// produced the distance.
				return flightResult{err: &ClusterError{Failed: []*ShardError{{
					Shard: repU.shard, Replica: repU.id, Addr: repU.addr,
					Err: fmt.Errorf("snapshot changed during witness resolution"),
				}}}}
			}
			obs[key] = o
			hub = h
		}
	}
	r.cachePut(st, obs, u, v, Answer{Dist: dist, Hub: hub, Reachable: true})
	return flightResult{dist: dist, hub: hub, ok: true}
}

// handleUpdate is POST /update at the router: the same text patch-log
// body the flat server accepts, applied to the cluster without touching
// the shards. 409 when the router has no base graph, 400 on a malformed
// or invalid patch, 502 when pinning patch-vertex rows failed.
func (r *Router) handleUpdate(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST a text patch log (add/del/set lines) to /update")
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, req.Body, maxPatchBytes))
	if err != nil {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("reading patch body: %v", err))
		return
	}
	ops, err := ParsePatchLog(body)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	if len(ops) == 0 {
		httpError(w, http.StatusBadRequest, "empty patch: no add/del/set lines")
		return
	}
	stat, err := r.Update(ops)
	if err != nil {
		switch {
		case errors.Is(err, errRouterUpdatesDisabled):
			httpError(w, http.StatusConflict, err.Error())
		default:
			var ce *ClusterError
			if errors.As(err, &ce) {
				routeError(w, err)
				return
			}
			httpError(w, http.StatusBadRequest, err.Error())
		}
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"applied": len(ops), "patch": stat})
}

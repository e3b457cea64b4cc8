package chl

import (
	"context"
	"errors"
	"fmt"
	"net/http"

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
// (nil otherwise).
func (r *Router) fetchPatchRows(verts []int) (fwd, bwd [][]uint64, err error) {
	var need []int
	if r.directed {
		need = verts
		bwd = make([][]uint64, len(verts))
	}
	// A patch batch (or the journal replay a first query triggers) builds
	// state shared by every later query, so it hangs off a background
	// parent, not whichever caller happened to start it.
	so := newObserver()
	rows := r.fetchRows(context.Background(), verts, need, nil, so)
	if err := so.err(); err != nil {
		return nil, nil, err
	}
	r.noteGenerations(so.obs)
	fwd = make([][]uint64, len(verts))
	for i, v := range verts {
		fwd[i] = rows.fwd[v]
		if r.directed {
			bwd[i] = rows.bwd[v]
		}
	}
	return fwd, bwd, nil
}

// handleUpdate is POST /update at the router: the same text patch-log
// body the flat server accepts, applied to the cluster without touching
// the shards. 409 when the router has no base graph, 400 on a malformed
// or invalid patch, 502 when pinning patch-vertex rows failed.
func (r *Router) handleUpdate(w http.ResponseWriter, req *http.Request) {
	if !allowMethod(w, req, http.MethodPost, "POST a text patch log (add/del/set lines) to /update") {
		return
	}
	ops, ok := decodePatchBody(w, req)
	if !ok {
		return
	}
	stat, err := r.Update(ops)
	var ce *ClusterError
	switch {
	case err == nil:
		writeJSON(w, http.StatusOK, map[string]any{"applied": len(ops), "patch": stat})
	case errors.Is(err, errRouterUpdatesDisabled):
		httpError(w, http.StatusConflict, err.Error())
	case errors.As(err, &ce):
		routeError(w, err)
	default:
		httpError(w, http.StatusBadRequest, err.Error())
	}
}

package chl

import (
	"fmt"

	"repro/internal/delta"
)

// Dynamic edge updates at the router tier (ARCHITECTURE.md "Tier
// split"). The shards stay frozen and never see a patch: the router runs
// the flat server's own patch log (delta.Log) over RouterConfig.BaseGraph,
// whose overlay reads its rows off that graph, so a batch contacts no
// shard. Each overlay is published on the routerState pointer — overlay
// and answer cache swap in one atomic publish, and the overlay epoch
// discriminates singleflight keys (flightKey.pepoch), so a flight computed
// before a batch never feeds a query after it. Queries still join the
// shards' frozen runs, so a shard /reload that changes content while
// updates are outstanding leaves the overlay correcting labels of another
// graph; the router cannot refuse it, so that is an operator rule (ROADMAP
// 8(e)).

// ensurePatch replays the update journal once, lazily, on the first
// query or update after construction, so a journal that cannot be read
// fails requests (500) instead of NewRouter. Failed replays are retried
// by the next caller; nothing is marked loaded until the journal has been
// applied in full.
func (r *Router) ensurePatch() error {
	if r.journalLoaded.Load() {
		return nil
	}
	r.patchMu.Lock()
	defer r.patchMu.Unlock()
	if r.journalLoaded.Load() {
		return nil
	}
	if _, err := r.publishLocked(r.log.Replay(r.unitExp)); err != nil {
		return err
	}
	r.journalLoaded.Store(true)
	return nil
}

// Update applies one batch of edge operations to the cluster's served
// graph without touching the shards, journaling it first when a
// journal is configured. The returned stats describe the accumulated
// overlay after the batch.
func (r *Router) Update(ops []EdgeOp) (delta.Stats, error) {
	if r.log == nil {
		return delta.Stats{}, fmt.Errorf("%w on this router: configure RouterConfig.BaseGraph (cmd/chlrouter: -graph) to accept /update", errUpdatesDisabled)
	}
	if err := r.ensurePatch(); err != nil {
		return delta.Stats{}, err
	}
	r.patchMu.Lock()
	defer r.patchMu.Unlock()
	ov, err := r.publishLocked(r.log.Apply(ops, r.unitExp))
	if err != nil {
		return delta.Stats{}, err
	}
	return ov.Stat(), nil
}

// publishLocked publishes the overlay a patch-log step (Apply or Replay)
// built, if it built one, with a fresh answer cache. Callers hold patchMu.
func (r *Router) publishLocked(ov *delta.Overlay, err error) (*delta.Overlay, error) {
	if err != nil || ov == nil {
		return nil, err
	}
	// The patch batch retires every pre-patch answer.
	for {
		st := r.state.Load()
		if r.state.CompareAndSwap(st, st.with(r.newAnswerCache(), ov.Serving())) {
			break
		}
	}
	r.cacheResets.Add(1)
	r.updates.Add(1)
	return ov, nil
}

// update is POST /update at the router: the same text patch-log body the
// flat server accepts, applied to the cluster without touching the
// shards.
func (r *Router) update(ops []EdgeOp) (any, error) {
	stat, err := r.Update(ops)
	if err != nil {
		return nil, err
	}
	return map[string]any{"applied": len(ops), "patch": stat}, nil
}

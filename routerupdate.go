package chl

import (
	"fmt"

	"repro/internal/delta"
)

// Dynamic edge updates at the router tier (ARCHITECTURE.md "Tier
// split"). The shards stay frozen and never see a patch: the router runs
// the flat server's own patch log (delta.Log) over RouterConfig.BaseGraph,
// whose overlay reads its rows off that graph, so neither a batch nor the
// journal replay NewRouter runs contacts a shard. Each overlay is
// published on the routerState pointer — overlay and answer cache swap in
// one atomic publish, and the overlay epoch discriminates singleflight
// keys (flightKey.pepoch), so a flight computed before a batch never feeds
// a query after it. Queries still join the shards' frozen runs, so a shard
// /reload that changes content while updates are outstanding leaves the
// overlay correcting labels of another graph; the router cannot refuse
// it, so that is an operator rule (ROADMAP 8(e)).

// Update applies one batch of edge operations to the cluster's served
// graph without touching the shards, journaling it first when a
// journal is configured. The returned stats describe the accumulated
// overlay after the batch.
func (r *Router) Update(ops []EdgeOp) (delta.Stats, error) {
	if r.log == nil {
		return delta.Stats{}, fmt.Errorf("%w on this router: configure RouterConfig.BaseGraph (cmd/chlrouter: -graph) to accept /update", errUpdatesDisabled)
	}
	r.patchMu.Lock()
	defer r.patchMu.Unlock()
	ov, err := r.log.Apply(ops)
	if err != nil {
		return delta.Stats{}, err
	}
	r.publishLocked(ov)
	return ov.Stat(), nil
}

// publishLocked publishes ov with a fresh answer cache. Callers hold
// patchMu, or own the router alone, as NewRouter does.
func (r *Router) publishLocked(ov *delta.Overlay) {
	// The patch batch retires every pre-patch answer.
	for {
		st := r.state.Load()
		if r.state.CompareAndSwap(st, st.with(r.newAnswerCache(), ov.Serving())) {
			break
		}
	}
	r.cacheResets.Add(1)
	r.updates.Add(1)
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

package gll

import (
	"time"

	"repro/internal/graph"
	"repro/internal/label"
	"repro/internal/metrics"
	"repro/internal/plant"
	"repro/internal/ptree"
)

// This file implements the §5.4 / §7.2 extension: "using PLaNT for the
// first superstep in shared-memory implementation as well". The first GLL
// superstep is pathological for cleaning — no labels exist yet, p trees run
// concurrently with no pruning information, and the local table collects
// far more than α·n labels, over 30% of CAL's GLL time per Figure 7. A
// PLaNTed first superstep emits only canonical labels (no distance queries,
// no cleaning needed at all) and commits them straight to the global table.

// RunPlantFirst executes GLL with a PLaNTed first superstep. Output is the
// identical CHL.
func RunPlantFirst(g *graph.Graph, opts Options) (*label.Index, *metrics.Build) {
	return run(g, opts, "GLL+PLaNT-first", true)
}

// plantFirstSuperstep PLaNTs roots in rank order until the superstep's
// label budget is reached, then commits the (canonical, clean) labels
// directly to the global table. The roots planted are 0, 1, … in order, so
// tree h is root h and one plant.Commit appends them all.
func (st *State) plantFirstSuperstep(m *metrics.Build) {
	st.steps++
	n := st.g.NumVertices()
	t0 := time.Now()
	scr := plant.NewScratches(st.opts.Workers, n)
	b := plant.Batch{Spans: make([]plant.Span, n), Outs: make([][]plant.Emitted, st.opts.Workers)}
	m.Fold(st.roots(func(w, h int) ptree.Stats {
		return b.Plant(st.g, nil, nil, 0, scr[w], w, h, h)
	}))

	// Commit without cleaning: PLaNT output is canonical.
	planted := min(int(st.next.Load()), n)
	plant.Commit(label.FromSets(st.global, st.g.WeightUnitExp()), st.opts.Workers, 0, b.Spans[:planted], b.Outs)
	m.ConstructTime += time.Since(t0)
	m.Synchronizations++
}

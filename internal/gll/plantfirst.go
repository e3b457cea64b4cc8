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
// directly to the global table.
func (st *State) plantFirstSuperstep(m *metrics.Build) {
	st.steps++
	n := st.g.NumVertices()
	t0 := time.Now()
	scr := plant.NewScratches(st.opts.Workers, n)
	planted := label.NewConcurrentStore(n)
	m.Fold(st.roots(func(w, h int) ptree.Stats {
		return plant.Tree(st.g, h, scr[w], nil, 0, func(v int, d float64) {
			planted.Append(v, label.L{Hub: uint32(h), Dist: d})
		})
	}))

	// Commit without cleaning: PLaNT output is canonical.
	sets := planted.Drain()
	st.sortAll(sets)
	st.commit(sets)
	m.ConstructTime += time.Since(t0)
	m.Synchronizations++
}

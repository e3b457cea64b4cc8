package plant

import (
	"time"

	"repro/internal/graph"
	"repro/internal/label"
	"repro/internal/metrics"
	"repro/internal/ptree"
)

// RunDirected executes PLaNT on a directed graph, producing the directed
// CHL as forward/backward label sets (footnote 1 of the paper). For every
// root h two PLaNTed trees are built: one over G whose labels (h, d(h→v))
// go to the backward sets Lin(v), and one over Gᵀ whose labels (h, d(u→h))
// go to the forward sets Lout(u). The ancestor argument is direction-local,
// so each tree is Algorithm 3 verbatim on its orientation.
func RunDirected(g *graph.Graph, opts Options) (*label.DirectedIndex, *metrics.Build) {
	opts = opts.normalize()
	n := g.NumVertices()
	m := &metrics.Build{Algorithm: "PLaNT-directed", Workers: opts.Workers, Trees: 2 * int64(n)}
	if opts.RecordPerTree {
		m.LabelsPerTree = make([]int64, n)
		m.ExploredPerTree = make([]int64, n)
	}
	gt := g.Transpose()
	lin := label.NewConcurrentStore(n)
	lout := label.NewConcurrentStore(n)
	start := time.Now()
	scr := NewScratches(opts.Workers, n)
	stats := make([]ptree.Stats, opts.Workers)
	ptree.ParallelFor(opts.Workers, n, func(w, h int) {
		st := Tree(g, h, scr[w], nil, 0, func(v int, d float64) {
			lin.Append(v, label.L{Hub: uint32(h), Dist: d})
		})
		st.Add(Tree(gt, h, scr[w], nil, 0, func(v int, d float64) {
			lout.Append(v, label.L{Hub: uint32(h), Dist: d})
		}))
		stats[w].Add(st)
		if opts.RecordPerTree {
			m.LabelsPerTree[h] = st.Labels
			m.ExploredPerTree[h] = st.Explored
		}
	})
	dx := &label.DirectedIndex{Forward: lout.Seal(), Backward: lin.Seal()}
	m.TotalTime = time.Since(start)
	m.ConstructTime = m.TotalTime
	m.Fold(ptree.Sum(stats))
	m.Labels = m.LabelsGenerated
	return dx, m
}

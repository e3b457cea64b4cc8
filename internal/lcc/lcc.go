// Package lcc implements the Label Construction and Cleaning algorithm of
// §4.1 — the paper's first shared-memory parallel algorithm whose final
// output is exactly the Canonical Hub Labeling.
//
// LCC treats concurrent SPT construction as an optimistic parallelization of
// sequential PLL: racy pruning may generate labels that are not in the CHL,
// but — thanks to Rank Queries — only mistakes that are *redundant* (Claim
// 1: the labeling after construction respects R), and Lemma 2 guarantees a
// cleaning pass of PPSD queries can find and delete all of them (Claim 2).
//
// The package operates in rank space (vertex 0 = highest rank).
package lcc

import (
	"runtime"
	"time"

	"repro/internal/graph"
	"repro/internal/label"
	"repro/internal/metrics"
	"repro/internal/ptree"
)

// Options configures an LCC run.
type Options struct {
	// Workers is the number of construction/cleaning goroutines.
	// Zero means GOMAXPROCS.
	Workers int
	// Profile enables lock-acquisition counting on the shared label store
	// (the two-table ablation of §4.2 compares this against GLL).
	Profile bool
}

func (o Options) normalize() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	return o
}

// Run executes LCC and returns the CHL for the identity rank order of g.
func Run(g *graph.Graph, opts Options) (*label.Index, *metrics.Build) {
	opts = opts.normalize()
	n := g.NumVertices()
	m := &metrics.Build{Algorithm: "LCC", Workers: opts.Workers, Trees: int64(n)}

	// ---- LCC-I: parallel label construction (Algorithm 2 lines 2–5):
	// concurrent trees with rank queries against one locked table.
	store := label.NewConcurrentStore(n)
	if opts.Profile {
		store.EnableProfiling()
	}
	start := time.Now()
	m.Fold(ptree.LiveForest(g, store, opts.Workers, true))
	m.LockAcquisitions = store.LockCount()
	ix := store.Seal(g.WeightUnitExp()) // sort labels by hub rank (Algorithm 2 lines 6–7)
	m.ConstructTime = time.Since(start)

	// ---- LCC-II: parallel label cleaning (Algorithm 2 lines 8–11).
	cleanStart := time.Now()
	Clean(ix, opts.Workers, m)
	m.CleanTime = time.Since(cleanStart)
	m.Labels = ix.TotalLabels()
	m.TotalTime = m.ConstructTime + m.CleanTime
	return ix, m
}

// Clean is LCC-II: every label of ix is put to the cleaning query DQ_Clean in
// parallel (read-only, so no locking is needed on the sorted sets) and the
// redundant ones are dropped. It returns the number of labels removed and,
// when m is non-nil, counts the pass into it. It cleans any labeling that
// respects R — a LiveForest with rank queries, or one built by hand in a
// test — into the CHL.
func Clean(ix *label.Index, workers int, m *metrics.Build) int64 {
	sets := make([]label.Set, ix.NumVertices())
	for v := range sets {
		sets[v] = ix.Labels(v)
	}
	surv := make([]label.Set, len(sets))
	st := ptree.Clean(surv, sets, workers, 0, 1)
	for v, s := range surv {
		ix.SetLabels(v, s)
	}
	if m != nil {
		m.Fold(st)
	}
	return st.Cleaned
}

// Package pll implements Pruned Landmark Labeling: the sequential algorithm
// of Akiba et al. (the paper's seqPLL baseline, which outputs the Canonical
// Hub Labeling), and the shared-memory paraPLL of Qiu et al. (SparaPLL — the
// state-of-the-art baseline the paper compares against, which holds the CHL
// but NOT minimality: concurrent trees are built without rank queries and
// add redundant labels).
//
// All functions operate in rank space: the input graph must already be
// permuted so vertex 0 is the highest-ranked vertex.
package pll

import (
	"math"
	"runtime"
	"time"

	"repro/internal/graph"
	"repro/internal/label"
	"repro/internal/metrics"
	"repro/internal/ptree"
)

// Options configures a PLL run.
type Options struct {
	// Workers is the number of construction goroutines for SparaPLL
	// (ignored by Sequential). Zero means GOMAXPROCS.
	Workers int
	// PruneHubBound restricts the sequential constructors' pruning distance
	// queries to hubs ranked in the top PruneHubBound positions (hub id <
	// bound). Zero means unrestricted. This drives the Figure 4 experiment.
	PruneHubBound uint32
	// DisableDistanceQueries turns off the sequential constructors'
	// distance-query pruning entirely (Figure 4's x = 0 point: rank queries
	// only).
	DisableDistanceQueries bool
	// RecordPerTree enables the sequential constructors' per-tree
	// label/exploration series used by Figures 2 and 3.
	RecordPerTree bool
}

func (o Options) normalize() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.DisableDistanceQueries {
		o.PruneHubBound = 0
	} else if o.PruneHubBound == 0 {
		o.PruneHubBound = math.MaxUint32
	}
	return o
}

// UnrestrictedPruning is the PruneHubBound value meaning "use all hubs".
const UnrestrictedPruning = math.MaxUint32

// Sequential runs sequential pruned landmark labeling and returns the
// Canonical Hub Labeling for the identity rank order of g, together with
// instrumentation. With a restricted PruneHubBound the output is a (larger)
// labeling that still satisfies the cover property but is only canonical for
// bound = MaxUint32 (Figure 4 measures exactly this growth).
func Sequential(g *graph.Graph, opts Options) (*label.Index, *metrics.Build) {
	opts = opts.normalize()
	n := g.NumVertices()
	ix := label.NewIndex(n, g.WeightUnitExp())
	m := sequential("seqPLL", n, opts, func(s *ptree.Scratch, h int) ptree.Stats {
		return tree(g, s, ix.Labels(h), ix, h, opts.PruneHubBound)
	})
	m.Trees = int64(n)
	return ix, m
}

// sequential drives the sequential constructors: the trees of roots 0..n-1,
// strictly in rank order on one scratch, each counted into the build record.
func sequential(algorithm string, n int, opts Options, root func(s *ptree.Scratch, h int) ptree.Stats) *metrics.Build {
	m := &metrics.Build{Algorithm: algorithm, Workers: 1}
	if opts.RecordPerTree {
		m.LabelsPerTree = make([]int64, n)
		m.ExploredPerTree = make([]int64, n)
	}
	s := ptree.NewScratch(n)
	start := time.Now()
	for h := 0; h < n; h++ {
		st := root(s, h)
		m.Fold(st)
		if opts.RecordPerTree {
			m.LabelsPerTree[h] = st.Labels
			m.ExploredPerTree[h] = st.Explored
		}
	}
	m.ConstructTime = time.Since(start)
	m.TotalTime = m.ConstructTime
	m.Labels = m.LabelsGenerated // one tree at a time: nothing is ever redundant
	return m
}

// tree builds the pruned SPT rooted at h over dir against — and into — the
// labeling `into`. root is the set hashed for the distance query: L_h itself
// on an undirected graph, the root's opposite-side labels on a directed one.
// Labels are appended in ascending root order so Index.Append stays O(1).
//
// This loop is deliberately not ptree.Tree: it is the reference every other
// constructor's output is compared against, and a reference that shares the
// code under test proves nothing.
func tree(dir *graph.Graph, s *ptree.Scratch, root label.Set, into *label.Index, h int, bound uint32) ptree.Stats {
	var st ptree.Stats
	s.Start(h)
	s.HD.Load(root)
	for !s.Heap.Empty() {
		v, dv := s.Heap.Pop()
		st.Explored++
		// Rank query: a vertex ranked above the root can never take the
		// root as a hub (sequentially, the distance query would prune here
		// too; the explicit check is faster).
		if v < h {
			st.RankPruned++
			continue
		}
		// Distance query DQ(v, h, δ): prune if a previously discovered
		// common hub already covers the pair at distance ≤ δ.
		if v != h && bound > 0 {
			st.Queries++
			if s.HD.QueryAgainstBounded(into.Labels(v), dv, bound) {
				st.DistPruned++
				continue
			}
		}
		st.Labels++
		into.Append(v, label.Pack(uint32(h), label.Units(v, uint32(h), dv, dir.WeightUnitExp())))
		heads, wts := dir.Neighbors(v)
		for i, uu := range heads {
			u := int(uu)
			nd := dv + uint64(wts[i])
			st.Relaxed++
			if nd < s.Dist[u] {
				if s.Dist[u] == graph.Unreached {
					s.Dirty = append(s.Dirty, int32(uu))
				}
				s.Dist[u] = nd
				s.Heap.Push(u, nd)
			}
		}
	}
	return st
}

// SParaPLL runs the shared-memory paraPLL baseline: Workers goroutines claim
// the highest-ranked unprocessed root (dynamic task assignment) and run
// pruned Dijkstra concurrently, with the root's label set hashed before the
// next claim and per-vertex locking on label reads and appends — ptree.Forest
// over every root, beside an empty global table. No rank queries are
// performed, so concurrently built trees may label vertices ranked above
// their root: the output holds the CHL plus redundant labels, and the
// redundancy grows with Workers — the effect Table 3 and Figure 9 quantify.
func SParaPLL(g *graph.Graph, opts Options) (*label.Index, *metrics.Build) {
	opts = opts.normalize()
	m := &metrics.Build{Algorithm: "SparaPLL", Workers: opts.Workers, Trees: int64(g.NumVertices())}
	n := g.NumVertices()
	roots := make([]int, n)
	for h := range roots {
		roots[h] = h
	}
	local := label.NewConcurrentStore(n)
	start := time.Now()
	m.Fold(ptree.Forest(g, roots, ptree.NewScratches(opts.Workers, n), false, make([]label.Set, n), local))
	ix := label.FromSets(ptree.DrainSorted(local, opts.Workers), g.WeightUnitExp())
	m.ConstructTime = time.Since(start)
	m.TotalTime = m.ConstructTime
	m.Labels = ix.TotalLabels()
	return ix, m
}

// Package ptree holds the two primitives every parallel constructor in this
// repository is a policy over, each exactly once:
//
//   - Tree is Algorithm 1 (pruneDijRQ): one pruned Dijkstra, varied at the
//     three points the paper varies it at — is the rank query asked, which
//     table answers the distance query (covered), where does the label go
//     (emit). paraPLL, LCC, GLL, DparaPLL and DGLL differ in those
//     arguments and in when they synchronize, nothing else.
//     The two table regimes the paper uses are here as well: LiveForest
//     (one locked table) and TwoTableTree (lock-free global + locked local).
//   - Redundant is the cleaning query DQ_Clean of Algorithm 2, and Clean the
//     pass that applies it to whole label sets.
//
// Around them sit what every caller needs to run trees in parallel: the
// per-worker Scratch, the Stats a tree reports (one value with Add, folded
// into a metrics.Build by Build.Fold), and the dynamic pool ParallelFor
// (ParallelRange where items are too cheap to claim one at a time).
//
// Two traversals stay outside on purpose. pll.Sequential is the reference
// the others are compared against and shares only the Scratch. plant.Tree
// propagates ancestors and stops early, which Tree would have to branch on,
// and it settles from another queue: PLaNT's labels do not depend on the
// order of equal-distance vertices, so its trees settle a bucket of a
// vheap.Window at a time, while Tree's pruned labels follow the heap's
// exact pop order (paraPLL's redundant labels depend on it).
//
// The package operates in rank space (vertex 0 = highest rank).
package ptree

import (
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/label"
	"repro/internal/vheap"
)

// Scratch is the per-worker state of a Dijkstra variant, reusable across
// trees. The distance array is reset via the dirty list (only elements
// touched by the previous run are reinitialized — the trick in Algorithm
// 1's footnote 2). A Scratch is owned by one goroutine at a time.
//
// The heap's and the dirty list's slice headers are written on every pop
// and push, so the whole state is one struct padded on both sides: wherever
// the allocator puts the workers' scratches, no two share a cache line.
// (Side by side they do, and a 2-worker GLL build ran 30% longer.)
type Scratch struct {
	_     [64]byte
	Dist  []float64
	Dirty []int32 // vertices whose Dist is finite, in first-touched order
	Heap  vheap.Heap
	HD    label.HashDist // LR = hash(L_h); loaded by the caller
	_     [64]byte
}

// NewScratch allocates scratch for graphs with n vertices.
func NewScratch(n int) *Scratch {
	s := &Scratch{
		Dist: make([]float64, n),
		Heap: *vheap.New(n),
		HD:   *label.NewHashDist(n),
	}
	for i := range s.Dist {
		s.Dist[i] = graph.Infinity
	}
	return s
}

// NewScratches allocates one Scratch per worker of a pool.
func NewScratches(workers, n int) []*Scratch {
	scr := make([]*Scratch, workers)
	for w := range scr {
		scr[w] = NewScratch(n)
	}
	return scr
}

// Start forgets the previous tree in O(touched) and queues root h at
// distance 0 on the heap. HD is the caller's to load and is left alone.
func (s *Scratch) Start(h int) {
	s.Reset(h)
	s.Heap.Clear()
	s.Heap.Push(h, 0)
}

// Reset is Start for a tree that queues its root elsewhere: it forgets the
// previous tree's distances and sets root h's to 0, and leaves the heap
// alone.
func (s *Scratch) Reset(h int) {
	for _, v := range s.Dirty {
		s.Dist[v] = graph.Infinity
	}
	s.Dirty = append(s.Dirty[:0], int32(h))
	s.Dist[h] = 0
}

// Stats counts what trees and cleaning passes did. Workers accumulate it by
// value and sum with Add; no counter is shared while a tree runs.
type Stats struct {
	Explored   int64 // vertices popped
	Relaxed    int64 // edges relaxed
	Labels     int64 // labels emitted
	Queries    int64 // pruning distance queries issued
	RankPruned int64 // pops cut by the rank query (PLaNT: by an ancestor above the Common Label Table's bound)
	DistPruned int64 // pops cut by a distance query

	CleanQueries int64 // cleaning queries evaluated
	CleanEntries int64 // label entries their merge-joins touched
	Cleaned      int64 // labels found redundant
}

// Add accumulates o into s.
func (s *Stats) Add(o Stats) {
	s.Explored += o.Explored
	s.Relaxed += o.Relaxed
	s.Labels += o.Labels
	s.Queries += o.Queries
	s.RankPruned += o.RankPruned
	s.DistPruned += o.DistPruned
	s.CleanQueries += o.CleanQueries
	s.CleanEntries += o.CleanEntries
	s.Cleaned += o.Cleaned
}

// Sum adds up per-worker stats.
func Sum(stats []Stats) Stats {
	var total Stats
	for _, st := range stats {
		total.Add(st)
	}
	return total
}

// Psi is the Ψ ratio: vertices explored per label generated (Figure 3).
// With no labels generated it reports Explored.
func (s Stats) Psi() float64 {
	if s.Labels == 0 {
		return float64(s.Explored)
	}
	return float64(s.Explored) / float64(s.Labels)
}

// Tree is Algorithm 1: the pruned Dijkstra from root h over g. A popped
// vertex v at tentative distance δ is cut — no label, no relaxation — when
// rankQuery is set and v outranks h, or when covered(v, δ) says an existing
// hub already covers the pair (h, v) within δ; otherwise emit(v, δ) receives
// the label and v's edges are relaxed. The root is never queried. covered
// and emit run on the calling goroutine, in ascending distance order.
//
// The rank query is what makes a racy labeling respect R (Claim 1) and
// therefore cleanable: a vertex ranked above the root gets no label even
// when the distance query would have let it through.
func Tree(g *graph.Graph, h int, s *Scratch, rankQuery bool,
	covered func(v int, dist float64) bool, emit func(v int, dist float64)) Stats {
	var st Stats
	s.Start(h)
	for !s.Heap.Empty() {
		v, dv := s.Heap.Pop()
		st.Explored++
		if rankQuery && v < h { // Rank Query (Alg. 1 line 5)
			st.RankPruned++
			continue
		}
		if v != h { // Distance Query (Alg. 1 line 6)
			st.Queries++
			if covered(v, dv) {
				st.DistPruned++
				continue
			}
		}
		emit(v, dv)
		st.Labels++
		heads, wts := g.Neighbors(v)
		for i, uu := range heads {
			u := int(uu)
			nd := dv + wts[i]
			st.Relaxed++
			if nd < s.Dist[u] {
				if s.Dist[u] == graph.Infinity {
					s.Dirty = append(s.Dirty, int32(uu))
				}
				s.Dist[u] = nd
				s.Heap.Push(u, nd)
			}
		}
	}
	return st
}

// LiveForest builds the trees of all roots concurrently against — and
// into — one store locked per vertex: a root's labels are hashed when its
// tree starts, the distance query joins them with v's labels of the moment,
// and the label is appended on the spot. This is the construction regime of
// paraPLL (rankQuery false: cover property only, redundancy grows with
// workers), and of LCC-I (true: the output respects R, so cleaning turns
// it into the CHL).
//
// Roots are claimed in rank order, and a root's labels are hashed before
// the next root can be claimed. Without rank queries a lower-ranked tree
// may label h; had it done so before h's hash, h's tree could prune a
// vertex through that lower hub and drop a CHL label. Hashed first, every
// hub that prunes h's tree outranks h, so paraPLL's output holds the CHL
// and only adds redundant labels to it.
func LiveForest(g *graph.Graph, store *label.ConcurrentStore, workers int, rankQuery bool) Stats {
	n := g.NumVertices()
	scr := NewScratches(workers, n)
	stats := make([]Stats, workers)
	var claim sync.Mutex
	next := 0
	// One task per worker; each claims roots until none is left.
	ParallelFor(workers, workers, func(w, _ int) {
		s := scr[w]
		for {
			claim.Lock()
			h := next
			next++
			if h < n {
				s.HD.Reset()
				store.AddTo(&s.HD, h)
			}
			claim.Unlock()
			if h >= n {
				return
			}
			stats[w].Add(Tree(g, h, s, rankQuery,
				func(v int, dist float64) bool { return store.QueryAgainst(&s.HD, v, dist) },
				func(v int, dist float64) { store.Append(v, label.L{Hub: uint32(h), Dist: dist}) }))
		}
	})
	return Sum(stats)
}

// TwoTableTree is Tree in GLL's regime (§4.2): global is immutable during a
// construction phase and read without locks, local is locked per vertex and
// receives the tree's labels. The root's labels in both are hashed first;
// distance queries consult global, then local (footnote 4: "the Label
// Construction step uses both global and local table to answer distance
// queries"). DGLL and DparaPLL run it on every node, the replicated table as
// global — DparaPLL without rank queries (§3).
func TwoTableTree(g *graph.Graph, h int, s *Scratch, rankQuery bool, global []label.Set, local *label.ConcurrentStore) Stats {
	s.HD.Load(global[h])
	local.AddTo(&s.HD, h)
	return Tree(g, h, s, rankQuery,
		func(v int, dist float64) bool {
			return s.HD.QueryAgainst(global[v], dist) || local.QueryAgainst(&s.HD, v, dist)
		},
		func(v int, dist float64) { local.Append(v, label.L{Hub: uint32(h), Dist: dist}) })
}

// Redundant is the Cleaning Query of Algorithm 2 (lines 12–16): the label
// (h, δ) of a vertex whose sorted set is lv is redundant iff some hub ranked
// strictly above h is common to lv and lh — the sorted set of h itself —
// with the two distances summing to at most δ. Only hubs outranking h
// qualify, so the merge-join stops at h in either set; per footnote 3 it
// also stops at the first satisfying hub. entries counts the steps taken.
func Redundant(lv, lh label.Set, h uint32, delta float64) (redundant bool, entries int64) {
	i, j := 0, 0
	for i < len(lv) && j < len(lh) && lv[i].Hub < h && lh[j].Hub < h {
		entries++
		switch a, b := lv[i], lh[j]; {
		case a.Hub < b.Hub:
			i++
		case a.Hub > b.Hub:
			j++
		case a.Dist+b.Dist <= delta:
			return true, entries
		default:
			i++
			j++
		}
	}
	return false, entries
}

// Clean runs the cleaning pass over the vertices first, first+stride, … of
// sets (sorted, indexed by vertex; a hub's set is sets[hub]): each label but
// the self label is put to Redundant, and the survivors of every cleaned
// vertex v are appended to dst[v]. Other entries of dst are left alone.
//
// sets is only read: a worker deciding the labels of v merge-joins the sets
// of v's hubs, which other workers are deciding at the same moment, so
// nothing may be compacted in place, and dst must not share storage with
// sets. A caller that wants the survivors alone passes fresh nil sets; GLL
// passes its global table, which the survivors extend in order because they
// are all hubs of the superstep being cleaned.
func Clean(dst, sets []label.Set, workers, first, stride int) Stats {
	stats := make([]Stats, workers)
	ParallelRange(workers, (len(sets)-first+stride-1)/stride, func(w, lo, hi int) {
		var st Stats // folded into the shared slice once per chunk
		for k := lo; k < hi; k++ {
			v := first + k*stride
			lv := sets[v]
			if len(lv) == 0 {
				continue
			}
			out := slices.Grow(dst[v], len(lv))
			for _, l := range lv {
				if int(l.Hub) != v {
					st.CleanQueries++
					redundant, entries := Redundant(lv, sets[l.Hub], l.Hub, l.Dist)
					st.CleanEntries += entries
					if redundant {
						st.Cleaned++
						continue
					}
				}
				out = append(out, l)
			}
			dst[v] = out
		}
		stats[w].Add(st)
	})
	return Sum(stats)
}

// rangeChunk is how many consecutive items ParallelRange hands out at once:
// enough that the shared counter costs nothing next to even an empty item,
// few enough that a small input still spreads over the workers.
const rangeChunk = 32

// ParallelRange is ParallelFor over chunks of consecutive items, for loops
// whose items are too cheap to claim one at a time: fn(worker, lo, hi)
// covers the items [lo, hi).
func ParallelRange(workers, n int, fn func(worker, lo, hi int)) {
	ParallelFor(workers, (n+rangeChunk-1)/rangeChunk, func(w, c int) {
		fn(w, c*rangeChunk, min(n, (c+1)*rangeChunk))
	})
}

// ParallelFor runs fn(worker, i) for every i in [0, n) on up to workers
// goroutines that pull the next i from a shared counter — dynamic task
// assignment, so items are started in ascending order, which is the rank
// order the label loops need. worker is in [0, workers) and identifies the
// calling goroutine, for per-worker scratch. One worker runs inline.
func ParallelFor(workers, n int, fn func(worker, i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				fn(w, i)
			}
		}(w)
	}
	wg.Wait()
}

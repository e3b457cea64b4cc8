// Package ptree holds the two primitives every parallel constructor in this
// repository is a policy over, each exactly once:
//
//   - Tree is Algorithm 1 (pruneDijRQ): one pruned Dijkstra, varied at the
//     three points the paper varies it at — is the rank query asked, which
//     table answers the distance query (covered), where does the label go
//     (emit). paraPLL, GLL (and LCC, its α = +Inf case), DparaPLL and DGLL
//     differ in those arguments and in when they synchronize, nothing else.
//     Their one table regime is here as well: a lock-free global table
//     beside a locked local one (with the global table empty, paraPLL's
//     and LCC's one locked table): Forest is its root pool, TwoTableTree
//     one tree of it, and DrainSorted turns the local table into sets.
//   - Redundant is the cleaning query DQ_Clean of Algorithm 2, and Clean the
//     pass that applies it to whole label sets.
//
// Around them sit what every caller needs to run trees in parallel: the
// per-worker Scratch, the Stats a tree reports (one value with Add, folded
// into a metrics.Build by Build.Fold), and the dynamic pool ParallelFor
// (ParallelRange where items are too cheap to claim one at a time).
//
// Tree settles from the worker's vheap.Window a bucket at a time, as
// plant.Tree does: which labels a tree emits, and every counter it keeps,
// do not depend on the order in which equal-distance vertices settle
// (Tree's doc). Two traversals stay outside on purpose. pll.Sequential is the reference the
// others are compared against, shares only the Scratch, and still pops its
// heap (Start). plant.Tree propagates ancestors and stops early, which Tree
// would have to branch on.
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
// Win is the bucket queue the trees settle from (Tree, plant.Tree); it
// parks its far distances on Heap, which pll.Sequential's reference loop
// pops directly (Start).
//
// The heap's and the dirty list's slice headers are written on every pop
// and push, so the whole state is one struct padded on both sides: wherever
// the allocator puts the workers' scratches, no two share a cache line.
// (Side by side they do, and a 2-worker GLL build ran 30% longer.) The
// window is padded on its own.
type Scratch struct {
	_     [64]byte
	Dist  []uint64 // in units of the graph's 2^-k
	Dirty []int32  // vertices whose Dist is finite, in first-touched order
	Heap  vheap.Heap
	Win   *vheap.Window  // over Heap
	HD    label.HubTable // LR = hash(L_h); loaded by the caller
	_     [64]byte
}

// NewScratch allocates scratch for graphs with n vertices.
func NewScratch(n int) *Scratch {
	s := &Scratch{
		Dist: make([]uint64, n),
		Heap: *vheap.New(n),
		HD:   *label.NewHubTable(n),
	}
	s.Win = vheap.NewWindow(&s.Heap)
	for i := range s.Dist {
		s.Dist[i] = graph.Unreached
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

// Reset is Start for a tree that queues its root on the window: it forgets
// the previous tree's distances and sets root h's to 0, and leaves the heap
// alone.
func (s *Scratch) Reset(h int) {
	for _, v := range s.Dirty {
		s.Dist[v] = graph.Unreached
	}
	s.Dirty = append(s.Dirty[:0], int32(h))
	s.Dist[h] = 0
}

// Stats counts what trees and cleaning passes did. Workers accumulate it by
// value and sum with Add; no counter is shared while a tree runs.
type Stats struct {
	Explored   int64 // vertices settled
	Relaxed    int64 // edges relaxed
	Labels     int64 // labels emitted
	Queries    int64 // pruning distance queries issued
	RankPruned int64 // settled vertices cut by the rank query (PLaNT: by an ancestor above the Common Label Table's bound)
	DistPruned int64 // settled vertices cut by a distance query

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

// Tree is Algorithm 1: the pruned Dijkstra from root h over g. A settled
// vertex v at distance δ is cut — no label, no relaxation — when rankQuery
// is set and v outranks h, or when covered(v, δ) says an existing hub
// already covers the pair (h, v) within δ; otherwise emit(v, δ) receives
// the label and v's edges are relaxed. δ counts units of g's 2^-k, and emit
// receives it as a label distance, refusing 2^32 units or more (label.Units).
// The root is never queried. covered and emit run on the calling goroutine,
// in bucket order: by distance, up to the order of the distances that share
// a bucket.
//
// The tree settles a bucket of s.Win at a time, with buckets 2^⌊log₂ w_min⌋
// units wide (w_min the lightest arc): every relaxation lands in a later
// bucket, so a vertex's distance is final when its bucket is reached, and
// each vertex settles once, at that distance, whatever the order within
// the bucket. The cuts read no label the tree has emitted: the root's
// labels are hashed before it starts, and a vertex is queried before it
// has a label of its own. So the labels and every counter are those of a
// heap-ordered pruned Dijkstra (FuzzTree).
//
// The rank query is what makes a racy labeling respect R (Claim 1) and
// therefore cleanable: a vertex ranked above the root gets no label even
// when the distance query would have let it through.
func Tree(g *graph.Graph, h int, s *Scratch, rankQuery bool,
	covered func(v int, dist uint64) bool, emit func(v int, dist uint32)) Stats {
	var st Stats
	k := g.WeightUnitExp()
	s.Reset(h)
	dist, win := s.Dist, s.Win
	win.Start(g.MinUnits())
	win.Queue(h, 0)
	for more := true; more; more = win.Next(dist) {
		// Every relaxation lands in a later bucket, so this one does not
		// grow while it is settled.
		for _, e := range win.Bucket() {
			v, dv := int(e.V), e.D
			if dv != dist[v] {
				continue // improved since it was queued here
			}
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
			emit(v, label.Units(v, uint32(h), dv, k))
			st.Labels++
			heads, wts := g.Neighbors(v)
			st.Relaxed += int64(len(heads))
			for i, uu := range heads {
				u := int(uu)
				nd := dv + uint64(wts[i])
				if du := dist[u]; nd < du {
					if du == graph.Unreached {
						s.Dirty = append(s.Dirty, int32(uu))
					}
					dist[u] = nd
					win.Queue(u, nd)
				}
			}
		}
	}
	return st
}

// Forest builds the trees of roots concurrently, one worker per scratch, in
// GLL's two-table regime (§4.2): distance queries consult global, which is
// immutable while the forest grows and read without locks, then local,
// which is locked per vertex and receives the labels (footnote 4). SparaPLL
// runs it over every root beside an empty global table; every DparaPLL and
// DGLL node over its round-robin share of a superstep, the replicated table
// as global.
//
// Roots are claimed in the order given, and a root's labels in both tables
// are hashed before the next claim. Without rank queries a later root's
// tree may label h; had it done so before h's hash, h's tree could prune
// through that lower hub and drop a CHL label. Hashed first, every hub that
// prunes h's tree was claimed before h, so over roots in rank order
// paraPLL's output holds the CHL plus redundant labels.
func Forest(g *graph.Graph, roots []int, scr []*Scratch, rankQuery bool, global []label.Set, local *label.ConcurrentStore) Stats {
	stats := make([]Stats, len(scr))
	var claim sync.Mutex
	next := 0
	// One task per worker; each claims roots until none is left.
	ParallelFor(len(scr), len(scr), func(w, _ int) {
		s := scr[w]
		for {
			claim.Lock()
			i := next
			next++
			if i < len(roots) {
				s.HashRoot(roots[i], global, local)
			}
			claim.Unlock()
			if i >= len(roots) {
				return
			}
			stats[w].Add(TwoTableTree(g, roots[i], s, rankQuery, global, local))
		}
	})
	return Sum(stats)
}

// HashRoot loads root h's labels in both tables into s.HD, for
// TwoTableTree.
func (s *Scratch) HashRoot(h int, global []label.Set, local *label.ConcurrentStore) {
	s.HD.Load(global[h])
	local.AddTo(&s.HD, h)
}

// TwoTableTree is one tree of Forest's regime, from h against the labels
// HashRoot loaded. GLL's pool runs it directly: its rank queries make the
// claim order irrelevant, and its α·n label budget ends a superstep.
func TwoTableTree(g *graph.Graph, h int, s *Scratch, rankQuery bool, global []label.Set, local *label.ConcurrentStore) Stats {
	return Tree(g, h, s, rankQuery,
		func(v int, dist uint64) bool {
			return s.HD.QueryAgainst(global[v], dist) || local.QueryAgainst(&s.HD, v, dist)
		},
		func(v int, dist uint32) { local.Append(v, label.Pack(uint32(h), dist)) })
}

// DrainSorted empties local into per-vertex sets and sorts them on up to
// workers goroutines: what a forest's labels go through before anything
// reads them as sets (an index, a cleaning pass, an AllGather). The store
// stays usable; Recycle hands it the sets' storage back.
func DrainSorted(local *label.ConcurrentStore, workers int) []label.Set {
	sets := local.Drain()
	ParallelRange(workers, len(sets), func(_, lo, hi int) {
		for _, s := range sets[lo:hi] {
			s.Sort()
		}
	})
	return sets
}

// Redundant is the Cleaning Query of Algorithm 2 (lines 12–16): the label
// (h, δ) of a vertex whose sorted set is lv is redundant iff some hub ranked
// strictly above h is common to lv and lh — the sorted set of h itself —
// with the two distances summing to at most δ. Only hubs outranking h
// qualify, so the merge-join stops at h in either set; per footnote 3 it
// also stops at the first satisfying hub. entries counts the steps taken.
func Redundant(lv, lh label.Set, h, delta uint32) (redundant bool, entries int64) {
	i, j, end := 0, 0, uint64(h)<<32
	for i < len(lv) && j < len(lh) && lv[i] < end && lh[j] < end {
		entries++
		switch a, b := lv[i], lh[j]; {
		case label.Hub(a) < label.Hub(b):
			i++
		case label.Hub(a) > label.Hub(b):
			j++
		case uint64(label.Dist(a))+uint64(label.Dist(b)) <= uint64(delta):
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
				if h := label.Hub(l); int(h) != v {
					st.CleanQueries++
					redundant, entries := Redundant(lv, sets[h], h, label.Dist(l))
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
// calling goroutine, for per-worker scratch. One worker runs inline. A
// panic in fn (a tree's label.Units refusal, say) stops the claiming and is
// raised again on the caller's goroutine once every worker has returned.
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
	var fault sync.Once
	var raised any
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					next.Store(int64(n))
					fault.Do(func() { raised = p })
				}
			}()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				fn(w, i)
			}
		}(w)
	}
	wg.Wait()
	if raised != nil {
		panic(raised)
	}
}

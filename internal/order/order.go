// Package order computes ranking functions (network hierarchies) R over a
// graph's vertices. The labeling algorithms consume an Order as the total
// order of SPT roots; a good order ranks central vertices first so that few
// hubs cover many shortest paths (§1). Following §7.1.1 of the paper, degree
// ordering is used for scale-free networks and sampled approximate
// betweenness for road networks. Degree order is one pass over the graph;
// betweenness plants one shortest path tree per sample, and on the bench's
// road fixture (256 samples) it is most of set-up — order.rank_s in bench/.
// Its samples run in parallel, and the order it returns does not depend on
// the worker count. Each sample tree settles a bucket at a time from the
// worker's vheap.Window, as internal/sssp's rows do, and its Brandes
// back-propagation walks the shortest-path predecessors the tree recorded,
// so memory is O(workers·(n+m)).
package order

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/vheap"
)

// Order is a total order on vertices. Perm lists vertex ids from highest
// rank to lowest (Perm[0] is the top-ranked vertex); Rank is the inverse
// (Rank[v] = position of v, 0 = highest). R(u) > R(v) ⇔ Rank[u] < Rank[v].
type Order struct {
	Perm []int
	Rank []int
}

// FromPerm builds an Order from a permutation listing vertices by
// decreasing rank. It validates that perm is a permutation of [0,n).
func FromPerm(perm []int) (*Order, error) {
	n := len(perm)
	rank := make([]int, n)
	for i := range rank {
		rank[i] = -1
	}
	for pos, v := range perm {
		if v < 0 || v >= n || rank[v] != -1 {
			return nil, fmt.Errorf("order: perm[%d]=%d is not a permutation of [0,%d)", pos, v, n)
		}
		rank[v] = pos
	}
	return &Order{Perm: append([]int(nil), perm...), Rank: rank}, nil
}

// MustFromPerm is FromPerm for inputs correct by construction.
func MustFromPerm(perm []int) *Order {
	o, err := FromPerm(perm)
	if err != nil {
		panic(err)
	}
	return o
}

// Identity returns the order in which vertex 0 ranks highest.
func Identity(n int) *Order {
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	return MustFromPerm(perm)
}

// Random returns a uniformly random order (useful for adversarial tests —
// the CHL is defined for *any* R).
func Random(n int, seed int64) *Order {
	perm := rand.New(rand.NewSource(seed)).Perm(n)
	return MustFromPerm(perm)
}

// ByDegree ranks vertices by decreasing degree (in+out for directed graphs),
// breaking ties by vertex id. This is the ordering the paper uses for
// scale-free networks (after Akiba et al.).
func ByDegree(g *graph.Graph) *Order {
	n := g.NumVertices()
	score := make([]float64, n)
	for v := 0; v < n; v++ {
		score[v] = float64(g.Degree(v))
		if g.Directed() {
			score[v] += float64(g.InDegree(v))
		}
	}
	return byScore(score)
}

// ByApproxBetweenness ranks vertices by an approximation of betweenness
// centrality obtained from `samples` shortest path trees (Brandes'
// dependency accumulation on sampled roots). This is the ordering the paper
// uses for road networks ("Betweenness is approximated by sampling a few
// shortest path trees", §7.1.1). Degree is the tie breaker so the order is
// deterministic for a given seed.
//
// The sample trees are independent, so `workers` goroutines (0 =
// GOMAXPROCS) plant them at once, each claiming the next sample as it
// finishes one. Their dependency vectors are folded into the scores in
// sample order, so every score sees the same float additions in the same
// order as a single worker would make: the order does not depend on
// `workers`. Memory is O(workers·(n+m)), and a sample allocates only where
// a bucket of its tree holds more entries than any before it.
func ByApproxBetweenness(g *graph.Graph, samples int, seed int64, workers int) *Order {
	if g.NumVertices() == 0 {
		return Identity(0)
	}
	score := sampledBetweenness(g, samples, seed, workers)
	// Deterministic tie-break: out-degree (in- plus out-degree would be
	// ByDegree's, which differs on directed graphs), then id.
	for v := range score {
		score[v] += float64(g.Degree(v)) * 1e-9
	}
	return byScore(score)
}

// sampledBetweenness is every vertex's summed dependency on the sampled
// sources, on a non-empty graph.
func sampledBetweenness(g *graph.Graph, samples int, seed int64, workers int) []float64 {
	n := g.NumVertices()
	samples = min(max(samples, 1), n)
	rng := rand.New(rand.NewSource(seed))
	srcs := make([]int, samples)
	for i := range srcs {
		srcs[i] = rng.Intn(n)
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, samples)

	// Two ring slots per worker let the others run ahead of one slow
	// sample for a whole round before they wait for its fold.
	f := newFolder(n, min(2*workers, samples))
	var next atomic.Int64
	work := func() {
		b := newBrandes(g)
		for {
			i := int(next.Add(1) - 1)
			if i >= samples {
				return
			}
			delta := f.acquire(i)
			b.dependencies(g, srcs[i], delta)
			f.release(i)
		}
	}
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	return f.score
}

// brandes is one worker's scratch for planting sample trees on a bucket
// window (vheap.Window), as sssp's rows do. Vertex v's shortest-path
// predecessors P[v] (Brandes 2001) are pred[vs[v].off : vs[v].off +
// vs[v].npred]: the slots of v's in-arcs, which is as many as v can have.
// A relaxation reads and writes σ, the offset and the count together, so
// they share one record; dist is its own array because Window.Next reads
// it.
type brandes struct {
	dist    []uint64 // in units of the graph's 2^-k
	vs      []vert
	settled []int32
	pred    []int32
	win     *vheap.Window
}

// vert is a vertex's record in a sample tree.
type vert struct {
	sigma float64 // σ: the number of shortest paths from the source
	off   uint32
	npred uint32
}

func newBrandes(g *graph.Graph) *brandes {
	n := g.NumVertices()
	if uint64(g.NumArcs()) > math.MaxUint32 {
		panic(fmt.Sprintf("order: %d arcs do not fit a uint32 predecessor offset", g.NumArcs()))
	}
	b := &brandes{
		dist:    make([]uint64, n),
		vs:      make([]vert, n),
		settled: make([]int32, 0, n),
		pred:    make([]int32, g.NumArcs()),
		win:     vheap.NewWindow(vheap.New(n)),
	}
	at := 0
	for v := range b.vs {
		b.vs[v].off = uint32(at)
		at += g.InDegree(v)
	}
	return b
}

// dependencies plants the shortest path tree of src and writes every
// vertex's dependency on it into delta: 0 for src itself and for every
// vertex src does not reach.
//
// The tree settles a bucket at a time. A bucket is no wider than the
// lightest arc, so every predecessor of w lies in an earlier bucket than
// w: σ[w] is final before w relaxes its arcs, and reverse settle order
// visits every w before its predecessors, which is what back-propagation
// needs. A bucket's vertices settle in the order they were queued.
func (b *brandes) dependencies(g *graph.Graph, src int, delta []float64) {
	dist, vs, pred := b.dist, b.vs, b.pred
	for i := range dist {
		dist[i] = graph.Unreached
		delta[i] = 0
	}
	settled := b.settled[:0]
	w := b.win
	w.Start(g.MinUnits())
	dist[src] = 0
	vs[src].sigma, vs[src].npred = 1, 0
	w.Queue(src, 0)
	// A vertex's first strict improvement resets its σ and P, so neither
	// is read stale: only settled vertices are read, and src has none.
	for more := true; more; more = w.Next(dist) {
		for _, e := range w.Bucket() {
			u := e.V
			if e.D != dist[u] {
				continue
			}
			settled = append(settled, int32(u))
			su := vs[u].sigma
			heads, wts := g.Neighbors(int(u))
			for i, v := range heads {
				nd := e.D + uint64(wts[i])
				if nd < dist[v] {
					dist[v] = nd
					r := &vs[v]
					r.sigma = su
					pred[r.off] = int32(u)
					r.npred = 1
					w.Queue(int(v), nd)
				} else if nd == dist[v] {
					r := &vs[v]
					r.sigma += su
					pred[r.off+r.npred] = int32(u)
					r.npred++
				}
			}
		}
	}
	// Brandes back-propagation in reverse settle order. P[w] holds exactly
	// the in-neighbours t with dist[t]+w(t,w) == dist[w], each once, so
	// delta[t] gets one addition per shortest-path successor w of t, in
	// reverse settle order.
	for i := len(settled) - 1; i >= 0; i-- {
		r := vs[settled[i]]
		dw := delta[settled[i]]
		for _, t := range pred[r.off : r.off+r.npred] {
			delta[t] += vs[t].sigma / r.sigma * (1 + dw)
		}
	}
	// The source's own dependency is not betweenness. Adding this 0 (and
	// the unreached vertices' 0) to a score leaves it bit for bit as it was.
	delta[src] = 0
	b.settled = settled
}

// folder adds finished samples' dependency vectors into the scores strictly
// in sample order. Sample i is computed into ring slot i mod len(ring); it
// may take that slot only once sample i−len(ring) has been folded, so a
// slot never holds two samples.
type folder struct {
	score []float64
	ring  [][]float64

	mu     sync.Mutex
	cond   sync.Cond
	done   []bool // done[slot]: the slot's sample is finished, not yet folded
	folded int    // samples [0, folded) are in score
}

func newFolder(n, slots int) *folder {
	f := &folder{score: make([]float64, n), ring: make([][]float64, slots), done: make([]bool, slots)}
	for i := range f.ring {
		f.ring[i] = make([]float64, n)
	}
	f.cond.L = &f.mu
	return f
}

// acquire waits until sample i's ring slot is free and returns it.
func (f *folder) acquire(i int) []float64 {
	f.mu.Lock()
	for f.folded <= i-len(f.ring) {
		f.cond.Wait()
	}
	f.mu.Unlock()
	return f.ring[i%len(f.ring)]
}

// release marks sample i finished and folds every finished sample that is
// next in order. The fold is n additions against a whole shortest path tree
// per sample, so holding the lock through it costs the other workers little.
func (f *folder) release(i int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.done[i%len(f.ring)] = true
	before := f.folded
	for slot := f.folded % len(f.ring); f.done[slot]; slot = f.folded % len(f.ring) {
		for v, d := range f.ring[slot] {
			f.score[v] += d
		}
		f.done[slot] = false
		f.folded++
	}
	if f.folded > before {
		f.cond.Broadcast()
	}
}

// ForGraph picks the paper's default ordering for a graph: approximate
// betweenness for low-degree high-diameter (road-like) graphs, degree for
// everything else. The threshold mirrors the structural gap between the two
// dataset families rather than trying to be a general classifier. workers
// bounds the betweenness samples planted at once (0 = GOMAXPROCS); the order
// does not depend on it.
func ForGraph(g *graph.Graph, seed int64, workers int) *Order {
	n := g.NumVertices()
	if n == 0 {
		return Identity(0)
	}
	avgDeg := float64(g.NumArcs()) / float64(n)
	maxDeg := 0
	for v := 0; v < n; v++ {
		if d := g.Degree(v); d > maxDeg {
			maxDeg = d
		}
	}
	// Road networks: near-uniform small degrees. Scale-free: max degree far
	// above average.
	if float64(maxDeg) <= 4*avgDeg+8 {
		return ByApproxBetweenness(g, 16, seed, workers)
	}
	return ByDegree(g)
}

func byScore(score []float64) *Order {
	n := len(score)
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	sort.Slice(perm, func(i, j int) bool {
		a, b := perm[i], perm[j]
		if score[a] != score[b] {
			return score[a] > score[b]
		}
		return a < b
	})
	return MustFromPerm(perm)
}

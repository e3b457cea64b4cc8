// Package graph provides the weighted-graph substrate used by every hub
// labeling algorithm in this repository: a compact CSR (compressed sparse
// row) representation, a mutable builder, generators for the topology
// families evaluated in the paper (road-like lattices and scale-free
// networks), DIMACS and edge-list I/O, and basic structural utilities
// (transpose, permutation, connected components).
//
// Vertices are dense integers in [0, N). Edge weights are given as strictly
// positive float64 values and stored as uint32 counts of the graph's unit
// 2^-k (WeightUnitExp): the finest unit any weight needs, 0 on integer weights.
// This package decides the unit. Every search and builder below it adds
// counts in uint64, exactly, and float64 appears again only at the API edge
// (FromUnits, sssp.Dijkstra's rows, the label stores' answers). Finish and
// Splice refuse a graph whose counts or path sums would not be exact (see
// Finish).
package graph

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
)

// Infinity is the distance assigned to unreachable vertices.
const Infinity = math.MaxFloat64

// Unreached is the distance in units of a vertex no path reaches: above
// every distance a search can compute.
const Unreached = math.MaxUint64

// Graph is an immutable weighted graph in CSR form. For undirected graphs
// every edge {u,v} is stored as the two arcs u→v and v→u. Use a Builder to
// construct one.
type Graph struct {
	n        int
	directed bool
	off      []int64  // len n+1; arcs of u are adj[off[u]:off[u+1]]
	adj      []uint32 // arc heads
	wts      []uint32 // arc weights in units of 2^-k, parallel to adj

	// reverse CSR, present only for directed graphs (lazily built by
	// Builder.Finish so that Graph itself stays immutable).
	roff []int64
	radj []uint32
	rwts []uint32

	// k is the unit exponent, and minW and maxW the lightest and heaviest
	// arc in units (0 for an edgeless graph), fixed where the CSR is made.
	k          int
	minW, maxW uint32
}

// NumVertices returns the number of vertices |V|.
func (g *Graph) NumVertices() int { return g.n }

// NumArcs returns the number of stored arcs. For an undirected graph this is
// twice the number of edges.
func (g *Graph) NumArcs() int { return len(g.adj) }

// NumEdges returns |E|: the number of undirected edges, or the number of
// directed arcs for a directed graph.
func (g *Graph) NumEdges() int {
	if g.directed {
		return len(g.adj)
	}
	return len(g.adj) / 2
}

// Directed reports whether the graph is directed.
func (g *Graph) Directed() bool { return g.directed }

// Degree returns the out-degree of u.
func (g *Graph) Degree(u int) int { return int(g.off[u+1] - g.off[u]) }

// InDegree returns the in-degree of u (equal to Degree for undirected graphs).
func (g *Graph) InDegree(u int) int {
	if !g.directed {
		return g.Degree(u)
	}
	return int(g.roff[u+1] - g.roff[u])
}

// Neighbors returns the arc heads and weights, in units, of u's outgoing
// arcs. The returned slices alias the graph's internal storage and must
// not be modified.
func (g *Graph) Neighbors(u int) ([]uint32, []uint32) {
	lo, hi := g.off[u], g.off[u+1]
	return g.adj[lo:hi], g.wts[lo:hi]
}

// InNeighbors returns the arc tails and weights of u's incoming arcs. For an
// undirected graph this is identical to Neighbors.
func (g *Graph) InNeighbors(u int) ([]uint32, []uint32) {
	if !g.directed {
		return g.Neighbors(u)
	}
	lo, hi := g.roff[u], g.roff[u+1]
	return g.radj[lo:hi], g.rwts[lo:hi]
}

// HasEdge reports whether an arc u→v exists, and returns its weight (the
// lightest of parallel arcs, which is all Finish keeps).
func (g *Graph) HasEdge(u, v int) (float64, bool) {
	heads, wts := g.Neighbors(u)
	for i, h := range heads {
		if int(h) == v {
			return g.FromUnits(uint64(wts[i])), true
		}
	}
	return Infinity, false
}

// MinWeight returns the smallest arc weight, or 0 for an edgeless graph.
func (g *Graph) MinWeight() float64 { return g.FromUnits(uint64(g.minW)) }

// MaxWeight returns the largest arc weight, or 0 for an edgeless graph.
func (g *Graph) MaxWeight() float64 { return g.FromUnits(uint64(g.maxW)) }

// MinUnits returns the smallest arc weight in units, or 0 for an edgeless
// graph.
func (g *Graph) MinUnits() uint32 { return g.minW }

// WeightUnitExp returns k, the graph's unit exponent: every weight is a
// whole number of units 2^-k, and k is the least such (0 on integer
// weights).
func (g *Graph) WeightUnitExp() int { return g.k }

// FromUnits converts a distance in units into the distance itself, exactly
// (a power-of-two scaling of a count below 2^53); Unreached becomes
// Infinity.
func (g *Graph) FromUnits(d uint64) float64 {
	if d == Unreached {
		return Infinity
	}
	return float64(d) / float64(uint64(1)<<g.k)
}

// UnitExp returns the smallest k ≥ 0 for which w is a whole number of
// units 2^-k: 0 for every integer, 2 for 2.25, 55 for 0.1 (the float64
// nearest 0.1 is a dyadic fraction too, just a fine one). w must be finite
// and non-negative; anything else answers 0.
func UnitExp(w float64) int {
	if !(w > 0) || math.IsInf(w, 1) {
		return 0
	}
	frac, exp := math.Frexp(w) // w = frac · 2^exp, frac in [0.5, 1)
	mant := uint64(math.Ldexp(frac, 53))
	return max(0, 53-exp-bits.TrailingZeros64(mant))
}

// settle fixes the unit and weight range of arrays laid out in units of
// 2^-k: it coarsens the unit while every weight is even (a deleted or
// deduplicated arc may have needed it; with no arc left, to 2^0, as a
// Builder given no edge counts), then refuses the graph if float64
// path sums could round, as every distance row assumes they do not: two
// label distances, each at most (n−1)·maxW, must sum below 2^53 units.
func (g *Graph) settle() error {
	var all uint32
	for _, w := range g.wts {
		all |= w
	}
	if s := min(g.k, bits.TrailingZeros32(all)); s > 0 {
		for _, ws := range [][]uint32{g.wts, g.rwts} {
			for i := range ws {
				ws[i] >>= s
			}
		}
		g.k -= s
	}
	g.minW, g.maxW = 0, 0
	if len(g.wts) > 0 {
		g.minW, g.maxW = slices.Min(g.wts), slices.Max(g.wts)
	}
	if sum := 2 * float64(g.n-1) * float64(g.maxW); g.n > 1 && sum >= 1<<53 {
		return fmt.Errorf("graph: path sums are not exact in float64: with maximum weight %v, %d units of 2^-%d, over %d vertices two label distances sum to up to %.3g units, past 2^53; scale the weights to integers (or coarser dyadic fractions) that keep 2·(n−1)·maxW below 2^53 units", g.MaxWeight(), g.maxW, g.k, g.n, sum)
	}
	return nil
}

// MaxUnitExp bounds k: a finer unit could count no weight of 2^-31 or
// more, and the frozen stores declare k in [0, MaxUnitExp].
const MaxUnitExp = 63

// toUnits returns w as a count of units 2^-k, which must be at least w's
// own UnitExp, or refuses, naming w, a count of 2^32 or more or a k past
// MaxUnitExp.
func toUnits(w float64, k int) (uint32, error) {
	if u := w * float64(uint64(1)<<k); u < 1<<32 && k <= MaxUnitExp {
		return uint32(u), nil
	}
	return 0, fmt.Errorf("graph: weight %v is %.6g units of 2^-%d, past 2^32 or a unit finer than 2^-%d; scale the weights so that each is below 2^32 units of the finest unit among them", w, math.Ldexp(w, k), k, MaxUnitExp)
}

// TotalWeight returns the sum of all arc weights (each undirected edge
// counted twice).
func (g *Graph) TotalWeight() float64 {
	var s uint64
	for _, w := range g.wts {
		s += uint64(w)
	}
	return g.FromUnits(s)
}

// Transpose returns the reverse graph (arcs flipped). For undirected graphs
// it returns the receiver itself.
func (g *Graph) Transpose() *Graph {
	if !g.directed {
		return g
	}
	return &Graph{
		n: g.n, directed: true,
		off: g.roff, adj: g.radj, wts: g.rwts,
		roff: g.off, radj: g.adj, rwts: g.wts,
		k: g.k, minW: g.minW, maxW: g.maxW,
	}
}

// Permute relabels the vertices of g so that new vertex i corresponds to old
// vertex perm[i]. In other words perm lists the old ids in their new order,
// which is exactly how ranking functions are expressed (perm[0] = the
// highest-ranked vertex). The inverse mapping newID[old] is also returned.
func (g *Graph) Permute(perm []int) (*Graph, []int) {
	if len(perm) != g.n {
		panic(fmt.Sprintf("graph: Permute with %d ids on %d vertices", len(perm), g.n))
	}
	newID := make([]int, g.n)
	for i := range newID {
		newID[i] = -1
	}
	for newV, oldV := range perm {
		if oldV < 0 || oldV >= g.n || newID[oldV] != -1 {
			panic(fmt.Sprintf("graph: Permute: perm is not a permutation (entry %d=%d)", newV, oldV))
		}
		newID[oldV] = newV
	}
	ng := &Graph{n: g.n, directed: g.directed, k: g.k, minW: g.minW, maxW: g.maxW}
	ng.off, ng.adj, ng.wts = permuteCSR(g.off, g.adj, g.wts, perm, newID)
	if g.directed {
		ng.roff, ng.radj, ng.rwts = permuteCSR(g.roff, g.radj, g.rwts, perm, newID)
	}
	return ng, newID
}

// permuteCSR lays out new row i as old row perm[i], its heads relabeled and
// sorted again. A relabeling is a bijection, so the rows stay free of
// parallel arcs: the arrays are the ones a Builder would make.
func permuteCSR(off []int64, adj, wts []uint32, perm, newID []int) ([]int64, []uint32, []uint32) {
	noff := make([]int64, len(off))
	nadj := make([]uint32, len(adj))
	nwts := make([]uint32, len(wts))
	for newU, oldU := range perm {
		lo, hi := off[oldU], off[oldU+1]
		at, end := noff[newU], noff[newU]+hi-lo
		noff[newU+1] = end
		for i, h := range adj[lo:hi] {
			nadj[at+int64(i)] = uint32(newID[h])
		}
		copy(nwts[at:end], wts[lo:hi])
		sortRow(nadj[at:end], nwts[at:end])
	}
	return noff, nadj, nwts
}

// EdgeEdit is the final state of one edge in a Splice: weight W, or no edge
// at all when Del is set.
type EdgeEdit struct {
	U, V int
	W    float64
	Del  bool
}

// Splice returns g with every edited edge set to its final state: the graph
// a Builder fed g's edges with the edits applied would make, array for
// array. It copies the rows no edit touches in bulk and rebuilds only the
// forward rows of the edit tails and, on a directed graph, the reverse rows
// of the edit heads (on an undirected one, both endpoints' rows). Deleting
// an absent edge changes nothing, a self loop is ignored as AddEdge ignores
// it, and of two edits of one edge the later wins ({u,v} and {v,u} are one
// undirected edge). An endpoint out of range or a weight that is not
// positive and finite is an error, as in Builder.
func (g *Graph) Splice(edits []EdgeEdit) (*Graph, error) {
	k := g.k
	for _, e := range edits {
		if err := checkEdge(g.n, e.U, e.V, e.W, !e.Del); err != nil {
			return nil, err
		}
		if !e.Del {
			k = max(k, UnitExp(e.W))
		}
	}
	var fwd, rev []arcEdit
	for _, e := range edits {
		if e.U == e.V {
			continue
		}
		var w uint32
		if !e.Del {
			var err error
			if w, err = toUnits(e.W, k); err != nil {
				return nil, err
			}
		}
		fwd = append(fwd, arcEdit{uint32(e.U), uint32(e.V), w, e.Del})
		mirror := arcEdit{uint32(e.V), uint32(e.U), w, e.Del}
		if g.directed {
			rev = append(rev, mirror)
		} else {
			fwd = append(fwd, mirror)
		}
	}
	wts, rwts := g.wts, g.rwts
	if s := k - g.k; s > 0 { // an edit needs a finer unit: recount every weight in it
		if _, err := toUnits(g.MaxWeight(), k); err != nil {
			return nil, err
		}
		wts, rwts = shifted(wts, s), shifted(rwts, s)
	}
	ng := &Graph{n: g.n, directed: g.directed, k: k}
	ng.off, ng.adj, ng.wts = spliceCSR(g.off, g.adj, wts, fwd)
	if g.directed {
		ng.roff, ng.radj, ng.rwts = spliceCSR(g.roff, g.radj, rwts, rev)
	}
	if err := ng.settle(); err != nil {
		return nil, err
	}
	return ng, nil
}

// shifted returns ws, every weight multiplied by 2^s.
func shifted(ws []uint32, s int) []uint32 {
	out := make([]uint32, len(ws))
	for i, w := range ws {
		out[i] = w << s
	}
	return out
}

// arcEdit is one arc's final state in a CSR splice.
type arcEdit struct {
	tail, head uint32
	w          uint32
	del        bool
}

// spliceCSR merges each edited row with its edits and copies each run of
// rows between two edited ones with one copy, shifting its offsets. A row
// sorted by head without parallel arcs stays so under the merge.
func spliceCSR(off []int64, adj, wts []uint32, edits []arcEdit) ([]int64, []uint32, []uint32) {
	sort.SliceStable(edits, func(i, j int) bool {
		if edits[i].tail != edits[j].tail {
			return edits[i].tail < edits[j].tail
		}
		return edits[i].head < edits[j].head
	})
	n := len(off) - 1
	noff := make([]int64, n+1)
	nadj := make([]uint32, 0, len(adj)+len(edits))
	nwts := make([]uint32, 0, len(adj)+len(edits))
	// copyRows lays out the untouched rows [from, to).
	copyRows := func(from, to int) {
		shift := int64(len(nadj)) - off[from]
		nadj = append(nadj, adj[off[from]:off[to]]...)
		nwts = append(nwts, wts[off[from]:off[to]]...)
		for u := from; u < to; u++ {
			noff[u+1] = off[u+1] + shift
		}
	}
	next := 0 // rows [0, next) are laid out
	for len(edits) > 0 {
		t := int(edits[0].tail)
		k := 1
		for k < len(edits) && int(edits[k].tail) == t {
			k++
		}
		row, rest := edits[:k], edits[k:]
		copyRows(next, t)
		heads, ws := adj[off[t]:off[t+1]], wts[off[t]:off[t+1]]
		i := 0
		for j, e := range row {
			if j+1 < len(row) && row[j+1].head == e.head {
				continue // a later edit of this arc wins
			}
			for ; i < len(heads) && heads[i] < e.head; i++ {
				nadj, nwts = append(nadj, heads[i]), append(nwts, ws[i])
			}
			if i < len(heads) && heads[i] == e.head {
				i++ // the edit replaces or deletes this arc
			}
			if !e.del {
				nadj, nwts = append(nadj, e.head), append(nwts, e.w)
			}
		}
		nadj, nwts = append(nadj, heads[i:]...), append(nwts, ws[i:]...)
		noff[t+1] = int64(len(nadj))
		next, edits = t+1, rest
	}
	copyRows(next, n)
	return noff, nadj[:len(nadj):len(nadj)], nwts[:len(nwts):len(nwts)]
}

// Clone returns a deep copy of g. Algorithms never mutate a Graph, but the
// cluster simulator clones graphs to model per-node private copies.
func (g *Graph) Clone() *Graph {
	ng := &Graph{n: g.n, directed: g.directed, k: g.k, minW: g.minW, maxW: g.maxW}
	ng.off = append([]int64(nil), g.off...)
	ng.adj = append([]uint32(nil), g.adj...)
	ng.wts = append([]uint32(nil), g.wts...)
	ng.roff = append([]int64(nil), g.roff...)
	ng.radj = append([]uint32(nil), g.radj...)
	ng.rwts = append([]uint32(nil), g.rwts...)
	return ng
}

// MemoryBytes estimates the CSR storage footprint in bytes. It is used by
// the experiment harness when reporting per-node memory (Lemma 5: O(n+m)).
func (g *Graph) MemoryBytes() int64 {
	b := int64(len(g.off)+len(g.roff)) * 8
	b += int64(len(g.adj)+len(g.radj)) * 4
	b += int64(len(g.wts)+len(g.rwts)) * 4
	return b
}

// DegreeHistogram returns counts[d] = number of vertices with out-degree d.
func (g *Graph) DegreeHistogram() []int {
	maxd := 0
	for u := 0; u < g.n; u++ {
		if d := g.Degree(u); d > maxd {
			maxd = d
		}
	}
	counts := make([]int, maxd+1)
	for u := 0; u < g.n; u++ {
		counts[g.Degree(u)]++
	}
	return counts
}

// Builder accumulates edges and produces an immutable Graph. The zero value
// is not usable; call NewBuilder.
type Builder struct {
	n        int
	directed bool
	tails    []uint32
	heads    []uint32
	wts      []float64
	err      error
}

// NewBuilder returns a Builder for a graph with n vertices.
func NewBuilder(n int, directed bool) *Builder {
	if n < 0 {
		panic("graph: NewBuilder with negative vertex count")
	}
	return &Builder{n: n, directed: directed}
}

// AddEdge records an edge (arc, for a directed builder) u→v with weight w.
// Self loops are ignored: they can never lie on a shortest path with
// positive weights. Errors (bad endpoints, non-positive weight) are sticky
// and reported by Finish.
func (b *Builder) AddEdge(u, v int, w float64) {
	if b.err != nil {
		return
	}
	if b.err = checkEdge(b.n, u, v, w, true); b.err != nil {
		return
	}
	if u == v {
		return
	}
	b.tails = append(b.tails, uint32(u))
	b.heads = append(b.heads, uint32(v))
	b.wts = append(b.wts, w)
	if !b.directed {
		b.tails = append(b.tails, uint32(v))
		b.heads = append(b.heads, uint32(u))
		b.wts = append(b.wts, w)
	}
}

// checkEdge is the rule every edge of a Graph meets: endpoints in [0,n) and,
// when weighted, a weight that is positive and finite.
func checkEdge(n, u, v int, w float64, weighted bool) error {
	if u < 0 || u >= n || v < 0 || v >= n {
		return fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", u, v, n)
	}
	if weighted && (w <= 0 || math.IsInf(w, 0) || math.IsNaN(w)) {
		return fmt.Errorf("graph: edge (%d,%d) has non-positive weight %v", u, v, w)
	}
	return nil
}

// Finish sorts the accumulated arcs into CSR form, deduplicates parallel
// arcs (keeping the minimum weight), and returns the immutable Graph, its
// weights counted in the least unit 2^-k they all share. It refuses, naming
// the weight, a graph whose counts or path sums would not be exact: a weight
// of 2^32 units or more, or a maximum weight that lets two label distances
// sum to 2^53 units (settle).
func (b *Builder) Finish() (*Graph, error) {
	if b.err != nil {
		return nil, b.err
	}
	k := 0
	for _, w := range b.wts {
		if w != math.Trunc(w) { // every integer has UnitExp 0
			k = max(k, UnitExp(w))
		}
	}
	units := make([]uint32, len(b.wts))
	for i, w := range b.wts {
		var err error
		if units[i], err = toUnits(w, k); err != nil {
			return nil, err
		}
	}
	g := &Graph{n: b.n, directed: b.directed, k: k}
	g.off, g.adj, g.wts = buildCSR(b.n, b.tails, b.heads, units)
	if b.directed {
		g.roff, g.radj, g.rwts = buildCSR(b.n, b.heads, b.tails, units)
	}
	if err := g.settle(); err != nil {
		return nil, err
	}
	return g, nil
}

// MustFinish is Finish for callers (generators, tests) whose input is
// correct by construction.
func (b *Builder) MustFinish() *Graph {
	g, err := b.Finish()
	if err != nil {
		panic(err)
	}
	return g
}

// buildCSR counting-sorts the arc list by tail, then sorts each adjacency
// row by head and removes parallel duplicates keeping the lightest arc.
func buildCSR(n int, tails, heads, wts []uint32) ([]int64, []uint32, []uint32) {
	off := make([]int64, n+1)
	for _, t := range tails {
		off[t+1]++
	}
	for i := 0; i < n; i++ {
		off[i+1] += off[i]
	}
	adj := make([]uint32, len(heads))
	w := make([]uint32, len(heads))
	next := make([]int64, n)
	copy(next, off[:n])
	for i, t := range tails {
		p := next[t]
		adj[p] = heads[i]
		w[p] = wts[i]
		next[t] = p + 1
	}
	// Sort each row and deduplicate in place.
	out := int64(0)
	newOff := make([]int64, n+1)
	for u := 0; u < n; u++ {
		lo, hi := off[u], off[u+1]
		sortRow(adj[lo:hi], w[lo:hi])
		newOff[u] = out
		for i := lo; i < hi; i++ {
			if i > lo && adj[i] == adj[out-1] {
				if w[i] < w[out-1] {
					w[out-1] = w[i]
				}
				continue
			}
			adj[out] = adj[i]
			w[out] = w[i]
			out++
		}
	}
	newOff[n] = out
	return newOff, adj[:out:out], w[:out:out]
}

// sortRow sorts one adjacency row by head: by insertion when it is short,
// as nearly every row is, through sort.Sort when it is long (a hub's).
func sortRow(adj, wts []uint32) {
	if len(adj) > 12 {
		sort.Sort(arcRow{adj, wts})
		return
	}
	for i := 1; i < len(adj); i++ {
		for j := i; j > 0 && adj[j] < adj[j-1]; j-- {
			adj[j], adj[j-1] = adj[j-1], adj[j]
			wts[j], wts[j-1] = wts[j-1], wts[j]
		}
	}
}

type arcRow struct {
	adj, wts []uint32
}

func (r arcRow) Len() int           { return len(r.adj) }
func (r arcRow) Less(i, j int) bool { return r.adj[i] < r.adj[j] }
func (r arcRow) Swap(i, j int) {
	r.adj[i], r.adj[j] = r.adj[j], r.adj[i]
	r.wts[i], r.wts[j] = r.wts[j], r.wts[i]
}

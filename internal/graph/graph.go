// Package graph provides the weighted-graph substrate used by every hub
// labeling algorithm in this repository: a compact CSR (compressed sparse
// row) representation, a mutable builder, generators for the topology
// families evaluated in the paper (road-like lattices and scale-free
// networks), DIMACS and edge-list I/O, and basic structural utilities
// (transpose, permutation, connected components).
//
// Vertices are dense integers in [0, N). Edge weights are strictly positive
// float64 values; every constructor rejects non-positive weights because the
// labeling algorithms (and the exactness of PLaNT's ancestor propagation,
// see the internal/plant package doc) rely on them.
package graph

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
)

// Infinity is the distance assigned to unreachable vertices.
const Infinity = math.MaxFloat64

// Graph is an immutable weighted graph in CSR form. For undirected graphs
// every edge {u,v} is stored as the two arcs u→v and v→u. Use a Builder to
// construct one.
type Graph struct {
	n        int
	directed bool
	off      []int64   // len n+1; arcs of u are adj[off[u]:off[u+1]]
	adj      []uint32  // arc heads
	wts      []float64 // arc weights, parallel to adj

	// reverse CSR, present only for directed graphs (lazily built by
	// Builder.Finish so that Graph itself stays immutable).
	roff []int64
	radj []uint32
	rwts []float64

	// minW and maxW are the lightest and heaviest arc weight, and fineW
	// the first weight of the largest UnitExp (all 0 for an edgeless
	// graph), fixed where the CSR is made.
	minW, maxW, fineW float64
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

// Neighbors returns the arc heads and weights of u's outgoing arcs. The
// returned slices alias the graph's internal storage and must not be
// modified.
func (g *Graph) Neighbors(u int) ([]uint32, []float64) {
	lo, hi := g.off[u], g.off[u+1]
	return g.adj[lo:hi], g.wts[lo:hi]
}

// InNeighbors returns the arc tails and weights of u's incoming arcs. For an
// undirected graph this is identical to Neighbors.
func (g *Graph) InNeighbors(u int) ([]uint32, []float64) {
	if !g.directed {
		return g.Neighbors(u)
	}
	lo, hi := g.roff[u], g.roff[u+1]
	return g.radj[lo:hi], g.rwts[lo:hi]
}

// HasEdge reports whether an arc u→v exists, and returns its weight. If
// parallel arcs exist the minimum weight is returned.
func (g *Graph) HasEdge(u, v int) (float64, bool) {
	w, found := Infinity, false
	heads, wts := g.Neighbors(u)
	for i, h := range heads {
		if int(h) == v && wts[i] < w {
			w, found = wts[i], true
		}
	}
	return w, found
}

// MinWeight returns the smallest arc weight, or 0 for an edgeless graph.
func (g *Graph) MinWeight() float64 { return g.minW }

// MaxWeight returns the largest arc weight, or 0 for an edgeless graph.
func (g *Graph) MaxWeight() float64 { return g.maxW }

// WeightUnitExp returns the largest UnitExp of an arc weight: every weight
// is a whole number of units 2^-k (0 on integer weights).
func (g *Graph) WeightUnitExp() int { return UnitExp(g.fineW) }

// weightRange returns the smallest and largest of wts and the first of
// the largest UnitExp, or 0, 0, 0 when it is empty.
func weightRange(wts []float64) (lo, hi, fine float64) {
	if len(wts) == 0 {
		return 0, 0, 0
	}
	lo, hi = wts[0], wts[0]
	k := -1
	for _, w := range wts {
		// Plain comparisons: weights are never NaN, and the builtin min and
		// max of floats branch for it.
		if w < lo {
			lo = w
		}
		if w > hi {
			hi = w
		}
		// Every integer has UnitExp 0: only the first needs asking.
		if k < 0 || w != math.Trunc(w) {
			if kw := UnitExp(w); kw > k {
				k, fine = kw, w
			}
		}
	}
	return lo, hi, fine
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

// CheckExact reports whether float64 arithmetic on g's path lengths is
// exact, which every builder assumes: two label distances summed, each at
// most (n−1)·maxW, must stay below 2^53 units of the weights' own unit
// 2^-k (WeightUnitExp). On integer weights that is (n−1)·maxW below 2^52;
// a weight such as 0.1, whose unit is 2^-55, fails on every graph of three
// or more vertices. Compared in float64: the product is exact up to its
// last rounding, which can only refuse a graph at the edge, never pass one
// over it.
func (g *Graph) CheckExact() error {
	k := g.WeightUnitExp()
	if sum := 2 * float64(g.n-1) * math.Ldexp(g.maxW, k); g.n > 1 && sum >= 1<<53 {
		return fmt.Errorf("graph: path sums are not exact in float64: weight %v needs a unit of 2^-%d, and with maximum weight %v over %d vertices two label distances sum to up to %.3g units, past 2^53; scale the weights to integers (or coarser dyadic fractions) that keep 2·(n−1)·maxW below 2^53 units", g.fineW, k, g.maxW, g.n, sum)
	}
	return nil
}

// TotalWeight returns the sum of all arc weights (each undirected edge
// counted twice).
func (g *Graph) TotalWeight() float64 {
	s := 0.0
	for _, w := range g.wts {
		s += w
	}
	return s
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
		minW: g.minW, maxW: g.maxW, fineW: g.fineW,
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
	ng := &Graph{n: g.n, directed: g.directed, minW: g.minW, maxW: g.maxW, fineW: g.fineW}
	ng.off, ng.adj, ng.wts = permuteCSR(g.off, g.adj, g.wts, perm, newID)
	if g.directed {
		ng.roff, ng.radj, ng.rwts = permuteCSR(g.roff, g.radj, g.rwts, perm, newID)
	}
	return ng, newID
}

// permuteCSR lays out new row i as old row perm[i], its heads relabeled and
// sorted again. A relabeling is a bijection, so the rows stay free of
// parallel arcs: the arrays are the ones a Builder would make.
func permuteCSR(off []int64, adj []uint32, wts []float64, perm, newID []int) ([]int64, []uint32, []float64) {
	noff := make([]int64, len(off))
	nadj := make([]uint32, len(adj))
	nwts := make([]float64, len(wts))
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
	var fwd, rev []arcEdit
	for _, e := range edits {
		if err := checkEdge(g.n, e.U, e.V, e.W, !e.Del); err != nil {
			return nil, err
		}
		if e.U == e.V {
			continue
		}
		fwd = append(fwd, arcEdit{uint32(e.U), uint32(e.V), e.W, e.Del})
		mirror := arcEdit{uint32(e.V), uint32(e.U), e.W, e.Del}
		if g.directed {
			rev = append(rev, mirror)
		} else {
			fwd = append(fwd, mirror)
		}
	}
	ng := &Graph{n: g.n, directed: g.directed}
	ng.off, ng.adj, ng.wts = spliceCSR(g.off, g.adj, g.wts, fwd)
	if g.directed {
		ng.roff, ng.radj, ng.rwts = spliceCSR(g.roff, g.radj, g.rwts, rev)
	}
	ng.minW, ng.maxW, ng.fineW = weightRange(ng.wts)
	return ng, nil
}

// arcEdit is one arc's final state in a CSR splice.
type arcEdit struct {
	tail, head uint32
	w          float64
	del        bool
}

// spliceCSR merges each edited row with its edits and copies each run of
// rows between two edited ones with one copy, shifting its offsets. A row
// sorted by head without parallel arcs stays so under the merge.
func spliceCSR(off []int64, adj []uint32, wts []float64, edits []arcEdit) ([]int64, []uint32, []float64) {
	sort.SliceStable(edits, func(i, j int) bool {
		if edits[i].tail != edits[j].tail {
			return edits[i].tail < edits[j].tail
		}
		return edits[i].head < edits[j].head
	})
	n := len(off) - 1
	noff := make([]int64, n+1)
	nadj := make([]uint32, 0, len(adj)+len(edits))
	nwts := make([]float64, 0, len(adj)+len(edits))
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
	ng := &Graph{n: g.n, directed: g.directed, minW: g.minW, maxW: g.maxW, fineW: g.fineW}
	ng.off = append([]int64(nil), g.off...)
	ng.adj = append([]uint32(nil), g.adj...)
	ng.wts = append([]float64(nil), g.wts...)
	ng.roff = append([]int64(nil), g.roff...)
	ng.radj = append([]uint32(nil), g.radj...)
	ng.rwts = append([]float64(nil), g.rwts...)
	return ng
}

// MemoryBytes estimates the CSR storage footprint in bytes. It is used by
// the experiment harness when reporting per-node memory (Lemma 5: O(n+m)).
func (g *Graph) MemoryBytes() int64 {
	b := int64(len(g.off)+len(g.roff)) * 8
	b += int64(len(g.adj)+len(g.radj)) * 4
	b += int64(len(g.wts)+len(g.rwts)) * 8
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
// arcs (keeping the minimum weight), and returns the immutable Graph.
func (b *Builder) Finish() (*Graph, error) {
	if b.err != nil {
		return nil, b.err
	}
	g := &Graph{n: b.n, directed: b.directed}
	g.off, g.adj, g.wts = buildCSR(b.n, b.tails, b.heads, b.wts)
	if b.directed {
		g.roff, g.radj, g.rwts = buildCSR(b.n, b.heads, b.tails, b.wts)
	}
	g.minW, g.maxW, g.fineW = weightRange(g.wts)
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
func buildCSR(n int, tails, heads []uint32, wts []float64) ([]int64, []uint32, []float64) {
	off := make([]int64, n+1)
	for _, t := range tails {
		off[t+1]++
	}
	for i := 0; i < n; i++ {
		off[i+1] += off[i]
	}
	adj := make([]uint32, len(heads))
	w := make([]float64, len(heads))
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
func sortRow(adj []uint32, wts []float64) {
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
	adj []uint32
	wts []float64
}

func (r arcRow) Len() int           { return len(r.adj) }
func (r arcRow) Less(i, j int) bool { return r.adj[i] < r.adj[j] }
func (r arcRow) Swap(i, j int) {
	r.adj[i], r.adj[j] = r.adj[j], r.adj[i]
	r.wts[i], r.wts[j] = r.wts[j], r.wts[i]
}

package chl

import (
	"errors"

	"repro/internal/label"
	"repro/internal/pll"
)

// PathIndex is an Index that additionally stores, for every label, the
// labeled vertex's parent in the hub's shortest path tree — enabling full
// shortest-path retrieval in time linear to the path length (the §5.4
// extension of the paper). Every Index method answers on it as on the
// sequential-PLL Index of the same order; Freeze packs that plain CHL, so
// a frozen or saved path index keeps its distances and drops the parents.
type PathIndex struct {
	*Index
	px *label.PathIndex
}

// BuildWithPaths constructs a path-retrieving CHL index. Only sequential
// PLL records parents (the distance-only algorithms are lighter; build with
// them when paths are not needed), so opt.Algorithm is ignored.
// Undirected graphs only; every other check is Build's.
func BuildWithPaths(g *Graph, opt Options) (px *PathIndex, err error) {
	defer refuse(&px, &err)
	if g != nil && g.Directed() {
		return nil, errors.New("chl: BuildWithPaths supports undirected graphs only")
	}
	rg, ix, err := newIndex(g, opt)
	if err != nil {
		return nil, err
	}
	lx, m := pll.SequentialWithPaths(rg, pll.Options{})
	ix.fwd, ix.bwd, ix.metrics = lx.Index(), lx.Index(), m
	return &PathIndex{Index: ix, px: lx}, nil
}

// Path returns the vertices of a shortest u–v path (inclusive, original
// ids) and its length; ok is false when v is unreachable from u.
func (p *PathIndex) Path(u, v int) (path []int, dist float64, ok bool) {
	rp, d, ok := p.px.Path(p.rank[u], p.rank[v])
	if !ok {
		return nil, d, false
	}
	out := make([]int, len(rp))
	for i, x := range rp {
		out[i] = p.perm[x]
	}
	return out, d, true
}

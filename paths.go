package chl

import (
	"errors"

	"repro/internal/label"
	"repro/internal/order"
	"repro/internal/pll"
)

// PathIndex is an Index that additionally stores, for every label, the
// labeled vertex's parent in the hub's shortest path tree — enabling full
// shortest-path retrieval in time linear to the path length (the §5.4
// extension of the paper).
type PathIndex struct {
	px   *label.PathIndex
	perm []int
	rank []int
}

// BuildWithPaths constructs a path-retrieving CHL index. Only sequential
// PLL records parents (the distance-only algorithms are lighter; build with
// them when paths are not needed). Undirected graphs only.
func BuildWithPaths(g *Graph, opt Options) (*PathIndex, error) {
	if g == nil {
		return nil, errors.New("chl: nil graph")
	}
	if g.Directed() {
		return nil, errors.New("chl: BuildWithPaths supports undirected graphs only")
	}
	ord := opt.Order
	if ord == nil {
		ord = order.ForGraph(g, opt.Seed, opt.Workers)
	}
	rg, newID := g.Permute(ord.Perm)
	px, _ := pll.SequentialWithPaths(rg, pll.Options{})
	return &PathIndex{px: px, perm: append([]int(nil), ord.Perm...), rank: newID}, nil
}

// Query returns the exact shortest-path distance between original ids.
func (p *PathIndex) Query(u, v int) float64 {
	return p.px.Index().Query(p.rank[u], p.rank[v])
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

// Stats reports the underlying label statistics.
func (p *PathIndex) Stats() Stats {
	st := p.px.Index().Stats()
	return Stats{Vertices: st.Vertices, TotalLabels: st.TotalLabels, ALS: st.ALS, MaxLabels: st.MaxLabels, Bytes: st.Bytes}
}

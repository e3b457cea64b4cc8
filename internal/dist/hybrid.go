package dist

import (
	"repro/internal/cluster"
	"repro/internal/graph"
	"repro/internal/label"
)

// Hybrid runs the paper's Hybrid algorithm (§5.3): PLaNT's batches — where
// traversal is cheap relative to the labels it emits — with every node
// reporting, on the batch's collective, its lowest root whose Ψ ratio
// (vertices explored per label generated) exceeds PsiThreshold. At the first
// batch a root is reported the long tail of roots finishes under DGLL, whose
// pruning makes the cheap trees cheaper still, on the table the batches have
// replicated; only a table Eta froze has its later trees gathered first.
// Output: the CHL, identical at every q.
func Hybrid(g *graph.Graph, o Options) (*Result, error) {
	r := newRun("Hybrid", g, o)
	supersteps := schedule(0, r.n)
	nodes := make([]*planter, r.o.Nodes)
	r.m.PlantTrees, r.m.SwitchedAtTree = int64(r.n), -1
	table := r.exec(func(nd *cluster.Node, c *perNodeCounters) []label.Set {
		p := r.newPlanter(nd, c)
		nodes[nd.Rank()] = p
		p.psi = r.o.PsiThreshold
		end, bad := p.run()
		if bad == noRoot {
			return p.global
		}
		// Switch: DGLL's pruning and cleaning need every PLaNTed label in
		// the replica; then it replicates the remaining roots itself, on
		// the same absolute superstep grid.
		if p.replicated < end {
			p.sync(end, true)
		}
		p.replicated = r.n
		if nd.Rank() == 0 {
			r.m.PlantTrees, r.m.SwitchedAtTree = int64(end), int64(bad)
		}
		return r.dgllSupersteps(nd, p.global, clip(supersteps, end, r.n), true, c)
	})
	return r.plantResult(table, nodes)
}

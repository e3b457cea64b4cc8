package graph

// Components labels the (weakly) connected components of g. It returns a
// component id per vertex in [0, count) — ids are assigned in order of the
// lowest vertex id in each component — and the component count. For directed
// graphs edges are treated as bidirectional (weak connectivity), which is
// what the cover property needs: two vertices can only require a common hub
// if some path connects them.
func Components(g *Graph) (comp []int, count int) {
	n := g.NumVertices()
	comp = make([]int, n)
	for i := range comp {
		comp[i] = -1
	}
	queue := make([]int, 0, n)
	for s := 0; s < n; s++ {
		if comp[s] != -1 {
			continue
		}
		comp[s] = count
		queue = append(queue[:0], s)
		for len(queue) > 0 {
			u := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			heads, _ := g.Neighbors(u)
			for _, h := range heads {
				if comp[h] == -1 {
					comp[h] = count
					queue = append(queue, int(h))
				}
			}
			if g.Directed() {
				tails, _ := g.InNeighbors(u)
				for _, t := range tails {
					if comp[t] == -1 {
						comp[t] = count
						queue = append(queue, int(t))
					}
				}
			}
		}
		count++
	}
	return comp, count
}

// LargestComponent returns the subgraph induced by the largest weakly
// connected component of g, along with the mapping from new ids to original
// ids. The experiment harness uses it so that every generated query pair is
// connected, as in the paper's evaluation.
func LargestComponent(g *Graph) (*Graph, []int) {
	comp, count := Components(g)
	if count <= 1 {
		ids := make([]int, g.NumVertices())
		for i := range ids {
			ids[i] = i
		}
		return g, ids
	}
	sizes := make([]int, count)
	for _, c := range comp {
		sizes[c]++
	}
	best := 0
	for c, s := range sizes {
		if s > sizes[best] {
			best = c
		}
	}
	toOld := make([]int, 0, sizes[best])
	toNew := make([]int, g.NumVertices())
	for i := range toNew {
		toNew[i] = -1
	}
	for v, c := range comp {
		if c == best {
			toNew[v] = len(toOld)
			toOld = append(toOld, v)
		}
	}
	b := NewBuilder(len(toOld), g.Directed())
	for newU, oldU := range toOld {
		heads, wts := g.Neighbors(oldU)
		for i, h := range heads {
			newV := toNew[h]
			if newV < 0 {
				continue
			}
			if g.Directed() || newU < newV {
				b.AddEdge(newU, newV, g.FromUnits(uint64(wts[i])))
			}
		}
	}
	return b.MustFinish(), toOld
}

// IsConnected reports whether g is (weakly) connected.
func IsConnected(g *Graph) bool {
	if g.NumVertices() == 0 {
		return true
	}
	_, count := Components(g)
	return count == 1
}

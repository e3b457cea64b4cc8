package order

import (
	"container/heap"
	"math"
	"testing"

	"repro/internal/graph"
)

// textbookBrandes is the reference for one sample tree: Brandes' algorithm
// (2001) as the paper writes it, on a binary heap (container/heap) that
// settles one vertex at a time, with a predecessor list per vertex and the
// settle stack. It shares no code with brandes or vheap. dist is in the
// graph's units (graph.Unreached where src does not reach); delta[src] is
// 0, as dependencies writes it.
func textbookBrandes(g *graph.Graph, src int) (dist []uint64, sigma, delta []float64) {
	n := g.NumVertices()
	dist = make([]uint64, n)
	sigma = make([]float64, n)
	delta = make([]float64, n)
	preds := make([][]int, n)
	done := make([]bool, n)
	for v := range dist {
		dist[v] = graph.Unreached
	}
	dist[src], sigma[src] = 0, 1
	q := &refQueue{{0, src}}
	var stack []int
	for q.Len() > 0 {
		it := heap.Pop(q).(refItem)
		u := it.v
		if done[u] || it.d != dist[u] {
			continue
		}
		done[u] = true
		stack = append(stack, u)
		heads, wts := g.Neighbors(u)
		for i, vv := range heads {
			v, nd := int(vv), it.d+uint64(wts[i])
			if nd < dist[v] {
				dist[v], sigma[v], preds[v] = nd, 0, preds[v][:0]
				heap.Push(q, refItem{nd, v})
			}
			if nd == dist[v] {
				sigma[v] += sigma[u]
				preds[v] = append(preds[v], u)
			}
		}
	}
	for i := len(stack) - 1; i >= 0; i-- {
		w := stack[i]
		for _, t := range preds[w] {
			delta[t] += sigma[t] / sigma[w] * (1 + delta[w])
		}
	}
	delta[src] = 0
	return dist, sigma, delta
}

type refItem struct {
	d uint64
	v int
}

// refQueue is a binary min-heap of refItems by distance.
type refQueue []refItem

func (q refQueue) Len() int           { return len(q) }
func (q refQueue) Less(i, j int) bool { return q[i].d < q[j].d }
func (q refQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x any)        { *q = append(*q, x.(refItem)) }
func (q *refQueue) Pop() any {
	old := *q
	it := old[len(old)-1]
	*q = old[:len(old)-1]
	return it
}

// checkBrandes plants the tree of every source of g on one reused brandes
// and holds it to textbookBrandes: dist and σ exactly, δ within 1e-9
// relative (the two settle equal distances in different orders, so δ's
// float sums may round differently; σ's are exact integer sums).
func checkBrandes(t *testing.T, g *graph.Graph) {
	t.Helper()
	n := g.NumVertices()
	b := newBrandes(g)
	delta := make([]float64, n)
	for src := range n {
		b.dependencies(g, src, delta)
		wantDist, wantSigma, wantDelta := textbookBrandes(g, src)
		for v := range n {
			if b.dist[v] != wantDist[v] {
				t.Fatalf("source %d: dist[%d] = %d, textbook %d", src, v, b.dist[v], wantDist[v])
			}
			if wantDist[v] != graph.Unreached && b.vs[v].sigma != wantSigma[v] {
				t.Fatalf("source %d: σ[%d] = %v, textbook %v", src, v, b.vs[v].sigma, wantSigma[v])
			}
			if d, want := delta[v], wantDelta[v]; math.Abs(d-want) > 1e-9*max(math.Abs(d), math.Abs(want)) {
				t.Fatalf("source %d: δ[%d] = %v, textbook %v", src, v, d, want)
			}
		}
	}
}

// unitGrid is a rows×cols lattice with every weight 1: as many ties as a
// graph can have.
func unitGrid(rows, cols int) *graph.Graph {
	b := graph.NewBuilder(rows*cols, false)
	for r := range rows {
		for c := range cols {
			if c+1 < cols {
				b.AddEdge(r*cols+c, r*cols+c+1, 1)
			}
			if r+1 < rows {
				b.AddEdge(r*cols+c, (r+1)*cols+c, 1)
			}
		}
	}
	return b.MustFinish()
}

// TestBrandesMatchesTextbook holds the bucket-window sample tree to a
// heap-ordered Brandes on the regimes the window treats differently.
func TestBrandesMatchesTextbook(t *testing.T) {
	road := graph.RoadGrid(12, 12, 1)
	// One 2^-10 arc makes the unit, and the buckets, 2^-10 wide: the
	// window spans one unit of the grid's weights and most distances park
	// on the heap.
	wide, err := road.Splice([]graph.EdgeEdit{{U: 0, V: road.NumVertices() - 1, W: 0x1p-10}})
	if err != nil {
		t.Fatal(err)
	}
	disconnected := graph.ErdosRenyi(80, 50, 3, 2)
	if graph.IsConnected(disconnected) {
		t.Fatal("fixture meant to be disconnected is connected")
	}
	for _, c := range []struct {
		name string
		g    *graph.Graph
	}{
		{"unit grid", unitGrid(9, 11)},
		{"road grid", road},
		{"one 2^-10 arc", wide},
		{"directed", graph.RandomDirected(120, 480, 3, 3)},
		{"disconnected", disconnected},
		{"scale-free", graph.BarabasiAlbert(150, 3, 1)},
	} {
		t.Run(c.name, func(t *testing.T) { checkBrandes(t, c.g) })
	}
}

// brandesWeights are the fuzzed graphs' weights: small integers for ties,
// 2^-10 to make the buckets narrow, and 1500 to jump the window.
var brandesWeights = []float64{1, 1, 2, 3, 0x1p-10, 1500}

// FuzzBrandes holds the sample tree of every source of a byte-steered graph
// to textbookBrandes. The first byte picks 1–24 vertices and the direction,
// each later triple (u, v, w) adds an arc, or an edge, of weight
// brandesWeights[w mod 6]; few triples leave it disconnected.
func FuzzBrandes(f *testing.F) {
	f.Add([]byte{16, 0, 1, 0, 1, 2, 0, 0, 3, 0, 3, 2, 0})                   // a unit square: two shortest paths
	f.Add([]byte{17, 0, 1, 2, 1, 2, 3, 0, 2, 0, 2, 3, 1, 3, 0, 2})          // directed
	f.Add([]byte{20, 0, 1, 4, 1, 2, 0, 2, 3, 5, 3, 4, 0, 0, 4, 5, 4, 9, 1}) // 2^-10 and 1500: parked distances
	f.Add([]byte{30, 0, 1, 0, 2, 3, 0, 4, 5, 1, 6, 7, 2})                   // disconnected
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			data = []byte{0}
		}
		n := 1 + int(data[0]>>1)%24
		b := graph.NewBuilder(n, data[0]&1 == 1)
		for rest := data[1:]; len(rest) >= 3; rest = rest[3:] {
			b.AddEdge(int(rest[0])%n, int(rest[1])%n, brandesWeights[int(rest[2])%len(brandesWeights)])
		}
		checkBrandes(t, b.MustFinish())
	})
}

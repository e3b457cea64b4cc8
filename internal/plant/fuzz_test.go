package plant

import (
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/pll"
	"repro/internal/sssp"
)

// exactWeights are integers below 2^48, so on up to 32 vertices every path
// sum is an integer below 2^53 and exact at any power-of-two scale. With
// the lightest weight 1 a tree's buckets are half a unit wide: the window
// parks every distance past 512 units on the heap, and one past 2^49 units
// has a bucket number past 2^50, where the tree settles from the heap alone.
var exactWeights = []float64{1, 2, 3, 5, 8, 13, 1000, 1<<20 + 1, 1 << 40, 1<<47 + 7, 1<<48 - 1}

// roundedWeights are not dyadic, so path sums round; at most 1e14 apart, so
// that no sum on 32 vertices absorbs a lighter weight (fl(d + w) > d).
var roundedWeights = []float64{1, 1.1, 1.3, 2.7, 7.3, 1000.1, 1e6 + 0.3, 1e13 + 0.7, 1e14}

// fuzzGraph steers a graph of 1–32 vertices out of data: the first byte
// picks the order and the direction, the second the weights — exact ones at
// a scale of 2^-67 to 2^67, or rounded ones at 1e-20 to 1e20 — and each
// later triple (u, v, w) adds an arc, or an edge, with weight w drawn from
// the table. No triple leaves it edgeless, few leave it disconnected.
func fuzzGraph(data []byte) (g *graph.Graph, exact bool) {
	if len(data) < 2 {
		data = append(data[:len(data):len(data)], 0, 0)
	}
	n := 1 + int(data[0]>>1)%32
	b := graph.NewBuilder(n, data[0]&1 == 1)
	exact = data[1]&1 == 0
	wts, scale := exactWeights, math.Ldexp(1, int(data[1]>>1)%135-67)
	if !exact {
		wts, scale = roundedWeights, math.Pow(10, float64(int(data[1]>>1)%41-20))
	}
	for rest := data[2:]; len(rest) >= 3; rest = rest[3:] {
		b.AddEdge(int(rest[0])%n, int(rest[1])%n, scale*wts[int(rest[2])%len(wts)])
	}
	return b.MustFinish(), exact
}

// FuzzPLaNT holds PLaNT to two references on byte-steered graphs. Every
// unpruned tree labels exactly the vertices whose maximum-rank vertex over
// all shortest paths from the root is the root, as sssp.MaxRankOnPath's heap
// Dijkstra finds them. With exact weights every schedule also equals the
// sequential PLL reference, label for label: Run and RunDirected on 1 and 3
// workers, with pruning off, the growing table and η = 5. (With rounded
// sums PLL's cover query, a sum of two label distances, may round the
// other way from the path sum PLaNT's ancestors follow, so the two
// labelings may differ.)
func FuzzPLaNT(f *testing.F) {
	f.Add([]byte{0})                                                                       // one vertex
	f.Add([]byte{40, 0})                                                                   // edgeless
	f.Add([]byte{18, 134, 0, 1, 4, 1, 2, 5, 2, 3, 6, 3, 0, 4, 5, 6, 8, 6, 7, 4})           // two components
	f.Add([]byte{19, 134, 0, 1, 4, 1, 2, 5, 2, 0, 6, 3, 1, 4, 2, 3, 7, 4, 3, 8, 5, 4, 1})  // directed
	f.Add([]byte{20, 0, 0, 1, 0, 1, 2, 10, 2, 3, 0, 0, 3, 10, 3, 4, 9, 4, 5, 10})          // past bucket 2^50
	f.Add([]byte{30, 250, 0, 1, 0, 1, 2, 6, 2, 3, 7, 0, 4, 8, 4, 3, 5, 3, 5, 4, 5, 6, 0})  // parked, then pulled
	f.Add([]byte{25, 41, 0, 1, 2, 0, 2, 1, 1, 3, 4, 2, 3, 4, 3, 4, 5, 1, 2, 0, 4, 5, 7})   // rounded sums
	f.Add([]byte{25, 134, 0, 1, 4, 0, 2, 4, 1, 3, 4, 2, 3, 4, 3, 4, 5, 1, 2, 4, 0, 5, 10}) // equal-length paths
	f.Add([]byte("21017"))                                                                 // one arc of 1.1e4: w·fl(1/w) rounds below 1
	f.Fuzz(func(t *testing.T, data []byte) {
		g, exact := fuzzGraph(data)
		n := g.NumVertices()
		s := NewScratch(n)
		for h := 0; h < n; h++ {
			labeled := make([]float64, n)
			for v := range labeled {
				labeled[v] = -1
			}
			Tree(g, h, s, nil, nil, 0, func(v int, d float64) { labeled[v] = d })
			best, dist := sssp.MaxRankOnPath(g, h)
			for v, d := range labeled {
				if want := best[v] == int32(h); (d >= 0) != want || want && d != dist[v] {
					t.Fatalf("tree %d labels vertex %d at %v; its path maximum is %d at %v", h, v, d, best[v], dist[v])
				}
			}
		}
		if !exact {
			return
		}
		if g.Directed() {
			want, _ := pll.SequentialDirected(g, pll.Options{})
			for _, workers := range []int{1, 3} {
				for _, eta := range []int{-1, 0, 5} {
					got, _ := RunDirected(g, Options{Workers: workers, CommonHubs: eta})
					if !got.Forward.Equal(want.Forward) || !got.Backward.Equal(want.Backward) {
						t.Fatalf("RunDirected workers=%d η=%d: forward %s; backward %s", workers, eta,
							got.Forward.Diff(want.Forward), got.Backward.Diff(want.Backward))
					}
				}
			}
			return
		}
		want, _ := pll.Sequential(g, pll.Options{})
		for _, workers := range []int{1, 3} {
			for _, eta := range []int{-1, 0, 5} {
				if got, _ := Run(g, Options{Workers: workers, CommonHubs: eta}); !got.Equal(want) {
					t.Fatalf("Run workers=%d η=%d: %s", workers, eta, got.Diff(want))
				}
			}
		}
	})
}

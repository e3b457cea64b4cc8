package sssp

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/verify"
)

// bellmanFord is an independent O(nm) reference used to cross-check
// Dijkstra.
func bellmanFord(g *graph.Graph, src int) []float64 {
	n := g.NumVertices()
	dist := make([]float64, n)
	for i := range dist {
		dist[i] = graph.Infinity
	}
	dist[src] = 0
	for iter := 0; iter < n; iter++ {
		changed := false
		for u := 0; u < n; u++ {
			if dist[u] == graph.Infinity {
				continue
			}
			heads, wts := g.Neighbors(u)
			for i, v := range heads {
				if nd := dist[u] + g.FromUnits(uint64(wts[i])); nd < dist[v] {
					dist[v] = nd
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}
	return dist
}

func TestDijkstraAgainstBellmanFord(t *testing.T) {
	graphs := []*graph.Graph{
		graph.Figure1(),
		graph.Path(10, 3),
		graph.RoadGrid(6, 6, 1),
		graph.BarabasiAlbert(60, 3, 2),
		graph.ErdosRenyi(40, 60, 9, 3), // may be disconnected
		graph.RandomDirected(40, 120, 9, 4),
	}
	for gi, g := range graphs {
		for src := 0; src < g.NumVertices(); src += 7 {
			want := bellmanFord(g, src)
			got := Dijkstra(g, src)
			for v := range want {
				if got[v] != want[v] {
					t.Fatalf("graph %d src %d vertex %d: dijkstra %v, bellman-ford %v", gi, src, v, got[v], want[v])
				}
			}
		}
	}
}

// TestDijkstraToEqualsFullRow: stopping at the target changes nothing
// about the value — the same float as the full row's cell, on fractional
// weights (sixty-fourths, the finest a row adds here), on directed arcs, and on
// pairs with no path at all.
func TestDijkstraToEqualsFullRow(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	fractional := func(directed bool) *graph.Graph {
		b := graph.NewBuilder(70, directed)
		for e := 0; e < 160; e++ {
			if u, v := rng.Intn(70), rng.Intn(70); u != v {
				b.AddEdge(u, v, float64(1+rng.Intn(9*64))/64)
			}
		}
		g, err := b.Finish()
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	for name, g := range map[string]*graph.Graph{
		"weighted":     fractional(false),
		"directed":     fractional(true),
		"disconnected": graph.ErdosRenyi(70, 40, 9, 3),
	} {
		unreachable := 0
		for s := 0; s < g.NumVertices(); s++ {
			row := Dijkstra(g, s)
			for v, want := range row {
				if got := DijkstraTo(g, s, v); got != want {
					t.Fatalf("%s: DijkstraTo(%d,%d) = %v, Dijkstra row says %v", name, s, v, got, want)
				}
				if want == graph.Infinity {
					unreachable++
				}
			}
		}
		if name == "disconnected" && unreachable == 0 {
			t.Fatal("disconnected fixture is connected")
		}
	}
}

func TestDijkstraFigure1(t *testing.T) {
	g := graph.Figure1()
	// From v2 (id 1), the worked example of Figure 1b: d1=3, d3=10, d4=8,
	// d5=12.
	d := Dijkstra(g, 1)
	want := []float64{3, 0, 10, 8, 12}
	for v, w := range want {
		if d[v] != w {
			t.Fatalf("d(v2,v%d) = %v, want %v", v+1, d[v], w)
		}
	}
}

func TestMaxRankOnPathFigure1(t *testing.T) {
	g := graph.Figure1()
	// From v2 (id 1): ancestors per Figure 1c's final state: a(v1)=v1,
	// a(v3)=v2, a(v4)=v1, a(v5)=v1 (the tie at v5 resolves to the path
	// through v1).
	best, dist := verify.MaxRankOnPath(g, 1)
	want := []int32{0, 1, 1, 0, 0}
	for v, w := range want {
		if best[v] != w {
			t.Fatalf("maxrank(v2→v%d) = v%d, want v%d", v+1, best[v]+1, w+1)
		}
	}
	if dist[4] != 12 {
		t.Fatalf("dist to v5 = %v", dist[4])
	}
}

// TestMaxRankOnPathBrute cross-checks verify's float64 reference against
// exhaustive path enumeration over this package's rows, on small random
// graphs.
func TestMaxRankOnPathBrute(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		g := graph.ErdosRenyi(12, 22, 4, seed)
		n := g.NumVertices()
		for src := 0; src < n; src++ {
			best, dist := verify.MaxRankOnPath(g, src)
			wantDist := Dijkstra(g, src)
			for v := 0; v < n; v++ {
				if dist[v] != wantDist[v] {
					t.Fatalf("seed %d: dist(%d,%d) = %v, want %v", seed, src, v, dist[v], wantDist[v])
				}
				if dist[v] == graph.Infinity {
					if best[v] != -1 {
						t.Fatalf("unreachable vertex %d has ancestor %d", v, best[v])
					}
					continue
				}
				want := bruteMaxRank(g, src, v, wantDist)
				if int(best[v]) != want {
					t.Fatalf("seed %d: maxrank(%d→%d) = %d, want %d", seed, src, v, best[v], want)
				}
			}
		}
	}
}

// bruteMaxRank finds the minimum id over vertices on ANY shortest src–v
// path: u is on one iff d(src,u) + d(u,v) == d(src,v).
func bruteMaxRank(g *graph.Graph, src, v int, distSrc []float64) int {
	best := g.NumVertices()
	for u := 0; u < g.NumVertices(); u++ {
		if distSrc[u] == graph.Infinity {
			continue
		}
		dUV := Dijkstra(g, u)[v]
		if dUV == graph.Infinity {
			continue
		}
		if distSrc[u]+dUV == distSrc[v] && u < best {
			best = u
		}
	}
	return best
}

// dijkstraSink keeps the Dijkstra benchmarks' results live.
var dijkstraSink []float64

// benchmarkDijkstra times one full Dijkstra row over g per op, from
// sources walked in id order.
func benchmarkDijkstra(b *testing.B, g *graph.Graph) {
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dijkstraSink = Dijkstra(g, i%g.NumVertices())
	}
}

// BenchmarkDijkstraRoad is one full Dijkstra over the bench's road grid
// (96×96): the queue's cost with nothing else around it.
func BenchmarkDijkstraRoad(b *testing.B) { benchmarkDijkstra(b, graph.RoadGrid(96, 96, 1)) }

// BenchmarkDijkstraScaleFree is one full Dijkstra over the build-scalefree
// graph: short hops through high-degree hubs, weights in [1, 90).
func BenchmarkDijkstraScaleFree(b *testing.B) {
	benchmarkDijkstra(b, graph.BarabasiAlbert(8192, 3, 1))
}

// dijkstraToSink keeps the DijkstraTo benchmarks' answers live.
var dijkstraToSink float64

// benchmarkDijkstraTo times one DijkstraTo over g per op, cycling through
// 256 pairs drawn once from a fixed seed.
func benchmarkDijkstraTo(b *testing.B, g *graph.Graph) {
	rng := rand.New(rand.NewSource(1))
	pairs := make([][2]int, 256)
	for i := range pairs {
		pairs[i] = [2]int{rng.Intn(g.NumVertices()), rng.Intn(g.NumVertices())}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		dijkstraToSink = DijkstraTo(g, p[0], p[1])
	}
}

// BenchmarkDijkstraToRoad is one point-to-point search over the road grid
// (96×96): the traversal a hub-label query is measured against, and the
// overlay's fallback.
func BenchmarkDijkstraToRoad(b *testing.B) { benchmarkDijkstraTo(b, graph.RoadGrid(96, 96, 1)) }

// BenchmarkDijkstraToScaleFree is one point-to-point search over the
// build-scalefree graph.
func BenchmarkDijkstraToScaleFree(b *testing.B) {
	benchmarkDijkstraTo(b, graph.BarabasiAlbert(8192, 3, 1))
}

// BenchmarkDijkstraWideWeights is the road grid with one extra 2^-10 arc,
// which makes the unit, and the buckets, 2^-10 wide: the window spans one
// unit of the grid's integer weights, so nearly every relaxation lands
// beyond it, and this times the heap the window parks them on.
func BenchmarkDijkstraWideWeights(b *testing.B) {
	benchmarkDijkstra(b, wideWeights())
}

// wideWeights is the 96×96 road grid plus one 2^-10 arc.
func wideWeights() *graph.Graph {
	road := graph.RoadGrid(96, 96, 1)
	g, err := road.Splice([]graph.EdgeEdit{{U: 0, V: road.NumVertices() - 1, W: 0x1p-10}})
	if err != nil {
		panic(err)
	}
	return g
}

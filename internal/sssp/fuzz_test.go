package sssp

import (
	"math"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/verify"
)

// fuzzWeights spans 1e-300 to 1e300. The ones from 1 to 1e3, scaled by up
// to 2 in sixteenths, count at most 2^17 units of 2^-5: 1e3 and 1 are more
// than the window's 1024 buckets apart, so the search parks distances on
// the heap. The others — below a unit graph.Finish can count in 2^32
// (1e±300, 1e13), or not dyadic (1e-3, 0.1, 0.3) — leave the domain, unless
// the scaling makes one dyadic again (0.1 · 1.5625 is 0.15625 = 5·2^-5 in
// float64).
var fuzzWeights = []float64{1e-300, 2.5e-300, 1e-3, 0.1, 0.3, 1, 1.5, 2, 3, 7, 1e3, 1e13, 1e300, 1.7e300}

// fuzzGraph steers a graph of 2–25 vertices out of data: the first byte
// picks the order and the direction, each later triple (u, v, w) adds an
// arc, or an edge, with a weight drawn from fuzzWeights and scaled by up to
// 2 in sixteenths. Few triples leave it disconnected. It returns Finish's
// answer, and whether the weights are in domain: the finest unit any
// weight drawn (of an edge that is not a self loop, which AddEdge ignores)
// needs is 2^-k with k ≤ graph.MaxUnitExp, and each of them counts below
// 2^32 units of it.
func fuzzGraph(data []byte) (g *graph.Graph, tame bool, err error) {
	if len(data) == 0 {
		data = []byte{0}
	}
	n := 2 + int(data[0]>>1)%24
	b := graph.NewBuilder(n, data[0]&1 == 1)
	var drawn []float64
	for rest := data[1:]; len(rest) >= 3; rest = rest[3:] {
		u, v := int(rest[0])%n, int(rest[1])%n
		w := fuzzWeights[int(rest[2])%len(fuzzWeights)] * (1 + float64(rest[2]/14)/16)
		if u != v {
			drawn = append(drawn, w)
		}
		b.AddEdge(u, v, w)
	}
	k := 0
	for _, w := range drawn {
		k = max(k, graph.UnitExp(w))
	}
	tame = k <= graph.MaxUnitExp
	for _, w := range drawn {
		tame = tame && math.Ldexp(w, k) < 1<<32
	}
	g, err = b.Finish()
	return g, tame, err
}

// FuzzSSSP holds every entry point of the bucket search to verify's float64
// Dijkstra with ==, from every source of byte-steered directed and
// undirected graphs: Dijkstra's row, DijkstraTo for every target, and
// UnitsTo's entries up to its targets' largest distance (exact) and beyond
// it (bounds), for every single target and for target sets of 0–4
// vertices drawn from the data (an empty set searches the whole row).
// A graph that draws an out-of-domain weight (seeds 0–4: 1e±300, 1e13,
// 1e-3, 0.1 and 0.3) must instead be refused by graph.Finish, naming a
// weight; seeds 5–8 are in domain.
func FuzzSSSP(f *testing.F) {
	f.Add([]byte{8, 0, 1, 5, 1, 2, 2, 2, 3, 9, 0, 3, 4})
	f.Add([]byte{13, 0, 1, 2, 1, 2, 9, 0, 2, 10, 2, 3, 6, 3, 4, 2, 4, 5, 9})       // 1e-3 against 7 and 1e3
	f.Add([]byte{20, 0, 1, 0, 1, 2, 12, 2, 3, 13, 0, 3, 27, 3, 4, 1, 5, 6, 5})     // 1e-300 against 1e300
	f.Add([]byte{30, 0, 1, 12, 1, 2, 13, 2, 3, 12, 0, 4, 0, 4, 3, 26, 3, 5, 99})   // sums past MaxFloat64
	f.Add([]byte{17, 1, 0, 33, 0, 2, 4, 2, 1, 3, 1, 3, 150, 3, 0, 47, 4, 1, 200})  // directed, fractional
	f.Add([]byte{20, 0, 1, 10, 0, 9, 220, 2, 3, 5, 1, 9, 9, 0, 8, 220})            // parked, then pulled as the window slides
	f.Add([]byte{20, 0, 1, 10, 1, 5, 10, 0, 9, 220, 9, 5, 5})                      // a parked distance beats one in the window
	f.Add([]byte{17, 1, 0, 6, 0, 2, 20, 2, 1, 61, 1, 3, 150, 3, 0, 204, 4, 1, 20}) // directed, fractional, in domain; 4→1 one way, 5–9 isolated
	f.Add([]byte{8, 0, 1, 5, 1, 2, 6, 2, 3, 9, 0, 3, 61})                          // undirected, fractional, in domain
	f.Fuzz(func(t *testing.T, data []byte) {
		g, tame, err := fuzzGraph(data)
		if !tame {
			if err == nil || !strings.Contains(err.Error(), "weight ") {
				t.Fatalf("Finish over an out-of-domain weight: %v, want a refusal naming the weight", err)
			}
			return
		}
		if err != nil {
			t.Fatalf("Finish refused in-domain weights: %v", err)
		}
		if len(data) == 0 {
			data = []byte{0} // fuzzGraph's reading of it
		}
		n := g.NumVertices()
		for s := 0; s < n; s++ {
			want, row := verify.Dijkstra(g, s), Dijkstra(g, s)
			for v := range want {
				if row[v] != want[v] {
					t.Fatalf("Dijkstra from %d: vertex %d at %v, the float64 oracle says %v", s, v, row[v], want[v])
				}
				if got := DijkstraTo(g, s, v); got != want[v] {
					t.Fatalf("DijkstraTo(%d, %d) = %v, the float64 oracle says %v", s, v, got, want[v])
				}
				checkUnitsTo(t, g, s, []int{v}, want)
			}
			for k := 0; k <= 4; k++ {
				targets := make([]int, k)
				for j := range targets {
					targets[j] = int(data[(s*5+k+j)%len(data)]) % n
				}
				checkUnitsTo(t, g, s, targets, want)
			}
		}
	})
}

// checkUnitsTo holds UnitsTo from s over targets to want, the float64
// oracle's row: every entry at most the largest target's distance
// (graph.Unreached for an empty set) exact, and none below want.
func checkUnitsTo(t *testing.T, g *graph.Graph, s int, targets []int, want []float64) {
	t.Helper()
	UnitsTo(g, s, targets, func(du []uint64) {
		bound := uint64(graph.Unreached)
		for i, v := range targets {
			if i == 0 || du[v] > bound {
				bound = du[v]
			}
		}
		for x, d := range du {
			if d <= bound && g.FromUnits(d) != want[x] {
				t.Fatalf("UnitsTo(%d, %v): vertex %d at %d units, at most the targets' %d, but the float64 oracle says %v", s, targets, x, d, bound, want[x])
			}
			if d != graph.Unreached && g.FromUnits(d) < want[x] {
				t.Fatalf("UnitsTo(%d, %v): vertex %d at %d units, below the float64 oracle's %v", s, targets, x, d, want[x])
			}
		}
	})
}

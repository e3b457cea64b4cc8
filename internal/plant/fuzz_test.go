package plant

import (
	"math"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/label"
	"repro/internal/pll"
	"repro/internal/verify"
)

// exactWeights are integers below 2^48, so on up to 32 vertices every path
// sum is an integer below 2^53 and exact at any power-of-two scale. A graph
// is in domain while every weight counts below 2^32 of the finest unit
// among them: with the lightest weight 1 the window parks every distance
// past 1024 units on the heap. 2^40 and up, or a fine scale beside a
// coarse weight, leave the domain.
var exactWeights = []float64{1, 2, 3, 5, 8, 13, 1000, 1<<20 + 1, 1 << 40, 1<<47 + 7, 1<<48 - 1}

// roundedWeights are not dyadic, and leave the domain at any scale; only 1
// at a scale of 1 to 1e9 is in it.
var roundedWeights = []float64{1, 1.1, 1.3, 2.7, 7.3, 1000.1, 1e6 + 0.3, 1e13 + 0.7, 1e14}

// fuzzGraph steers a graph of 1–32 vertices out of data: the first byte
// picks the order and the direction, the second the weights — exact ones at
// a scale of 2^-67 to 2^67, or rounded ones at 1e-20 to 1e20 — and each
// later triple (u, v, w) adds an arc, or an edge, with weight w drawn from
// the table. No triple leaves it edgeless, few leave it disconnected. It
// returns Finish's answer and whether the weights are in domain: the
// finest unit any weight drawn (of an edge that is not a self loop, which
// AddEdge ignores) needs is 2^-k with k ≤ graph.MaxUnitExp, and each of
// them counts below 2^32 units of it. On 32 vertices no path sum reaches
// 2^53 units then.
func fuzzGraph(data []byte) (g *graph.Graph, tame bool, err error) {
	if len(data) < 2 {
		data = append(data[:len(data):len(data)], 0, 0)
	}
	n := 1 + int(data[0]>>1)%32
	b := graph.NewBuilder(n, data[0]&1 == 1)
	wts, scale := exactWeights, math.Ldexp(1, int(data[1]>>1)%135-67)
	if data[1]&1 == 1 {
		wts, scale = roundedWeights, math.Pow(10, float64(int(data[1]>>1)%41-20))
	}
	var drawn []float64
	for rest := data[2:]; len(rest) >= 3; rest = rest[3:] {
		u, v, w := int(rest[0])%n, int(rest[1])%n, scale*wts[int(rest[2])%len(wts)]
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

// refuses reports whether run panicked with a label refusal (label.Units).
func refuses(run func()) (refused bool) {
	defer func() {
		if p := recover(); p != nil {
			if _, refused = p.(*label.DistError); !refused {
				panic(p)
			}
		}
	}()
	run()
	return false
}

// FuzzPLaNT holds PLaNT to two references on byte-steered graphs. Every
// unpruned tree labels exactly the vertices whose maximum-rank vertex over
// all shortest paths from the root is the root, as verify.MaxRankOnPath's
// float64 Dijkstra finds them, and every schedule equals the sequential PLL
// reference, label for label: Run and RunDirected on 1 and 3 workers, with
// pruning off, the growing table and η = 5. Out of domain, the checks are
// refusals: graph.Finish refuses the rounded weights (seed 6) and exact
// ones past 2^32 units (seeds 2–5 and 7), naming a weight, and where
// a canonical label reaches 2^32 units (seed 9; on a directed graph a
// backward one, testdata/fuzz/FuzzPLaNT/fce970d1d7fb596a) every tree that
// would emit it, every schedule and PLL refuse it.
func FuzzPLaNT(f *testing.F) {
	f.Add([]byte{0})                                                                       // one vertex
	f.Add([]byte{40, 0})                                                                   // edgeless
	f.Add([]byte{18, 134, 0, 1, 4, 1, 2, 5, 2, 3, 6, 3, 0, 4, 5, 6, 8, 6, 7, 4})           // two components
	f.Add([]byte{19, 134, 0, 1, 4, 1, 2, 5, 2, 0, 6, 3, 1, 4, 2, 3, 7, 4, 3, 8, 5, 4, 1})  // directed
	f.Add([]byte{20, 0, 0, 1, 0, 1, 2, 10, 2, 3, 0, 0, 3, 10, 3, 4, 9, 4, 5, 10})          // past bucket 2^50
	f.Add([]byte{30, 250, 0, 1, 0, 1, 2, 6, 2, 3, 7, 0, 4, 8, 4, 3, 5, 3, 5, 4, 5, 6, 0})  // parked, then pulled
	f.Add([]byte{25, 41, 0, 1, 2, 0, 2, 1, 1, 3, 4, 2, 3, 4, 3, 4, 5, 1, 2, 0, 4, 5, 7})   // rounded sums
	f.Add([]byte{25, 134, 0, 1, 4, 0, 2, 4, 1, 3, 4, 2, 3, 4, 3, 4, 5, 1, 2, 4, 0, 5, 10}) // equal-length paths
	f.Add([]byte("21017"))                                                                 // one arc of 1.1·1e4, which is 11000
	f.Add([]byte{6, 156, 0, 1, 7, 1, 2, 7, 2, 3, 7})                                       // arcs of 2^31 + 2^11: labels past 2^32
	f.Add([]byte{18, 134, 0, 1, 4, 1, 2, 5, 2, 3, 6, 3, 0, 4, 5, 6, 7, 6, 7, 4})           // two components, in domain
	f.Add([]byte{19, 134, 0, 1, 4, 1, 2, 5, 2, 0, 6, 3, 1, 4, 2, 3, 7, 4, 3, 3, 5, 4, 1})  // directed, in domain
	f.Add([]byte{30, 134, 0, 1, 0, 1, 2, 6, 2, 3, 7, 0, 4, 0, 4, 3, 5, 3, 5, 4, 5, 6, 0})  // parked, then pulled
	f.Add([]byte{25, 134, 0, 1, 4, 0, 2, 4, 1, 3, 4, 2, 3, 4, 3, 4, 5, 1, 2, 4, 0, 5, 6})  // equal-length paths, in domain
	f.Fuzz(func(t *testing.T, data []byte) {
		g, tame, err := fuzzGraph(data)
		if !tame {
			if err == nil || !strings.Contains(err.Error(), "weight ") {
				t.Fatalf("Finish over weights past 2^32 units: %v, want a refusal naming a weight", err)
			}
			return
		}
		if err != nil {
			t.Fatalf("Finish refused in-domain weights: %v", err)
		}
		n := g.NumVertices()
		s := NewScratch(n)
		far := false // some canonical label reaches 2^32 units
		for h := 0; h < n; h++ {
			labeled := make([]int64, n)
			for v := range labeled {
				labeled[v] = -1
			}
			best, dist := verify.MaxRankOnPath(g, h)
			tooFar := false
			for v := range best {
				tooFar = tooFar || best[v] == int32(h) && dist[v] >= g.FromUnits(1<<32)
			}
			far = far || tooFar
			if refused := refuses(func() { Tree(g, h, s, nil, nil, 0, func(v int, d uint32) { labeled[v] = int64(d) }) }); refused != tooFar {
				t.Fatalf("tree %d refused a label: %v, want %v", h, refused, tooFar)
			}
			if tooFar {
				continue
			}
			for v, d := range labeled {
				if want := best[v] == int32(h); (d >= 0) != want || want && g.FromUnits(uint64(d)) != dist[v] {
					t.Fatalf("tree %d labels vertex %d at %v units; its path maximum is %d at %v", h, v, d, best[v], dist[v])
				}
			}
		}
		if g.Directed() {
			// The backward labels are the trees of the transpose, and one
			// of them can reach 2^32 units where no forward label does.
			gt := g.Transpose()
			for h := 0; h < n && !far; h++ {
				best, dist := verify.MaxRankOnPath(gt, h)
				for v := range best {
					far = far || best[v] == int32(h) && dist[v] >= g.FromUnits(1<<32)
				}
			}
			var want *label.DirectedIndex
			if refuses(func() { want, _ = pll.SequentialDirected(g, pll.Options{}) }) != far {
				t.Fatalf("pll.SequentialDirected refused: %v, want %v", !far, far)
			}
			for _, workers := range []int{1, 3} {
				for _, eta := range []int{-1, 0, 5} {
					var got *label.DirectedIndex
					if refuses(func() { got, _ = RunDirected(g, Options{Workers: workers, Eta: eta}) }) != far {
						t.Fatalf("RunDirected workers=%d η=%d refused: %v, want %v", workers, eta, !far, far)
					}
					if far {
						continue
					}
					if !got.Forward.Equal(want.Forward) || !got.Backward.Equal(want.Backward) {
						t.Fatalf("RunDirected workers=%d η=%d: forward %s; backward %s", workers, eta,
							got.Forward.Diff(want.Forward), got.Backward.Diff(want.Backward))
					}
				}
			}
			return
		}
		var want *label.Index
		if refuses(func() { want, _ = pll.Sequential(g, pll.Options{}) }) != far {
			t.Fatalf("pll.Sequential refused: %v, want %v", !far, far)
		}
		for _, workers := range []int{1, 3} {
			for _, eta := range []int{-1, 0, 5} {
				var got *label.Index
				if refuses(func() { got, _ = Run(g, Options{Workers: workers, Eta: eta}) }) != far {
					t.Fatalf("Run workers=%d η=%d refused: %v, want %v", workers, eta, !far, far)
				}
				if !far && !got.Equal(want) {
					t.Fatalf("Run workers=%d η=%d: %s", workers, eta, got.Diff(want))
				}
			}
		}
	})
}

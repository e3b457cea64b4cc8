package chl

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/label"
)

// twoComponents joins two random graphs on n vertices each into one graph
// of 2n: every pair across the halves is unreachable.
func twoComponents(n int, directed bool) *Graph {
	b := NewGraphBuilder(2*n, directed)
	for half := 0; half < 2; half++ {
		g := GenerateRandom(n, 3*n, 9, int64(half+1))
		if directed {
			g = GenerateRandomDirected(n, 5*n, 9, int64(half+1))
		}
		for u := 0; u < n; u++ {
			heads, wts := g.Neighbors(u)
			for k, v := range heads {
				b.AddEdge(half*n+u, half*n+int(v), g.FromUnits(uint64(wts[k])))
			}
		}
	}
	return b.MustFinish()
}

// TestBatchIntoGroupsSources holds BatchInto — which scatters a repeated
// source once and probes it for each of its targets, and joins a
// singleton pairwise — to per-pair FlatIndex.Query, ==, on packed and
// compressed indexes, directed and undirected, over batches that repeat
// their sources in every proportion, split into worker chunks at several
// places.
func TestBatchIntoGroupsSources(t *testing.T) {
	const half = 70
	n := 2 * half
	rng := rand.New(rand.NewSource(5))
	// pairsFrom draws count pairs: the i-th source, then a target for it.
	pairsFrom := func(count int, source func(i int) int, target func(u int) int) []QueryPair {
		ps := make([]QueryPair, count)
		for i := range ps {
			u := source(i)
			ps[i] = QueryPair{U: u, V: target(u)}
		}
		return ps
	}
	anyV := func(int) int { return rng.Intn(n) }
	sixteen := rng.Perm(n)[:16]
	distinct := rng.Perm(n)
	batches := map[string][]QueryPair{
		"one source":   pairsFrom(1000, func(int) int { return 7 }, anyV),
		"16 sources":   pairsFrom(1000, func(int) int { return sixteen[rng.Intn(16)] }, anyV),
		"all distinct": pairsFrom(n, func(i int) int { return distinct[i] }, anyV),
		"singletons among repeats": pairsFrom(300, func(i int) int {
			if i%3 == 0 {
				return sixteen[i%2]
			}
			return distinct[i%n]
		}, anyV),
		"u == v": pairsFrom(200, func(i int) int { return sixteen[i%16] }, func(u int) int { return u }),
		"unreachable": pairsFrom(400, func(i int) int { return sixteen[i%4] % half },
			func(int) int { return half + rng.Intn(half) }),
	}
	for _, directed := range []bool{false, true} {
		ix, err := Build(twoComponents(half, directed), Options{})
		if err != nil {
			t.Fatal(err)
		}
		packed, err := ix.Freeze()
		if err != nil {
			t.Fatal(err)
		}
		compressed, err := packed.Compress()
		if err != nil {
			t.Fatal(err)
		}
		for format, fx := range map[string]*FlatIndex{"packed": packed, "compressed": compressed} {
			eng := NewBatchEngineFlat(fx)
			for name, pairs := range batches {
				for _, workers := range []int{1, 3} {
					t.Run(fmt.Sprintf("directed=%v/%s/%s/workers=%d", directed, format, name, workers), func(t *testing.T) {
						eng.workers = workers
						dst := make([]float64, len(pairs))
						eng.BatchInto(dst, pairs)
						unreachable := 0
						for i, p := range pairs {
							if want := fx.Query(p.U, p.V); dst[i] != want {
								t.Fatalf("pair %d (%d,%d) = %v, Query says %v", i, p.U, p.V, dst[i], want)
							}
							if dst[i] == Infinity {
								unreachable++
							}
						}
						if name == "unreachable" && unreachable != len(pairs) {
							t.Fatalf("%d of %d cross-component pairs reachable", len(pairs)-unreachable, len(pairs))
						}
					})
				}
			}
		}
	}
}

// TestBatchIntoDropsScratchAfterPanic: a source whose run holds a hub id
// ≥ n panics in the middle of its scatter. The worker must drop its
// half-written scratch and chains rather than pool them, or the next batch
// probes stale slots — here, a false witness at distance 0 for pairs that
// share no hub.
func TestBatchIntoDropsScratchAfterPanic(t *testing.T) {
	const n = 8
	ix := label.NewIndex(n, 0)
	for v := 0; v < n; v++ {
		ix.SetLabels(v, label.Set{label.Pack(uint32(v), 0)})
	}
	ix.SetLabels(0, label.Set{label.Pack(1, 0), label.Pack(2, 0), label.Pack(n+3, 0)})
	perm := make([]int, n)
	for v := range perm {
		perm[v] = v
	}
	eng := NewBatchEngineFlat(newFlatIndex(label.Freeze(ix), nil, perm))
	eng.workers = 1
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("scattering a hub id ≥ n did not panic")
			}
		}()
		eng.BatchInto(make([]float64, 2), []QueryPair{{U: 0, V: 1}, {U: 0, V: 2}})
	}()
	for round := 0; round < 4; round++ {
		dst := make([]float64, 2)
		eng.BatchInto(dst, []QueryPair{{U: 3, V: 1}, {U: 3, V: 2}})
		if dst[0] != Infinity || dst[1] != Infinity {
			t.Fatalf("round %d: d(3,1), d(3,2) = %v, want both unreachable: a dirty scratch was recycled", round, dst)
		}
	}
}

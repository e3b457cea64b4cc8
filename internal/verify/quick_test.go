package verify_test

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/gll"
	"repro/internal/graph"
	"repro/internal/plant"
	"repro/internal/pll"
	"repro/internal/verify"
)

// TestQuickCHLContract is the property-based core invariant: for an
// arbitrary random graph under an arbitrary random hierarchy, sequential
// PLL emits a labeling satisfying the full CHL contract, and LCC / GLL /
// PLaNT emit the bit-identical labeling. testing/quick drives the seeds.
func TestQuickCHLContract(t *testing.T) {
	prop := func(gseed, oseed int64, dense bool) bool {
		n := 24 + int(uint64(gseed)%17)
		m := n * 2
		if dense {
			m = n * 5
		}
		g := graph.ErdosRenyi(n, m, 6, gseed)
		// Random hierarchy: permute the graph by it so rank = id.
		perm := rand.New(rand.NewSource(oseed)).Perm(n)
		rg, _ := g.Permute(perm)

		want, _ := pll.Sequential(rg, pll.Options{})
		if err := verify.IsCHL(rg, want); err != nil {
			t.Logf("seed (%d,%d): %v", gseed, oseed, err)
			return false
		}
		for name, run := range map[string]func() bool{
			"lcc": func() bool {
				ix, _ := gll.Run(rg, gll.Options{Workers: 3, Alpha: math.Inf(1)})
				return want.Equal(ix)
			},
			"gll": func() bool {
				ix, _ := gll.Run(rg, gll.Options{Workers: 3, Alpha: 1.5})
				return want.Equal(ix)
			},
			"plant": func() bool {
				ix, _ := plant.Run(rg, plant.Options{Workers: 3})
				return want.Equal(ix)
			},
		} {
			if !run() {
				t.Logf("seed (%d,%d): %s diverged from the CHL", gseed, oseed, name)
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 40}
	if testing.Short() {
		cfg.MaxCount = 8
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestQuickQueryEqualsDijkstra: the cover property as a quick property —
// arbitrary graph, arbitrary pair, label query == Dijkstra.
func TestQuickQueryEqualsDijkstra(t *testing.T) {
	type fixture struct {
		g  *graph.Graph
		ix interface{ Query(u, v int) float64 }
	}
	cache := map[int64]fixture{}
	prop := func(seed int64, a, b uint8) bool {
		s := seed % 7
		fx, ok := cache[s]
		if !ok {
			g := graph.SmallWorld(40, 2, 0.25, s)
			ix, _ := pll.Sequential(g, pll.Options{})
			fx = fixture{g, ix}
			cache[s] = fx
		}
		u := int(a) % 40
		v := int(b) % 40
		want := dijkstraDist(fx.g, u, v)
		return fx.ix.Query(u, v) == want
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func dijkstraDist(g *graph.Graph, u, v int) float64 {
	// Tiny local memo-free reference; graphs are 40 vertices.
	type qi struct {
		v int
		d float64
	}
	dist := make([]float64, g.NumVertices())
	for i := range dist {
		dist[i] = graph.Infinity
	}
	dist[u] = 0
	queue := []qi{{u, 0}}
	for len(queue) > 0 {
		best := 0
		for i := range queue {
			if queue[i].d < queue[best].d {
				best = i
			}
		}
		cur := queue[best]
		queue = append(queue[:best], queue[best+1:]...)
		if cur.d > dist[cur.v] {
			continue
		}
		heads, wts := g.Neighbors(cur.v)
		for i, h := range heads {
			if nd := cur.d + g.FromUnits(uint64(wts[i])); nd < dist[h] {
				dist[h] = nd
				queue = append(queue, qi{int(h), nd})
			}
		}
	}
	return dist[v]
}

package chl_test

// Tests for the §5.4 extensions: path retrieval and the PLaNT-first GLL
// superstep.

import (
	"math/rand"
	"reflect"
	"testing"

	chl "repro"
	"repro/internal/sssp"
)

func TestBuildWithPathsRetrievesRealPaths(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		g := chl.GenerateRandom(80, 200, 7, seed)
		px, err := chl.BuildWithPaths(g, chl.Options{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 300; i++ {
			u, v := rng.Intn(80), rng.Intn(80)
			want := sssp.Dijkstra(g, u)[v]
			path, d, ok := px.Path(u, v)
			if want == chl.Infinity {
				if ok {
					t.Fatalf("path found for unreachable pair (%d,%d)", u, v)
				}
				continue
			}
			if !ok {
				t.Fatalf("no path for connected pair (%d,%d)", u, v)
			}
			if d != want {
				t.Fatalf("path length %v, want %v", d, want)
			}
			if path[0] != u || path[len(path)-1] != v {
				t.Fatalf("path endpoints %d..%d, want %d..%d", path[0], path[len(path)-1], u, v)
			}
			// Every hop must be a real edge and the weights must sum to d.
			var sum float64
			for j := 1; j < len(path); j++ {
				w, exists := g.HasEdge(path[j-1], path[j])
				if !exists {
					t.Fatalf("path hop (%d,%d) is not an edge", path[j-1], path[j])
				}
				sum += w
			}
			if sum != d {
				t.Fatalf("path weights sum to %v, query says %v", sum, d)
			}
		}
		// Self path.
		if p, d, ok := px.Path(5, 5); !ok || d != 0 || len(p) != 1 {
			t.Fatalf("self path = %v,%v,%v", p, d, ok)
		}
		// A path index is the sequential-PLL Index of its order: the same
		// labels, and a frozen form answering as it does.
		ord := make([]int, 80)
		for r := range ord {
			ord[r] = px.VertexAtRank(r)
		}
		o, err := chl.RankFromPerm(ord)
		if err != nil {
			t.Fatal(err)
		}
		ix, err := chl.Build(g, chl.Options{Algorithm: chl.AlgoSeqPLL, Order: o})
		if err != nil {
			t.Fatal(err)
		}
		fx, err := px.Freeze()
		if err != nil {
			t.Fatal(err)
		}
		for u := 0; u < 80; u++ {
			if got, want := px.Labels(u), ix.Labels(u); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d: path index labels of %d = %v, AlgoSeqPLL %v", seed, u, got, want)
			}
			for v := 0; v < 80; v++ {
				if got, want := fx.Query(u, v), px.Query(u, v); got != want {
					t.Fatalf("seed %d: frozen path index d(%d,%d) = %v, Query %v", seed, u, v, got, want)
				}
			}
		}
	}
}

// BuildWithPaths runs Build's checks: an order of the wrong length and a
// label past 2^32 units are refused, not built. (A graph whose path sums
// could round is refused before either, by its own Finish.)
func TestBuildWithPathsRunsBuildChecks(t *testing.T) {
	g := chl.GenerateRoadGrid(4, 4, 1)
	short := chl.RankIdentity(g.NumVertices() - 1)
	_, buildErr := chl.Build(g, chl.Options{Order: short})
	if _, err := chl.BuildWithPaths(g, chl.Options{Order: short}); err == nil || buildErr == nil || err.Error() != buildErr.Error() {
		t.Fatalf("BuildWithPaths over a short order: %v, want Build's %v", err, buildErr)
	}

	far := pathGraph(1<<31, 1<<31)
	ord := chl.RankIdentity(far.NumVertices())
	_, buildErr = chl.Build(far, chl.Options{Algorithm: chl.AlgoSeqPLL, Order: ord})
	if _, err := chl.BuildWithPaths(far, chl.Options{Order: ord}); err == nil || buildErr == nil || err.Error() != buildErr.Error() {
		t.Fatalf("BuildWithPaths with a label of 2^32 units: %v, want Build's %v", err, buildErr)
	}
}

func TestBuildWithPathsRejectsDirected(t *testing.T) {
	g := chl.GenerateRandomDirected(20, 60, 5, 1)
	if _, err := chl.BuildWithPaths(g, chl.Options{}); err == nil {
		t.Fatal("directed graph accepted")
	}
}

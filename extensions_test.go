package chl_test

// Tests for the §5.4 extensions: path retrieval and the PLaNT-first GLL
// superstep.

import (
	"math/rand"
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
	}
}

func TestBuildWithPathsRejectsDirected(t *testing.T) {
	g := chl.GenerateRandomDirected(20, 60, 5, 1)
	if _, err := chl.BuildWithPaths(g, chl.Options{}); err == nil {
		t.Fatal("directed graph accepted")
	}
}

//go:build !race

// The race detector makes sync.Pool drop items at random, so allocation
// counts over pooled scratch are only meaningful without it.

package sssp

import (
	"testing"

	"repro/internal/graph"
)

// TestDijkstraScratchReused: the heap, and DijkstraTo's distance buffer,
// come from a pool, so after one warm-up call DijkstraTo allocates nothing
// and Dijkstra allocates only the row it returns.
func TestDijkstraScratchReused(t *testing.T) {
	g := graph.RoadGrid(16, 16, 1)
	last := g.NumVertices() - 1
	if a := testing.AllocsPerRun(20, func() { DijkstraTo(g, 0, last) }); a != 0 {
		t.Errorf("DijkstraTo allocates %v times per call, want 0", a)
	}
	if a := testing.AllocsPerRun(20, func() { dijkstraSink = Dijkstra(g, 3) }); a != 1 {
		t.Errorf("Dijkstra allocates %v times per call, want 1 (its row)", a)
	}
}

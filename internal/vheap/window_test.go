package vheap

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// arc is an arc to v of weight w in the window's test graphs.
type arc struct {
	v int
	w uint64
}

// randomArcs returns a random digraph on n vertices with m arcs as
// out-lists, every weight drawn from weights.
func randomArcs(rng *rand.Rand, n, m int, weights []uint64) [][]arc {
	out := make([][]arc, n)
	for range m {
		u := rng.Intn(n)
		out[u] = append(out[u], arc{rng.Intn(n), weights[rng.Intn(len(weights))]})
	}
	return out
}

// heapDijkstra is the reference: Dijkstra on the heap alone.
func heapDijkstra(g [][]arc, source int) []uint64 {
	dist := make([]uint64, len(g))
	for i := range dist {
		dist[i] = math.MaxUint64
	}
	dist[source] = 0
	h := New(len(g))
	h.Push(source, 0)
	for !h.Empty() {
		u, du := h.Pop()
		for _, a := range g[u] {
			if nd := du + a.w; nd < dist[a.v] {
				dist[a.v] = nd
				h.Push(a.v, nd)
			}
		}
	}
	return dist
}

// TestWindowSettlesBucketByBucket runs the label-setting search PLaNT runs
// on the window, each bucket settled in one pass: every vertex is settled
// once, at its heap Dijkstra distance, in ascending bucket order. The
// weights park distances on the heap and jump the window across empty
// stretches; buckets are the lightest weight's power of two wide, or one
// unit.
func TestWindowSettlesBucketByBucket(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 300; trial++ {
		weights := []uint64{3, 2, 4, 14, 1200, 2e6 + 1, 2e15}[:1+rng.Intn(7)]
		n := 1 + rng.Intn(60)
		g := randomArcs(rng, n, rng.Intn(4*n), weights)
		source := rng.Intn(n)
		want := heapDijkstra(g, source)

		minArc := uint32(slices.Min(weights))
		if trial%10 == 9 {
			minArc = 1
		}
		dist := make([]uint64, n)
		for i := range dist {
			dist[i] = math.MaxUint64
		}
		settled := make([]bool, n)
		w := NewWindow(New(n))
		w.Start(minArc)
		dist[source] = 0
		w.Queue(source, 0)
		for more := true; more; more = w.Next(dist) {
			for _, e := range w.Bucket() {
				v := int(e.V)
				if e.D != dist[v] {
					continue
				}
				if settled[v] {
					t.Fatalf("trial %d: vertex %d settled twice", trial, v)
				}
				settled[v] = true
				if e.D != want[v] {
					t.Fatalf("trial %d: vertex %d settled at %v, heap Dijkstra says %v", trial, v, e.D, want[v])
				}
				if e.D>>w.shift != w.cur {
					t.Fatalf("trial %d: vertex %d at %v settled in bucket %d", trial, v, e.D, w.cur)
				}
				for _, a := range g[v] {
					if nd := e.D + a.w; nd < dist[a.v] {
						dist[a.v] = nd
						w.Queue(a.v, nd)
					}
				}
				if !w.Done(e.D) {
					t.Fatalf("trial %d: Done(%v) is false for the vertex just settled", trial, e.D)
				}
			}
		}
		for v, d := range want {
			if settled[v] != (d != math.MaxUint64) {
				t.Fatalf("trial %d: vertex %d at %v, settled %v", trial, v, d, settled[v])
			}
		}
	}
}

// A reused window allocates nothing once its buckets and the heap have
// grown to the load.
func TestWindowReuseAllocatesNothing(t *testing.T) {
	const n = 1000
	rng := rand.New(rand.NewSource(1))
	g := randomArcs(rng, n, 4*n, []uint64{1, 2, 3, 900})
	dist := make([]uint64, n)
	w := NewWindow(New(n))
	run := func() {
		for i := range dist {
			dist[i] = math.MaxUint64
		}
		dist[0] = 0
		w.Start(1)
		w.Queue(0, 0)
		for more := true; more; more = w.Next(dist) {
			for _, e := range w.Bucket() {
				if e.D != dist[e.V] {
					continue
				}
				for _, a := range g[e.V] {
					if nd := e.D + a.w; nd < dist[a.v] {
						dist[a.v] = nd
						w.Queue(a.v, nd)
					}
				}
			}
		}
	}
	run()
	if a := testing.AllocsPerRun(10, run); a != 0 {
		t.Fatalf("a reused window allocated %v times per run", a)
	}
}

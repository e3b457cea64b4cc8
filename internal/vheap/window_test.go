package vheap

import (
	"math"
	"math/rand"
	"testing"
)

// TestWindowEnd: windowEnd is the least distance whose bucket number is
// cur+numBuckets, or maxBucket when that is sooner, for widths that make
// k·Δ round either way and for one where it overflows.
func TestWindowEnd(t *testing.T) {
	for _, delta := range []float64{minWidth, 1e-300, 1e-3, 0.1, 1.0 / 3, 0.5, 1, 7, 1e250, 1e306} {
		inv := 1 / delta
		for _, cur := range []uint64{0, 1, 977, 1 << 20, maxBucket - numBuckets - 1, maxBucket - 1} {
			k := float64(min(cur+numBuckets, maxBucket))
			end := windowEnd(cur, delta, inv)
			if end*inv < k || math.Nextafter(end, 0)*inv >= k {
				t.Fatalf("Δ=%v cur=%d: windowEnd %v is not the least distance of bucket number %v", delta, cur, end, k)
			}
		}
	}
}

// arc is an arc to v of weight w in the window's test graphs.
type arc struct {
	v int
	w float64
}

// randomArcs returns a random digraph on n vertices with m arcs as
// out-lists, every weight drawn from weights.
func randomArcs(rng *rand.Rand, n, m int, weights []float64) [][]arc {
	out := make([][]arc, n)
	for range m {
		u := rng.Intn(n)
		out[u] = append(out[u], arc{rng.Intn(n), weights[rng.Intn(len(weights))]})
	}
	return out
}

// heapDijkstra is the reference: Dijkstra on the heap alone.
func heapDijkstra(g [][]arc, source int) []float64 {
	dist := make([]float64, len(g))
	for i := range dist {
		dist[i] = math.Inf(1)
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
// on the window, buckets half the lightest weight wide, each bucket settled
// in one pass: every vertex is settled once, at its heap Dijkstra distance,
// in ascending bucket order, and once keys settle from the heap, in
// ascending order. The weights park distances on the heap, and reach
// bucket numbers past maxBucket; a width below minWidth settles everything
// from the heap.
func TestWindowSettlesBucketByBucket(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 300; trial++ {
		weights := []float64{1, 1.5, 2, 7, 600, 1e6 + 0.5, 1e15}[:1+rng.Intn(7)]
		n := 1 + rng.Intn(60)
		g := randomArcs(rng, n, rng.Intn(4*n), weights)
		source := rng.Intn(n)
		want := heapDijkstra(g, source)

		delta := weights[0] / 2
		if trial%10 == 9 {
			delta = minWidth / 2
		}
		dist := make([]float64, n)
		for i := range dist {
			dist[i] = math.Inf(1)
		}
		settled := make([]bool, n)
		w := NewWindow(New(n))
		w.Start(delta)
		dist[source] = 0
		w.Queue(source, 0)
		last := 0.0
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
				if w.far && e.D < last || !w.far && bucketOf(e.D, w.inv) != w.cur {
					t.Fatalf("trial %d: vertex %d at %v settled out of order (bucket %d, last %v)", trial, v, e.D, w.cur, last)
				}
				last = e.D
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
			if settled[v] != !math.IsInf(d, 1) {
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
	g := randomArcs(rng, n, 4*n, []float64{1, 2, 3, 900})
	dist := make([]float64, n)
	w := NewWindow(New(n))
	run := func() {
		for i := range dist {
			dist[i] = math.Inf(1)
		}
		dist[0] = 0
		w.Start(0.5)
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

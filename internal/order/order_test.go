package order

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/graph"
)

func checkPermutation(t *testing.T, o *Order, n int) {
	t.Helper()
	if len(o.Perm) != n || len(o.Rank) != n {
		t.Fatalf("order sizes %d/%d, want %d", len(o.Perm), len(o.Rank), n)
	}
	for pos, v := range o.Perm {
		if o.Rank[v] != pos {
			t.Fatalf("Rank[Perm[%d]] = %d", pos, o.Rank[v])
		}
	}
}

func TestFromPerm(t *testing.T) {
	o, err := FromPerm([]int{2, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	checkPermutation(t, o, 3)
	if o.Rank[2] != 0 {
		t.Fatalf("vertex 2 should rank highest, got %d", o.Rank[2])
	}
	for _, bad := range [][]int{{0, 0, 1}, {0, 1, 5}, {-1, 0, 1}} {
		if _, err := FromPerm(bad); err == nil {
			t.Errorf("perm %v accepted", bad)
		}
	}
}

func TestIdentityAndRandom(t *testing.T) {
	o := Identity(5)
	checkPermutation(t, o, 5)
	for i := 0; i < 5; i++ {
		if o.Rank[i] != i {
			t.Fatalf("identity broken at %d", i)
		}
	}
	r1 := Random(64, 1)
	r2 := Random(64, 1)
	checkPermutation(t, r1, 64)
	for i := range r1.Perm {
		if r1.Perm[i] != r2.Perm[i] {
			t.Fatal("same seed produced different random orders")
		}
	}
}

func TestByDegree(t *testing.T) {
	g := graph.Star(10, 1) // vertex 0 has degree 9
	o := ByDegree(g)
	checkPermutation(t, o, 10)
	if o.Perm[0] != 0 {
		t.Fatalf("star centre not top ranked: %v", o.Perm[0])
	}
	// Leaves tie on degree; ties break by id.
	for i := 1; i < 10; i++ {
		if o.Perm[i] != i {
			t.Fatalf("tie break by id violated at %d: %d", i, o.Perm[i])
		}
	}
}

func TestByDegreeDirected(t *testing.T) {
	b := graph.NewBuilder(3, true)
	b.AddEdge(0, 2, 1)
	b.AddEdge(1, 2, 1) // vertex 2: in-degree 2, out 0 → total 2, highest
	g := b.MustFinish()
	o := ByDegree(g)
	if o.Perm[0] != 2 {
		t.Fatalf("directed degree should count in-arcs; top = %d", o.Perm[0])
	}
}

func TestByApproxBetweenness(t *testing.T) {
	// A barbell: two cliques joined by a bridge through vertex 4 and 5.
	b := graph.NewBuilder(10, false)
	for u := 0; u < 4; u++ {
		for v := u + 1; v < 4; v++ {
			b.AddEdge(u, v, 1)
		}
	}
	for u := 6; u < 10; u++ {
		for v := u + 1; v < 10; v++ {
			b.AddEdge(u, v, 1)
		}
	}
	b.AddEdge(3, 4, 1)
	b.AddEdge(4, 5, 1)
	b.AddEdge(5, 6, 1)
	g := b.MustFinish()
	o := ByApproxBetweenness(g, 10, 1, 0)
	checkPermutation(t, o, 10)
	// The bridge vertices 4 and 5 carry all cross-clique shortest paths;
	// together with the clique gateways (3 and 6) they must fill the top
	// ranks, ahead of every clique-interior vertex.
	top3 := map[int]bool{o.Perm[0]: true, o.Perm[1]: true, o.Perm[2]: true}
	if !top3[4] || !top3[5] {
		t.Fatalf("bridge vertices not top-ranked: %v", o.Perm[:4])
	}
	for _, interior := range []int{0, 1, 2, 7, 8, 9} {
		if o.Rank[interior] < 4 {
			t.Fatalf("clique-interior vertex %d ranked %d, above the bridge structure", interior, o.Rank[interior])
		}
	}
}

func TestByApproxBetweennessDeterministic(t *testing.T) {
	g := graph.RoadGrid(8, 8, 3)
	a := ByApproxBetweenness(g, 12, 7, 2)
	b := ByApproxBetweenness(g, 12, 7, 2)
	for i := range a.Perm {
		if a.Perm[i] != b.Perm[i] {
			t.Fatal("same seed produced different betweenness orders")
		}
	}
}

// permHash is FNV-1a-64 over the Perm, each entry a little-endian uint32.
func permHash(o *Order) uint64 {
	f := fnv.New64a()
	var b [4]byte
	for _, v := range o.Perm {
		binary.LittleEndian.PutUint32(b[:], uint32(v))
		f.Write(b[:])
	}
	return f.Sum64()
}

// TestByApproxBetweennessPinned pins the hierarchy: the parallel samples
// must fold to the order one worker produced before they ran in parallel,
// bit for bit, whatever the worker count.
func TestByApproxBetweennessPinned(t *testing.T) {
	disconnected := graph.ErdosRenyi(500, 300, 9, 2)
	if graph.IsConnected(disconnected) {
		t.Fatal("fixture meant to be disconnected is connected")
	}
	cases := []struct {
		name    string
		g       *graph.Graph
		samples int
		seed    int64
		want    uint64
	}{
		{"road 96x96, the bench's hierarchy", graph.RoadGrid(96, 96, 1), 256, 1, 0xa2190fd630548b99},
		{"road 32x32, the tiny profile's", graph.RoadGrid(32, 32, 1), 32, 1, 0xcbc5729c962af09d},
		{"scale-free", graph.BarabasiAlbert(2000, 3, 1), 64, 7, 0x8790a6dc9a6c4051},
		{"directed", graph.RandomDirected(600, 2400, 9, 3), 48, 5, 0x5f0a553f215c49a9},
		{"disconnected", disconnected, 40, 3, 0x22bc3f459adf0a85},
		{"samples < workers", graph.RoadGrid(8, 8, 2), 2, 4, 0xc98ab401995d3975},
		{"samples > n", graph.ErdosRenyi(50, 120, 5, 6), 80, 2, 0x7199edf418a6c564},
	}
	for _, c := range cases {
		for workers := 1; workers <= 4; workers++ {
			o := ByApproxBetweenness(c.g, c.samples, c.seed, workers)
			checkPermutation(t, o, c.g.NumVertices())
			if got := permHash(o); got != c.want {
				t.Errorf("%s, %d workers: Perm hash %#016x, want %#016x", c.name, workers, got, c.want)
			}
		}
	}
}

// TestSampledBetweennessFoldsInSampleOrder holds the scores, not only the
// order they sort into, to one worker's bit for bit. Samples from small
// components finish long before those from the giant one, so the workers
// finish them out of order, and a fold in finishing order would round
// differently.
func TestSampledBetweennessFoldsInSampleOrder(t *testing.T) {
	for _, g := range []*graph.Graph{graph.ErdosRenyi(500, 300, 9, 2), graph.BarabasiAlbert(800, 3, 4)} {
		want := sampledBetweenness(g, 64, 3, 1)
		for rep := 0; rep < 5; rep++ {
			for workers := 2; workers <= 4; workers++ {
				got := sampledBetweenness(g, 64, 3, workers)
				for v := range want {
					if math.Float64bits(got[v]) != math.Float64bits(want[v]) {
						t.Fatalf("%d workers: score[%d] = %v, one worker's is %v", workers, v, got[v], want[v])
					}
				}
			}
		}
	}
}

// TestByApproxBetweennessAllocsFlat: scratch is per worker and per ring
// slot, never per sample, so 256 samples allocate what 16 do. A window's
// bucket still grows with the widest frontier a worker has seen, so the
// grid is narrow enough that no frontier outgrows a bucket's initial
// capacity.
func TestByApproxBetweennessAllocsFlat(t *testing.T) {
	g := graph.RoadGrid(4, 128, 1)
	allocs := func(samples int) float64 {
		return testing.AllocsPerRun(3, func() { ByApproxBetweenness(g, samples, 1, 2) })
	}
	if a16, a256 := allocs(16), allocs(256); a256 != a16 {
		t.Fatalf("allocations grow with samples: %v at 16, %v at 256", a16, a256)
	}
}

// BenchmarkRankBetweenness is the bench's road hierarchy (the 96×96 grid,
// 256 samples); -cpu sets the worker count.
func BenchmarkRankBetweenness(b *testing.B) {
	g := graph.RoadGrid(96, 96, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ByApproxBetweenness(g, 256, 1, 0)
	}
}

// BenchmarkRankBetweennessWideWeights is the road hierarchy's graph plus one
// 2^-10 arc, as BenchmarkPLaNTWideWeights: the unit, and the buckets, are
// 2^-10 wide, the window spans one unit of the grid's integer weights, and
// this times the heap the window parks nearly every distance on.
func BenchmarkRankBetweennessWideWeights(b *testing.B) {
	road := graph.RoadGrid(96, 96, 1)
	g, err := road.Splice([]graph.EdgeEdit{{U: 0, V: road.NumVertices() - 1, W: 0x1p-10}})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ByApproxBetweenness(g, 256, 1, 0)
	}
}

func TestForGraphPicksByTopology(t *testing.T) {
	road := graph.RoadGrid(12, 12, 1)
	ba := graph.BarabasiAlbert(400, 3, 1)
	ro := ForGraph(road, 1, 0)
	bo := ForGraph(ba, 1, 0)
	checkPermutation(t, ro, road.NumVertices())
	checkPermutation(t, bo, ba.NumVertices())
	// For the scale-free graph the pick must equal the pure degree order.
	deg := ByDegree(ba)
	for i := range deg.Perm {
		if bo.Perm[i] != deg.Perm[i] {
			t.Fatalf("scale-free graph did not get degree order (pos %d)", i)
		}
	}
	if g0 := ForGraph(graph.Path(0, 1), 1, 0); len(g0.Perm) != 0 {
		t.Fatal("empty graph order not empty")
	}
}

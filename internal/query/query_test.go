package query

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/label"
	"repro/internal/pll"
	"repro/internal/sssp"
)

func TestModesReturnExactDistances(t *testing.T) {
	g := graph.BarabasiAlbert(150, 3, 1)
	res, err := dist.Hybrid(g, dist.Options{Nodes: 6})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	var pairs []Pair
	var want []float64
	for i := 0; i < 400; i++ {
		u, v := rng.Intn(150), rng.Intn(150)
		pairs = append(pairs, Pair{U: int32(u), V: int32(v)})
		want = append(want, sssp.Dijkstra(g, u)[v])
	}
	for _, mode := range []Mode{QLSN, QFDL, QDOL} {
		eng, err := NewEngine(mode, res.Index, res.Owner, 6, DefaultCostModel())
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		br := eng.Batch(pairs)
		for i := range pairs {
			if br.Dists[i] != want[i] {
				t.Fatalf("%s: query %d = %v, want %v", mode, i, br.Dists[i], want[i])
			}
		}
		for i, p := range pairs[:50] {
			d, lat := eng.Query(int(p.U), int(p.V))
			if d != want[i] {
				t.Fatalf("%s: single query %d = %v, want %v", mode, i, d, want[i])
			}
			if lat < 0 {
				t.Fatalf("%s: negative latency", mode)
			}
		}
	}
}

func TestMemoryOrdering(t *testing.T) {
	// Table 4: per-node memory QLSN ≥ QDOL ≥ QFDL; QLSN total = q × full.
	g := graph.BarabasiAlbert(200, 4, 2)
	q := 16
	res, err := dist.Hybrid(g, dist.Options{Nodes: q})
	if err != nil {
		t.Fatal(err)
	}
	mem := map[Mode]int64{}
	for _, mode := range []Mode{QLSN, QFDL, QDOL} {
		eng, err := NewEngine(mode, res.Index, res.Owner, q, DefaultCostModel())
		if err != nil {
			t.Fatal(err)
		}
		var peak int64
		for _, b := range eng.MemoryPerNode() {
			if b > peak {
				peak = b
			}
		}
		mem[mode] = peak
	}
	if !(mem[QLSN] >= mem[QDOL] && mem[QDOL] >= mem[QFDL]) {
		t.Fatalf("memory ordering violated: QLSN=%d QDOL=%d QFDL=%d", mem[QLSN], mem[QDOL], mem[QFDL])
	}
	fullBytes := res.Index.TotalLabels() * label.Bytes
	if mem[QLSN] != fullBytes {
		t.Fatalf("QLSN per-node = %d, want full %d", mem[QLSN], fullBytes)
	}
}

func TestQFDLPartitionMemorySums(t *testing.T) {
	// QFDL stores each label exactly once across the cluster.
	g := graph.BarabasiAlbert(120, 3, 3)
	q := 5
	res, err := dist.DGLL(g, dist.Options{Nodes: q})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(QFDL, res.Index, res.Owner, q, DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	if eng.TotalMemory() != res.Index.TotalLabels()*label.Bytes {
		t.Fatalf("QFDL total memory %d != label bytes %d", eng.TotalMemory(), res.Index.TotalLabels()*label.Bytes)
	}
}

// QFDL's partitions, cut from a distributed build's owner map, must hold
// exactly the index's labels, vertex by vertex: every label on one node.
func TestQFDLPartitionsTileIndex(t *testing.T) {
	const n, q = 200, 4
	g := graph.BarabasiAlbert(n, 3, 1)
	res, err := dist.Hybrid(g, dist.Options{Nodes: q})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(QFDL, res.Index, res.Owner, q, DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	if len(eng.perNode) != q {
		t.Fatalf("%d partitions, want %d", len(eng.perNode), q)
	}
	var sum int64
	for _, p := range eng.perNode {
		sum += p.TotalLabels()
	}
	if sum != res.Index.TotalLabels() {
		t.Fatalf("partitions hold %d labels, index has %d", sum, res.Index.TotalLabels())
	}
	for v := 0; v < n; v++ {
		var merged label.Set
		for node, p := range eng.perNode {
			for _, l := range p.Labels(v) {
				if o := res.Owner[label.Hub(l)]; int(o) != node {
					t.Fatalf("vertex %d: hub %d's label on node %d, owner is %d", v, label.Hub(l), node, o)
				}
			}
			merged = merged.Merge(p.Labels(v))
		}
		if want := res.Index.Labels(v); !slices.Equal(merged, want) {
			t.Fatalf("vertex %d: partitions hold %v, index has %v", v, merged, want)
		}
	}
}

func TestThroughputOrdering(t *testing.T) {
	// Table 4: multi-node parallelism gives QDOL > QFDL > QLSN on batch
	// throughput for label-heavy workloads.
	g := graph.BarabasiAlbert(250, 4, 4)
	q := 16
	res, err := dist.Hybrid(g, dist.Options{Nodes: q})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	var pairs []Pair
	for i := 0; i < 3000; i++ {
		pairs = append(pairs, Pair{U: int32(rng.Intn(250)), V: int32(rng.Intn(250))})
	}
	thr := map[Mode]float64{}
	for _, mode := range []Mode{QLSN, QFDL, QDOL} {
		eng, err := NewEngine(mode, res.Index, res.Owner, q, DefaultCostModel())
		if err != nil {
			t.Fatal(err)
		}
		thr[mode] = eng.Batch(pairs).Throughput
	}
	if !(thr[QDOL] > thr[QLSN]) {
		t.Fatalf("QDOL %v not above QLSN %v", thr[QDOL], thr[QLSN])
	}
	if !(thr[QFDL] > thr[QLSN]) {
		t.Fatalf("QFDL %v not above QLSN %v", thr[QFDL], thr[QLSN])
	}
}

func TestLatencyOrdering(t *testing.T) {
	// Table 4: QLSN has by far the lowest latency (no network); QDOL sits
	// below QFDL (P2P vs broadcast).
	g := graph.BarabasiAlbert(150, 3, 5)
	q := 16
	res, err := dist.Hybrid(g, dist.Options{Nodes: q})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	var pairs []Pair
	for i := 0; i < 500; i++ {
		pairs = append(pairs, Pair{U: int32(rng.Intn(150)), V: int32(rng.Intn(150))})
	}
	lat := map[Mode]float64{}
	for _, mode := range []Mode{QLSN, QFDL, QDOL} {
		eng, err := NewEngine(mode, res.Index, res.Owner, q, DefaultCostModel())
		if err != nil {
			t.Fatal(err)
		}
		lat[mode] = eng.Batch(pairs).MeanLatency.Seconds()
	}
	if !(lat[QLSN] < lat[QDOL] && lat[QDOL] < lat[QFDL]) {
		t.Fatalf("latency ordering violated: QLSN=%v QDOL=%v QFDL=%v", lat[QLSN], lat[QDOL], lat[QFDL])
	}
}

func TestQDOLRouting(t *testing.T) {
	g := graph.BarabasiAlbert(100, 3, 6)
	res, err := dist.Hybrid(g, dist.Options{Nodes: 6}) // ζ = 4, C(4,2)=6
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(QDOL, res.Index, nil, 6, DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	if eng.zeta != 4 {
		t.Fatalf("ζ = %d, want 4", eng.zeta)
	}
	// Every partition pair maps to a valid node; symmetric.
	for a := 0; a < eng.zeta; a++ {
		for b := 0; b < eng.zeta; b++ {
			n := eng.pairNode[a][b]
			if n < 0 || n >= 6 {
				t.Fatalf("pair (%d,%d) unrouted: %d", a, b, n)
			}
			if n != eng.pairNode[b][a] {
				t.Fatalf("asymmetric routing (%d,%d)", a, b)
			}
		}
	}
	// ownerOf is consistent with the table.
	if o := eng.ownerOf(5, 10); o != eng.pairNode[5%4][10%4] {
		t.Fatal("ownerOf inconsistent")
	}
}

func TestEngineErrors(t *testing.T) {
	g := graph.Path(10, 1)
	ix, _ := pll.Sequential(g, pll.Options{})
	if _, err := NewEngine(QFDL, ix, nil, 3, DefaultCostModel()); err == nil {
		t.Fatal("QFDL without an owner map accepted")
	}
	if _, err := NewEngine(QFDL, ix, make([]int32, 9), 3, DefaultCostModel()); err == nil {
		t.Fatal("QFDL with an owner map one hub short accepted")
	}
	for _, bad := range []int32{3, -1} {
		owner := make([]int32, 10)
		owner[4] = bad
		if _, err := NewEngine(QFDL, ix, owner, 3, DefaultCostModel()); err == nil {
			t.Fatalf("QFDL with hub 4 owned by node %d of 3 accepted", bad)
		}
	}
	if _, err := NewEngine(Mode("bogus"), ix, nil, 2, DefaultCostModel()); err == nil {
		t.Fatal("bogus mode accepted")
	}
	if _, err := NewEngine(QLSN, ix, nil, 0, DefaultCostModel()); err == nil {
		t.Fatal("q=0 accepted")
	}
}

func TestCountedMergeJoin(t *testing.T) {
	ix, _ := pll.Sequential(graph.Figure1(), pll.Options{})
	d, entries := queryCounted(ix, 1, 4)
	if d != 12 {
		t.Fatalf("d(v2,v5) = %v, want 12", d)
	}
	if entries <= 0 || entries > int64(len(ix.Labels(1))+len(ix.Labels(4))) {
		t.Fatalf("entries = %d out of range", entries)
	}
}

func TestEmptyBatchAndSingleNode(t *testing.T) {
	g := graph.Path(10, 2)
	ix, _ := pll.Sequential(g, pll.Options{})
	for _, mode := range []Mode{QLSN, QDOL} {
		eng, err := NewEngine(mode, ix, nil, 1, DefaultCostModel())
		if err != nil {
			t.Fatalf("%s at q=1: %v", mode, err)
		}
		br := eng.Batch(nil)
		if len(br.Dists) != 0 || br.Throughput != 0 {
			t.Fatalf("%s: empty batch produced %+v", mode, br)
		}
		if d, _ := eng.Query(0, 9); d != 18 {
			t.Fatalf("%s: d(0,9) = %v", mode, d)
		}
	}
	// QFDL at q=1: node 0 owns every hub.
	eng, err := NewEngine(QFDL, ix, make([]int32, 10), 1, DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	if d, _ := eng.Query(3, 7); d != 8 {
		t.Fatalf("QFDL q=1: %v", d)
	}
}

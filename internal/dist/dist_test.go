package dist

import (
	"errors"
	"testing"

	"repro/internal/graph"
	"repro/internal/pll"
)

func TestScheduleCoversRange(t *testing.T) {
	for _, tc := range []struct{ lo, hi, supersteps int }{
		{0, 1, 0}, {0, 2, 0}, {0, 100, 0}, {0, 100, 3}, {16, 100, 0}, {0, 5000, 0}, {7, 8, 0},
	} {
		b := schedule(tc.lo, tc.hi, 8, tc.supersteps)
		if b[0] != tc.lo || b[len(b)-1] != tc.hi {
			t.Fatalf("schedule(%d,%d,%d) = %v does not span the range", tc.lo, tc.hi, tc.supersteps, b)
		}
		for i := 1; i < len(b); i++ {
			if b[i] <= b[i-1] {
				t.Fatalf("schedule(%d,%d,%d) = %v not strictly increasing", tc.lo, tc.hi, tc.supersteps, b)
			}
		}
		if tc.supersteps > 0 && len(b)-1 > tc.supersteps {
			t.Fatalf("schedule produced %d supersteps, asked for %d", len(b)-1, tc.supersteps)
		}
	}
	// Geometric growth: later supersteps are at least as large as earlier
	// ones.
	b := schedule(0, 5000, 8, 0)
	for i := 2; i < len(b); i++ {
		if b[i]-b[i-1] < b[i-1]-b[i-2] {
			t.Fatalf("superstep sizes not non-decreasing: %v", b)
		}
	}
}

// Every distributed algorithm must hand each label to exactly one node:
// the per-node partitions have to tile the assembled index.
func TestPerNodePartitionsTileIndex(t *testing.T) {
	g := graph.BarabasiAlbert(200, 3, 1)
	for name, run := range map[string]func() (*Result, error){
		"DParaPLL": func() (*Result, error) { return DParaPLL(g, Options{Nodes: 4}) },
		"DGLL":     func() (*Result, error) { return DGLL(g, Options{Nodes: 4}) },
		"PLaNT":    func() (*Result, error) { return PLaNT(g, Options{Nodes: 4}) },
		"Hybrid":   func() (*Result, error) { return Hybrid(g, Options{Nodes: 4}) },
	} {
		res, err := run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(res.PerNode) != 4 {
			t.Fatalf("%s: %d partitions, want 4", name, len(res.PerNode))
		}
		var sum int64
		for _, p := range res.PerNode {
			sum += p.TotalLabels()
		}
		if sum != res.Index.TotalLabels() {
			t.Fatalf("%s: partitions hold %d labels, index has %d", name, sum, res.Index.TotalLabels())
		}
		for v := 0; v < 200; v++ {
			var got int
			for _, p := range res.PerNode {
				got += len(p.Labels(v))
			}
			if got != len(res.Index.Labels(v)) {
				t.Fatalf("%s: vertex %d has %d partitioned labels, index has %d", name, v, got, len(res.Index.Labels(v)))
			}
		}
	}
}

func TestMemoryLimitOOM(t *testing.T) {
	g := graph.BarabasiAlbert(150, 4, 2)
	if _, err := DParaPLL(g, Options{Nodes: 4, MemoryLimitBytes: 1024}); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("DParaPLL err = %v, want ErrOutOfMemory", err)
	}
	if _, err := DGLL(g, Options{Nodes: 4, MemoryLimitBytes: 1024}); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("DGLL err = %v, want ErrOutOfMemory", err)
	}
	// A partitioned PLaNT node stores ~1/q of the labels plus the common
	// table; a generous limit must not trip.
	chl, _ := pll.Sequential(g, pll.Options{})
	if _, err := PLaNT(g, Options{Nodes: 4, MemoryLimitBytes: chl.TotalLabels() * 12}); err != nil {
		t.Fatalf("PLaNT tripped a full-labeling-sized limit: %v", err)
	}
}

func TestCommonTablePrunesExploration(t *testing.T) {
	g := graph.RoadGrid(20, 20, 3)
	without, err := PLaNT(g, Options{Nodes: 4, Eta: -1})
	if err != nil {
		t.Fatal(err)
	}
	with, err := PLaNT(g, Options{Nodes: 4, Eta: DefaultEta})
	if err != nil {
		t.Fatal(err)
	}
	if with.Metrics.VerticesExplored >= without.Metrics.VerticesExplored {
		t.Fatalf("η=16 explored %d, η=0 explored %d — no pruning",
			with.Metrics.VerticesExplored, without.Metrics.VerticesExplored)
	}
	if without.Common != nil || with.Common == nil {
		t.Fatal("Common table presence wrong")
	}
	// The build record says how the pruning happened, and says nothing
	// when there was none.
	if m := without.Metrics; m.DistanceQueries != 0 || m.DistPrunes != 0 || m.RankPrunes != 0 {
		t.Fatalf("η off, yet %d queries, %d query prunes, %d ancestor prunes", m.DistanceQueries, m.DistPrunes, m.RankPrunes)
	}
	if m := with.Metrics; m.DistanceQueries == 0 || m.DistPrunes == 0 || m.RankPrunes == 0 || m.MaxNodeQueries == 0 {
		t.Fatalf("η=16 pruned but reports %d queries (node max %d), %d query prunes, %d ancestor prunes",
			m.DistanceQueries, m.MaxNodeQueries, m.DistPrunes, m.RankPrunes)
	}
	// Identical output either way.
	if diff := without.Index.Diff(with.Index); diff != "" {
		t.Fatalf("η changed the labeling: %s", diff)
	}
}

func TestHybridSwitchMetrics(t *testing.T) {
	g := graph.BarabasiAlbert(300, 3, 4)
	res, err := Hybrid(g, Options{Nodes: 3, PsiThreshold: 1.01})
	if err != nil {
		t.Fatal(err)
	}
	m := res.Metrics
	if m.SwitchedAtTree < 0 {
		t.Fatal("Ψth=1.01 never switched")
	}
	if m.PlantTrees <= 0 || m.PlantTrees >= 300 {
		t.Fatalf("PlantTrees = %d out of range", m.PlantTrees)
	}
	// A huge threshold must stay pure PLaNT.
	pure, err := Hybrid(g, Options{Nodes: 3, PsiThreshold: 1e18})
	if err != nil {
		t.Fatal(err)
	}
	if pure.Metrics.SwitchedAtTree != -1 || pure.Metrics.PlantTrees != 300 {
		t.Fatalf("pure-PLaNT run reports switch at %d, %d plant trees",
			pure.Metrics.SwitchedAtTree, pure.Metrics.PlantTrees)
	}
	if diff := res.Index.Diff(pure.Index); diff != "" {
		t.Fatalf("switch point changed the labeling: %s", diff)
	}
}

func TestPLaNTHasNoLabelTrafficWithoutCommonTable(t *testing.T) {
	g := graph.BarabasiAlbert(200, 3, 5)
	res, err := PLaNT(g, Options{Nodes: 4, Eta: -1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.BytesSent != 0 {
		t.Fatalf("PLaNT without η sent %d bytes", res.Metrics.BytesSent)
	}
	dg, err := DGLL(g, Options{Nodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	if dg.Metrics.BytesSent <= res.Metrics.BytesSent {
		t.Fatal("DGLL reported no more traffic than PLaNT")
	}
}

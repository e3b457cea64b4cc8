package dist

import (
	"errors"
	"testing"

	"repro/internal/graph"
	"repro/internal/label"
	"repro/internal/plant"
	"repro/internal/pll"
)

func TestScheduleCoversRange(t *testing.T) {
	for _, tc := range []struct{ lo, hi int }{
		{0, 1}, {0, 2}, {0, 100}, {16, 100}, {0, 5000}, {7, 8},
	} {
		b := schedule(tc.lo, tc.hi)
		if b[0] != tc.lo || b[len(b)-1] != tc.hi {
			t.Fatalf("schedule(%d,%d) = %v does not span the range", tc.lo, tc.hi, b)
		}
		for i := 1; i < len(b); i++ {
			if b[i] <= b[i-1] {
				t.Fatalf("schedule(%d,%d) = %v not strictly increasing", tc.lo, tc.hi, b)
			}
		}
	}
	// Geometric growth: later supersteps are at least as large as earlier
	// ones.
	b := schedule(0, 5000)
	for i := 2; i < len(b); i++ {
		if b[i]-b[i-1] < b[i-1]-b[i-2] {
			t.Fatalf("superstep sizes not non-decreasing: %v", b)
		}
	}
}

// Every distributed algorithm must name, for each hub, the one node that
// grew its tree: the owner map is what QFDL cuts its partitions from
// (internal/query's TestQFDLPartitionsTileIndex checks the cut).
func TestOwnerMapCoversEveryRoot(t *testing.T) {
	const n, q = 200, 4
	g := graph.BarabasiAlbert(n, 3, 1)
	for name, run := range map[string]func() (*Result, error){
		"DParaPLL": func() (*Result, error) { return DParaPLL(g, Options{Nodes: q}) },
		"DGLL":     func() (*Result, error) { return DGLL(g, Options{Nodes: q}) },
		"PLaNT":    func() (*Result, error) { return PLaNT(g, Options{Nodes: q}) },
		"Hybrid":   func() (*Result, error) { return Hybrid(g, Options{Nodes: q}) },
	} {
		res, err := run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(res.Owner) != n {
			t.Fatalf("%s: owner map covers %d hubs, want %d", name, len(res.Owner), n)
		}
		roots := make([]int, q)
		for h, o := range res.Owner {
			if o < 0 || o >= q {
				t.Fatalf("%s: hub %d owned by node %d, outside [0,%d)", name, h, o, q)
			}
			roots[o]++
		}
		for node, c := range roots {
			if c == 0 {
				t.Fatalf("%s: node %d owns no root (%v)", name, node, roots)
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
	if _, err := PLaNT(g, Options{Nodes: 4, MemoryLimitBytes: chl.TotalLabels() * label.Bytes}); err != nil {
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
	// The table DGLL takes over is the one the batches replicated: the
	// PLaNTed labels are not gathered a second time at the switch, which
	// cost 150816 bytes on this graph when they were.
	if m.BytesSent >= 150816 {
		t.Fatalf("switching run sent %d bytes, want fewer than 150816", m.BytesSent)
	}
	if m.LabelsCleaned == 0 {
		t.Fatal("switching run cleaned no labels")
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

// fixtures are the two regimes the builders are measured on. The grid is in
// generator order — a poor hierarchy, so tables are large and every pruning
// rule fires.
func fixtures() map[string]*graph.Graph {
	return map[string]*graph.Graph{"road": graph.RoadGrid(20, 20, 3), "scale-free": graph.BarabasiAlbert(300, 3, 4)}
}

// A tree's work depends on the batch schedule alone: however the roots are
// dealt to nodes and workers, the cluster builders do exactly what plant.Run
// does, and pay one collective per batch.
func TestWorkDependsOnScheduleAlone(t *testing.T) {
	for name, g := range fixtures() {
		want, wm := plant.Run(g, plant.Options{Workers: 2})
		for q := 1; q <= 4; q++ {
			for w := 1; w <= 2; w++ {
				for algo, run := range map[string]func(*graph.Graph, Options) (*Result, error){"PLaNT": PLaNT, "Hybrid": Hybrid} {
					res, err := run(g, Options{Nodes: q, WorkersPerNode: w, PsiThreshold: 1e18})
					if err != nil {
						t.Fatal(err)
					}
					m := res.Metrics
					if !res.Index.Equal(want) {
						t.Fatalf("%s %s q=%d w=%d: %s", name, algo, q, w, res.Index.Diff(want))
					}
					if m.VerticesExplored != wm.VerticesExplored || m.DistanceQueries != wm.DistanceQueries ||
						m.RankPrunes != wm.RankPrunes || m.DistPrunes != wm.DistPrunes {
						t.Fatalf("%s %s q=%d w=%d: explored %d queries %d prunes %d+%d, plant.Run %d %d %d+%d", name, algo, q, w,
							m.VerticesExplored, m.DistanceQueries, m.RankPrunes, m.DistPrunes,
							wm.VerticesExplored, wm.DistanceQueries, wm.RankPrunes, wm.DistPrunes)
					}
					if m.Synchronizations != wm.Synchronizations {
						t.Fatalf("%s %s q=%d w=%d: %d synchronizations, plant.Run %d", name, algo, q, w, m.Synchronizations, wm.Synchronizations)
					}
				}
			}
		}
	}
}

// A positive η is one schedule in shared memory and on a cluster: both grow
// the table batch by batch up to η and freeze it there, so plant.Run and a
// one-node cluster plant the same trees against the same tables.
func TestPlantRunEtaIsDistEta(t *testing.T) {
	const eta = 64
	for name, g := range fixtures() {
		want, wm := plant.Run(g, plant.Options{Workers: 2, Eta: eta})
		res, err := PLaNT(g, Options{Nodes: 1, Eta: eta})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Index.Equal(want) {
			t.Fatalf("%s: %s", name, res.Index.Diff(want))
		}
		m := res.Metrics
		if got, want := [4]int64{m.VerticesExplored, m.DistanceQueries, m.RankPrunes, m.DistPrunes},
			[4]int64{wm.VerticesExplored, wm.DistanceQueries, wm.RankPrunes, wm.DistPrunes}; got != want {
			t.Fatalf("%s: dist η=%d did %v, plant.Run %v", name, eta, got, want)
		}
	}
}

// Traffic is what was gathered: every label of a gathered batch reaches the
// q−1 other replicas once, and nothing else is sent. η = 16 gathers the top
// 16 trees and explores what it explored before the table could grow.
func TestTrafficIsWhatWasGathered(t *testing.T) {
	// The counts also record the order a tree settles a bucket in: PLaNT's
	// early termination stops at whichever vertex empties its count, so an
	// order that breaks ties among a bucket's vertices differently moves
	// them (and never the labels).
	pinned := map[string][4]int64{ // explored, queries, ancestor prunes, query prunes at η = 16
		"road":       {116354, 106582, 3052, 998},
		"scale-free": {16989, 11102, 1190, 5312},
	}
	for name, g := range fixtures() {
		for q := 1; q <= 4; q++ {
			grown, err := PLaNT(g, Options{Nodes: q})
			if err != nil {
				t.Fatal(err)
			}
			if got, want := grown.Metrics.BytesSent, int64(q-1)*label.Bytes*grown.Index.TotalLabels(); got != want {
				t.Fatalf("%s q=%d: growing table sent %d bytes, its labels are %d", name, q, got, want)
			}
			frozen, err := PLaNT(g, Options{Nodes: q, Eta: DefaultEta})
			if err != nil {
				t.Fatal(err)
			}
			var top int64
			for _, c := range frozen.Index.LabelsPerHub()[:DefaultEta] {
				top += c
			}
			m := frozen.Metrics
			if got, want := m.BytesSent, int64(q-1)*label.Bytes*top; got != want {
				t.Fatalf("%s q=%d: η=16 sent %d bytes, the top 16 trees' labels are %d", name, q, got, want)
			}
			if got := [4]int64{m.VerticesExplored, m.DistanceQueries, m.RankPrunes, m.DistPrunes}; got != pinned[name] {
				t.Fatalf("%s q=%d: η=16 did %v, pinned %v", name, q, got, pinned[name])
			}
			if diff := frozen.Index.Diff(grown.Index); diff != "" {
				t.Fatalf("%s q=%d: η changed the labeling: %s", name, q, diff)
			}
		}
	}
}

// The memory limit freezes the table, it does not fail the build: any limit
// the η = 16 run fits under is enough, and what room there is beyond that
// buys pruning.
func TestMemoryLimitFreezesNotFails(t *testing.T) {
	g := graph.RoadGrid(20, 20, 3)
	const q = 4
	grown, _ := PLaNT(g, Options{Nodes: q})
	frozen, _ := PLaNT(g, Options{Nodes: q, Eta: DefaultEta})
	lo, hi := frozen.Metrics.MaxNodeBytes, grown.Metrics.MaxNodeBytes
	if lo >= hi {
		t.Fatalf("η=16 holds %d bytes a node, the grown table %d", lo, hi)
	}
	for _, run := range []func(*graph.Graph, Options) (*Result, error){PLaNT, Hybrid} {
		for _, limit := range []int64{lo, lo + (hi-lo)/4, (lo + hi) / 2, hi - (hi-lo)/4} {
			res, err := run(g, Options{Nodes: q, MemoryLimitBytes: limit, PsiThreshold: 1e18})
			if err != nil {
				t.Fatalf("limit %d (η=16 needs %d): %v", limit, lo, err)
			}
			m := res.Metrics
			if m.MaxNodeBytes > limit {
				t.Fatalf("limit %d: a node holds %d bytes", limit, m.MaxNodeBytes)
			}
			if diff := res.Index.Diff(grown.Index); diff != "" {
				t.Fatalf("limit %d changed the labeling: %s", limit, diff)
			}
			if m.VerticesExplored <= grown.Metrics.VerticesExplored || m.VerticesExplored > frozen.Metrics.VerticesExplored ||
				limit > lo && m.VerticesExplored == frozen.Metrics.VerticesExplored {
				t.Fatalf("limit %d explored %d, want between the grown table's %d and η=16's %d", limit,
					m.VerticesExplored, grown.Metrics.VerticesExplored, frozen.Metrics.VerticesExplored)
			}
			if m.BytesSent >= grown.Metrics.BytesSent {
				t.Fatalf("limit %d sent %d bytes, the grown table %d", limit, m.BytesSent, grown.Metrics.BytesSent)
			}
		}
		// Below one partition nothing helps.
		if _, err := run(g, Options{Nodes: q, MemoryLimitBytes: 1024}); !errors.Is(err, ErrOutOfMemory) {
			t.Fatalf("1 KiB limit: err = %v, want ErrOutOfMemory", err)
		}
	}
}

// TestDParaPLLHoldsCHL: every CHL label is in DparaPLL's output with its
// distance, at any q and whatever each node's workers interleave. A node's
// later root that labeled an earlier one before the earlier root's labels
// were hashed used to let that root's tree prune through the lower hub and
// drop CHL labels (ptree.Forest's claim rule).
func TestDParaPLLHoldsCHL(t *testing.T) {
	g := graph.RoadGrid(9, 9, 2)
	want, _ := pll.Sequential(g, pll.Options{})
	runs := 50
	if testing.Short() {
		runs = 12
	}
	for q := 1; q <= 3; q++ {
		for run := 0; run < runs; run++ {
			workers := 2 + run%4
			res, err := DParaPLL(g, Options{Nodes: q, WorkersPerNode: workers})
			if err != nil {
				t.Fatal(err)
			}
			for v := 0; v < g.NumVertices(); v++ {
				for _, l := range want.Labels(v) {
					if d, ok := res.Index.Labels(v).Find(label.Hub(l)); !ok || d != label.Dist(l) {
						t.Fatalf("q=%d, run %d, workers=%d: L_%d lacks CHL label (%d,%v): got %v,%v", q, run, workers, v, label.Hub(l), label.Dist(l), d, ok)
					}
				}
			}
		}
	}
}

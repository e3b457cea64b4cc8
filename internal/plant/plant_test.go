package plant

import (
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/label"
	"repro/internal/metrics"
	"repro/internal/order"
	"repro/internal/pll"
	"repro/internal/ptree"
	"repro/internal/sssp"
)

// TestFigure1cGolden replays the PLaNT trace of Figure 1c step by step:
// building SPT_v2 (root id 1) after SPT_v1, PLaNT pops v2, v1, v4, v3, v5;
// the final ancestors are a(v1)=v1, a(v3)=v2, a(v4)=v1, a(v5)=v1 (the
// equal-length path through v1 wins the tie at v5), and labels are emitted
// exactly for v2 and v3 — identical to PLL's output in Figure 1b.
func TestFigure1cGolden(t *testing.T) {
	g := graph.Figure1()
	s := NewScratch(5)
	var got []label.L
	st := Tree(g, 1, s, nil, nil, 0, func(v int, d float64) {
		got = append(got, label.L{Hub: uint32(v), Dist: d}) // Hub field reused as "vertex"
	})
	if len(got) != 2 || got[0] != (label.L{Hub: 1, Dist: 0}) || got[1] != (label.L{Hub: 2, Dist: 10}) {
		t.Fatalf("labels = %v, want [(v2,0) (v3,10)]", got)
	}
	if st.Labels != 2 {
		t.Fatalf("stats labels = %d", st.Labels)
	}
	// v2, v1, v4 and v3 are popped; before v5 can pop, every queued vertex
	// (just v5, with ancestor v1) outranks the root, so early termination
	// cuts the last pop that Figure 1c's unoptimized trace still shows.
	if st.Explored != 4 {
		t.Fatalf("explored = %d, want 4 (early termination after v3)", st.Explored)
	}
	// Final ancestor state of Figure 1c.
	wantAnc := []int32{0, 1, 1, 0, 0} // a(v1)=v1, a(v2)=v2, a(v3)=v2, a(v4)=v1, a(v5)=v1
	for v, w := range wantAnc {
		if s.anc[v] != w {
			t.Fatalf("a(v%d) = v%d, want v%d", v+1, s.anc[v]+1, w+1)
		}
	}
	// The tie at v5: d = 12 via both {v2,v1,v4,v5} and {v2,v3,v5}; the
	// ancestor must be v1 (the higher-ranked path), which blocks the label.
	if s.Dist[4] != 12 {
		t.Fatalf("d(v5) = %v", s.Dist[4])
	}
}

func TestTreeEqualsMaxRankSemantics(t *testing.T) {
	// PLaNT's label condition is exactly "root is the max-rank vertex on
	// any shortest path" — cross-check against sssp.MaxRankOnPath.
	for seed := int64(0); seed < 6; seed++ {
		g := graph.ErdosRenyi(40, 90, 5, seed)
		n := g.NumVertices()
		s := NewScratch(n)
		for h := 0; h < n; h += 3 {
			labeled := map[int]float64{}
			Tree(g, h, s, nil, nil, 0, func(v int, d float64) { labeled[v] = d })
			best, dist := sssp.MaxRankOnPath(g, h)
			for v := 0; v < n; v++ {
				_, got := labeled[v]
				want := dist[v] != graph.Infinity && int(best[v]) == h
				if got != want {
					t.Fatalf("seed %d root %d vertex %d: labeled=%v, canonical=%v", seed, h, v, got, want)
				}
				if want && labeled[v] != dist[v] {
					t.Fatalf("seed %d root %d vertex %d: label dist %v, true %v", seed, h, v, labeled[v], dist[v])
				}
			}
		}
	}
}

func TestEarlyTermination(t *testing.T) {
	// On a path ranked along its length, the tree rooted at the far end
	// must stop quickly: once the frontier's ancestors outrank the root,
	// no labels can follow.
	g := graph.Path(100, 1)
	s := NewScratch(100)
	st := Tree(g, 99, s, nil, nil, 0, func(int, float64) {})
	if st.Labels != 1 {
		t.Fatalf("tail tree labels = %d, want 1 (self)", st.Labels)
	}
	// Without early termination it would explore all 100 vertices.
	if st.Explored > 3 {
		t.Fatalf("explored %d vertices, early termination failed", st.Explored)
	}
	// The top-ranked root must explore (and label) everything.
	st0 := Tree(g, 0, s, nil, nil, 0, func(int, float64) {})
	if st0.Labels != 100 || st0.Explored != 100 {
		t.Fatalf("root tree: labels=%d explored=%d", st0.Labels, st0.Explored)
	}
}

func TestPsiStats(t *testing.T) {
	g := graph.RoadGrid(6, 6, 1)
	s := NewScratch(g.NumVertices())
	st := Tree(g, g.NumVertices()-1, s, nil, nil, 0, func(int, float64) {})
	if st.Psi() < 1 {
		t.Fatalf("Ψ = %v < 1", st.Psi())
	}
	zero := ptree.Stats{Explored: 7}
	if zero.Psi() != 7 {
		t.Fatalf("Ψ of label-free tree = %v, want Explored", zero.Psi())
	}
}

// TestRunEqualsSequentialInEveryMode is the property the growing table must
// keep: whatever a tree is pruned against, the output is seqPLL's. It also
// pins that the work is decided by the batch schedule and not by how the
// workers interleave.
func TestRunEqualsSequentialInEveryMode(t *testing.T) {
	graphs := map[string]func(seed int64) *graph.Graph{
		"ba":   func(seed int64) *graph.Graph { return graph.BarabasiAlbert(90, 3, seed) },
		"grid": func(seed int64) *graph.Graph { return graph.RoadGrid(9, 8, seed) },
		"er":   func(seed int64) *graph.Graph { return graph.ErdosRenyi(80, 130, 6, seed) }, // disconnected
	}
	for name, gen := range graphs {
		for seed := int64(0); seed < 5; seed++ {
			g := gen(seed)
			want, _ := pll.Sequential(g, pll.Options{})
			for _, eta := range []int{-1, 0, 5, g.NumVertices() + 10} {
				explored := int64(-1)
				for _, workers := range []int{1, 3} {
					got, m := Run(g, Options{Workers: workers, Eta: eta})
					if diff := want.Diff(got); diff != "" {
						t.Fatalf("%s seed %d Eta %d workers %d: %s", name, seed, eta, workers, diff)
					}
					if m.Labels != want.TotalLabels() || m.LabelsGenerated != m.Labels || m.Trees != int64(g.NumVertices()) {
						t.Fatalf("%s seed %d Eta %d: metrics count %d trees, %d/%d labels; index holds %d",
							name, seed, eta, m.Trees, m.Labels, m.LabelsGenerated, want.TotalLabels())
					}
					if explored >= 0 && m.VerticesExplored != explored {
						t.Fatalf("%s seed %d Eta %d: explored %d with %d workers, %d with 1",
							name, seed, eta, m.VerticesExplored, workers, explored)
					}
					explored = m.VerticesExplored
				}
			}
		}
	}
}

func TestBatchBounds(t *testing.T) {
	for _, c := range []struct {
		n, hubs int
		want    []int
	}{
		{0, 0, []int{0}},
		{5, 0, []int{0, 5}},
		{16, 0, []int{0, 16}},
		{100, 0, []int{0, 16, 32, 48, 64, 80, 96, 100}},
		{200, 0, []int{0, 16, 32, 48, 64, 80, 96, 112, 128, 144, 162, 182, 200}}, // +16 while b/8 ≤ 16, then ×9/8
		{100, -1, []int{0, 100}},
		{100, 7, []int{0, 7, 100}},
		{100, 16, []int{0, 16, 100}},
		{100, 40, []int{0, 16, 32, 40, 100}}, // grown up to η, then one batch
		{200, 144, []int{0, 16, 32, 48, 64, 80, 96, 112, 128, 144, 200}},
		{100, 100, []int{0, 16, 32, 48, 64, 80, 96, 100}}, // η ≥ n grows to the end
		{100, 500, []int{0, 16, 32, 48, 64, 80, 96, 100}},
	} {
		if got := BatchBounds(c.n, c.hubs); !slices.Equal(got, c.want) {
			t.Fatalf("BatchBounds(%d, %d) = %v, want %v", c.n, c.hubs, got, c.want)
		}
	}
}

// TestMoreTableLessExploration orders the three modes by how much each tree
// may prune against, and checks the counters that say why.
func TestMoreTableLessExploration(t *testing.T) {
	g := graph.BarabasiAlbert(300, 3, 7)
	_, off := Run(g, Options{Workers: 2, Eta: -1})
	_, fixed := Run(g, Options{Workers: 2, Eta: 16})
	_, grow := Run(g, Options{Workers: 2})
	if !(grow.VerticesExplored < fixed.VerticesExplored && fixed.VerticesExplored < off.VerticesExplored) {
		t.Fatalf("explored: grow %d, η=16 %d, off %d — want strictly ascending",
			grow.VerticesExplored, fixed.VerticesExplored, off.VerticesExplored)
	}
	if off.DistanceQueries != 0 || off.DistPrunes != 0 || off.RankPrunes != 0 || off.Synchronizations != 1 {
		t.Fatalf("unpruned run reports pruning: %+v", off)
	}
	for name, m := range map[string]*metrics.Build{"fixed": fixed, "grow": grow} {
		if m.DistanceQueries == 0 || m.DistPrunes == 0 || m.RankPrunes == 0 {
			t.Fatalf("%s: queries %d, query prunes %d, ancestor prunes %d — pruning ran but is not counted",
				name, m.DistanceQueries, m.DistPrunes, m.RankPrunes)
		}
		if m.DistPrunes > m.DistanceQueries {
			t.Fatalf("%s: %d prunes from %d queries", name, m.DistPrunes, m.DistanceQueries)
		}
	}
	if fixed.Synchronizations != 2 || grow.Synchronizations != int64(len(BatchBounds(300, 0))-1) {
		t.Fatalf("barriers: fixed %d, grow %d", fixed.Synchronizations, grow.Synchronizations)
	}
}

// TestGrowingTableTracksSequential pins that the table no longer lags: seqPLL
// prunes every tree against all earlier ones, and the growing schedule must
// explore within a constant of that whatever the worker count. Measured 1.27
// (grid) and 1.15 (scale-free); batches that double gave 1.64 and 1.33.
func TestGrowingTableTracksSequential(t *testing.T) {
	const c = 1.30
	for name, g := range map[string]*graph.Graph{
		"grid": graph.RoadGrid(32, 32, 1),
		"ba":   graph.BarabasiAlbert(1000, 3, 1),
	} {
		want, seq := pll.Sequential(g, pll.Options{})
		explored := int64(-1)
		for workers := 1; workers <= 3; workers++ {
			got, m := Run(g, Options{Workers: workers})
			if !got.Equal(want) {
				t.Fatalf("%s workers %d: %s", name, workers, want.Diff(got))
			}
			if explored >= 0 && m.VerticesExplored != explored {
				t.Fatalf("%s: explored %d with %d workers, %d with fewer", name, m.VerticesExplored, workers, explored)
			}
			explored = m.VerticesExplored
		}
		if limit := c * float64(seq.VerticesExplored); float64(explored) > limit {
			t.Fatalf("%s: PLaNT explored %d, seqPLL %d: ratio %.2f > %.2f", name, explored, seq.VerticesExplored,
				float64(explored)/float64(seq.VerticesExplored), c)
		}
	}
}

// TestAncestorShortcutEqualsQuery checks the claim that lets Tree skip the
// distance query: a popped vertex with an ancestor above the bound is one
// the query would cut. It reads the scratch a tree leaves behind: settled
// marks the popped vertices, anc and dist hold what they were popped with.
func TestAncestorShortcutEqualsQuery(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		g := graph.BarabasiAlbert(120, 2, seed)
		n := g.NumVertices()
		chl, _ := pll.Sequential(g, pll.Options{})
		s := NewScratch(n)
		hd := label.NewHashDist(n)
		for _, bound := range []uint32{4, 20, 60} {
			for h := int(bound); h < n; h += 7 {
				hd.Load(chl.Labels(h))
				query := func(v int) bool { return hd.QueryAgainstBounded(chl.Labels(v), s.Dist[v], bound) }
				shortcut := func(v int) bool { return s.anc[v] < int32(bound) || v < int(bound) }

				// Unpruned, ancestors summarise every shortest path, so the
				// two tests are the same test.
				Tree(g, h, s, nil, nil, 0, func(int, float64) {})
				for v := 0; v < n; v++ {
					if s.settled[v] && v != h && shortcut(v) != query(v) {
						t.Fatalf("seed %d bound %d root %d vertex %d unpruned: shortcut %v, query %v",
							seed, bound, h, v, shortcut(v), query(v))
					}
				}

				// Pruned, paths behind a cut vertex go unexplored, so the
				// query cuts more than the shortcut — never less — and the
				// stats say which of the two cut what.
				st := Tree(g, h, s, chl, chl, bound, func(int, float64) {})
				var byAnc, asked, byQuery int64
				for v := 0; v < n; v++ {
					switch {
					case !s.settled[v] || v == h:
					case shortcut(v):
						byAnc++
						if !query(v) {
							t.Fatalf("seed %d bound %d root %d vertex %d: cut by ancestor %d, but the query would keep it",
								seed, bound, h, v, s.anc[v])
						}
					default:
						asked++
						if query(v) {
							byQuery++
						}
					}
				}
				if st.RankPruned != byAnc || st.Queries != asked || st.DistPruned != byQuery {
					t.Fatalf("seed %d bound %d root %d: stats %+v, scratch says %d by ancestor, %d queries, %d by query",
						seed, bound, h, st, byAnc, asked, byQuery)
				}
				if st.Explored != 1+byAnc+asked {
					t.Fatalf("seed %d bound %d root %d: explored %d ≠ root + %d + %d", seed, bound, h, st.Explored, byAnc, asked)
				}
			}
		}
	}
}

// TestDirectedPlantMatchesDirectedPLL holds RunDirected to the reference in
// every pruning mode, with a forward and a backward table growing on the
// batch schedule, and pins that its work does not depend on the workers.
func TestDirectedPlantMatchesDirectedPLL(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		g := graph.RandomDirected(45, 140, 7, seed)
		want, _ := pll.SequentialDirected(g, pll.Options{})
		for _, eta := range []int{-1, 0, 5, g.NumVertices() + 10} {
			explored := int64(-1)
			for _, workers := range []int{1, 3} {
				got, m := RunDirected(g, Options{Workers: workers, Eta: eta})
				if diff := want.Forward.Diff(got.Forward); diff != "" {
					t.Fatalf("seed %d Eta %d workers %d forward: %s", seed, eta, workers, diff)
				}
				if diff := want.Backward.Diff(got.Backward); diff != "" {
					t.Fatalf("seed %d Eta %d workers %d backward: %s", seed, eta, workers, diff)
				}
				if explored >= 0 && m.VerticesExplored != explored {
					t.Fatalf("seed %d Eta %d: explored %d with %d workers, %d with 1",
						seed, eta, m.VerticesExplored, workers, explored)
				}
				explored = m.VerticesExplored
			}
		}
	}
}

// TestDirectedMoreTableLessExploration is TestMoreTableLessExploration for
// RunDirected: the forward and backward tables prune as the one undirected
// table does.
func TestDirectedMoreTableLessExploration(t *testing.T) {
	g := graph.RandomDirected(300, 1500, 7, 7)
	_, off := RunDirected(g, Options{Workers: 2, Eta: -1})
	_, fixed := RunDirected(g, Options{Workers: 2, Eta: 16})
	_, grow := RunDirected(g, Options{Workers: 2})
	if !(grow.VerticesExplored < fixed.VerticesExplored && fixed.VerticesExplored < off.VerticesExplored) {
		t.Fatalf("explored: grow %d, η=16 %d, off %d — want strictly ascending",
			grow.VerticesExplored, fixed.VerticesExplored, off.VerticesExplored)
	}
	if off.DistanceQueries != 0 || grow.DistPrunes == 0 || grow.RankPrunes == 0 {
		t.Fatalf("pruning counters: off %+v, grow %+v", off, grow)
	}
	if grow.Synchronizations != int64(len(BatchBounds(300, 0))-1) || grow.Trees != 600 {
		t.Fatalf("grow: %d barriers, %d trees", grow.Synchronizations, grow.Trees)
	}
}

func TestScratchReuseAcrossTrees(t *testing.T) {
	// Reusing one scratch across trees must give the same labels as fresh
	// scratch per tree (dirty-list reset correctness).
	g := graph.ErdosRenyi(30, 70, 4, 11)
	shared := NewScratch(30)
	for h := 0; h < 30; h++ {
		var a, b []label.L
		Tree(g, h, shared, nil, nil, 0, func(v int, d float64) { a = append(a, label.L{Hub: uint32(v), Dist: d}) })
		fresh := NewScratch(30)
		Tree(g, h, fresh, nil, nil, 0, func(v int, d float64) { b = append(b, label.L{Hub: uint32(v), Dist: d}) })
		if len(a) != len(b) {
			t.Fatalf("root %d: %d labels with shared scratch, %d with fresh", h, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("root %d label %d differs: %v vs %v", h, i, a[i], b[i])
			}
		}
	}
}

var plantSink *label.Index

// benchmarkPLaNT times one 2-worker Run over g ranked by ord: the trees,
// their windows and the commits.
func benchmarkPLaNT(b *testing.B, g *graph.Graph, ord *order.Order) {
	rg, _ := g.Permute(ord.Perm)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plantSink, _ = Run(rg, Options{Workers: 2})
	}
}

// BenchmarkPLaNTRoad is the build-road fixture's shape: the 96×96 road grid
// ranked by 256-sample betweenness.
func BenchmarkPLaNTRoad(b *testing.B) {
	g := graph.RoadGrid(96, 96, 1)
	benchmarkPLaNT(b, g, order.ByApproxBetweenness(g, 256, 1, 2))
}

// BenchmarkPLaNTScaleFree is the build-scalefree fixture's shape: the
// 8192-vertex scale-free graph ranked by degree.
func BenchmarkPLaNTScaleFree(b *testing.B) {
	g := graph.BarabasiAlbert(8192, 3, 1)
	benchmarkPLaNT(b, g, order.ByDegree(g))
}

// BenchmarkPLaNTWideWeights is the road benchmark plus one 1e-3 arc, which
// makes the buckets 5e-4 wide: nearly every relaxation lands beyond the
// window, so this times the heap the window parks them on.
func BenchmarkPLaNTWideWeights(b *testing.B) {
	road := graph.RoadGrid(96, 96, 1)
	g, err := road.Splice([]graph.EdgeEdit{{U: 0, V: road.NumVertices() - 1, W: 1e-3}})
	if err != nil {
		b.Fatal(err)
	}
	benchmarkPLaNT(b, g, order.ByApproxBetweenness(road, 256, 1, 2))
}

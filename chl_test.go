package chl_test

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	chl "repro"
	"repro/internal/plant"
	"repro/internal/sssp"
)

func TestBuildAllAlgorithmsAnswerExactly(t *testing.T) {
	g := chl.GenerateScaleFree(120, 3, 1)
	ord := chl.RankByDegree(g)
	rng := rand.New(rand.NewSource(5))
	type q struct {
		u, v int
		want float64
	}
	var queries []q
	for i := 0; i < 200; i++ {
		u, v := rng.Intn(120), rng.Intn(120)
		queries = append(queries, q{u, v, sssp.Dijkstra(g, u)[v]})
	}
	for _, algo := range chl.Algorithms() {
		opt := chl.Options{Algorithm: algo, Order: ord, Workers: 2}
		if algo.Distributed() {
			opt.Nodes = 3
		}
		ix, err := chl.Build(g, opt)
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		for _, qq := range queries {
			if got := ix.Query(qq.u, qq.v); got != qq.want {
				t.Fatalf("%s: query(%d,%d) = %v, want %v", algo, qq.u, qq.v, got, qq.want)
			}
		}
	}
}

func TestCanonicalALSIdenticalAcrossCHLAlgorithms(t *testing.T) {
	g := chl.GenerateRoadGrid(9, 9, 2)
	ord := chl.RankByBetweenness(g, 16, 1)
	var als float64
	for _, algo := range chl.Algorithms() {
		if !algo.Canonical() {
			continue
		}
		opt := chl.Options{Algorithm: algo, Order: ord, Nodes: 2}
		ix, err := chl.Build(g, opt)
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		st := ix.Stats()
		if als == 0 {
			als = st.ALS
		} else if st.ALS != als {
			t.Fatalf("%s ALS %v differs from canonical %v", algo, st.ALS, als)
		}
	}
	// The non-canonical baselines must not be smaller.
	sp, err := chl.Build(g, chl.Options{Algorithm: chl.AlgoSParaPLL, Order: ord, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if sp.Stats().ALS < als {
		t.Fatalf("SparaPLL ALS %v below canonical %v", sp.Stats().ALS, als)
	}
}

// TestRankByBetweennessEdgeSizes: an empty graph gets the empty order (it
// used to panic drawing a sample from zero vertices), one vertex ranks
// alone, and samples ≤ 0 plant one tree as samples = 1 does.
func TestRankByBetweennessEdgeSizes(t *testing.T) {
	if o := chl.RankByBetweenness(chl.NewGraphBuilder(0, false).MustFinish(), 16, 1); len(o.Perm) != 0 {
		t.Fatalf("empty graph: Perm %v, want empty", o.Perm)
	}
	if o := chl.RankByBetweenness(chl.NewGraphBuilder(1, false).MustFinish(), 16, 1); len(o.Perm) != 1 || o.Perm[0] != 0 {
		t.Fatalf("one vertex: Perm %v, want [0]", o.Perm)
	}
	g := chl.GenerateRoadGrid(6, 6, 1)
	one := chl.RankByBetweenness(g, 1, 3).Perm
	for _, samples := range []int{0, -1} {
		got := chl.RankByBetweenness(g, samples, 3).Perm
		for i := range one {
			if got[i] != one[i] {
				t.Fatalf("samples=%d: Perm differs from samples=1 at %d", samples, i)
			}
		}
	}
}

// TestBuildDefaultAlgorithm pins what Options{} builds with: the scoreboard's
// fastest constructor per directedness, and the same CHL as the reference
// either way.
func TestBuildDefaultAlgorithm(t *testing.T) {
	for _, c := range []struct {
		g    *chl.Graph
		want string
	}{
		{chl.GenerateScaleFree(120, 3, 4), "PLaNT"},
		{chl.GenerateRandomDirected(60, 200, 7, 4), "PLaNT-directed"},
	} {
		ix, err := chl.Build(c.g, chl.Options{Seed: 1})
		if err != nil {
			t.Fatalf("default build (%s): %v", c.want, err)
		}
		if got := ix.Metrics().Algorithm; got != c.want {
			t.Fatalf("default build ran %q, want %q", got, c.want)
		}
		ref, err := chl.Build(c.g, chl.Options{Algorithm: chl.AlgoSeqPLL, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		hash := func(ix *chl.Index) uint64 {
			fx, err := ix.Freeze()
			if err != nil {
				t.Fatal(err)
			}
			return fx.ContentHash()
		}
		if hash(ix) != hash(ref) {
			t.Fatalf("default build (%s) and seqPLL froze to different content", c.want)
		}
	}
}

func TestQueryHubLiesOnShortestPaths(t *testing.T) {
	g := chl.GenerateRoadGrid(7, 7, 3)
	ix, err := chl.Build(g, chl.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100; i++ {
		u, v := rng.Intn(49), rng.Intn(49)
		d, hub, ok := ix.QueryHub(u, v)
		if !ok {
			t.Fatalf("connected pair (%d,%d) reported no hub", u, v)
		}
		du := sssp.Dijkstra(g, u)
		dh := sssp.Dijkstra(g, hub)
		if du[hub]+dh[v] != d || d != du[v] {
			t.Fatalf("hub %d not on a shortest %d–%d path", hub, u, v)
		}
	}
}

func TestLabelsAccessor(t *testing.T) {
	g := chl.GenerateScaleFree(60, 3, 2)
	ix, err := chl.Build(g, chl.Options{Algorithm: chl.AlgoSeqPLL})
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 60; v++ {
		ls := ix.Labels(v)
		if len(ls) == 0 {
			t.Fatalf("vertex %d has no labels", v)
		}
		foundSelf := false
		prevRank := -1
		for _, l := range ls {
			if l.Hub == v {
				foundSelf = true
				if l.Dist != 0 {
					t.Fatalf("self label dist %v", l.Dist)
				}
			}
			r := ix.Rank(l.Hub)
			if r <= prevRank {
				t.Fatalf("labels of %d not ordered by rank", v)
			}
			prevRank = r
		}
		if !foundSelf {
			t.Fatalf("vertex %d missing self label", v)
		}
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	g := chl.GenerateScaleFree(80, 3, 4)
	ix, err := chl.Build(g, chl.Options{Algorithm: chl.AlgoGLL})
	if err != nil {
		t.Fatal(err)
	}
	fx, err := ix.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := fx.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := chl.LoadFlat(&buf)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 200; i++ {
		u, v := rng.Intn(80), rng.Intn(80)
		if ix.Query(u, v) != back.Query(u, v) {
			t.Fatalf("loaded index disagrees at (%d,%d)", u, v)
		}
	}
	if back.TotalLabels() != ix.Stats().TotalLabels {
		t.Fatal("label counts differ after round trip")
	}
}

func TestDirectedBuildAndSaveLoad(t *testing.T) {
	g := chl.GenerateRandomDirected(60, 200, 8, 3)
	for _, algo := range []chl.Algorithm{chl.AlgoSeqPLL, chl.AlgoPLaNT} {
		ix, err := chl.Build(g, chl.Options{Algorithm: algo})
		if err != nil {
			t.Fatal(err)
		}
		if !ix.Directed() {
			t.Fatal("directed flag lost")
		}
		rng := rand.New(rand.NewSource(4))
		for i := 0; i < 150; i++ {
			u, v := rng.Intn(60), rng.Intn(60)
			want := sssp.Dijkstra(g, u)[v]
			if got := ix.Query(u, v); got != want {
				t.Fatalf("%s: directed query(%d→%d) = %v, want %v", algo, u, v, got, want)
			}
		}
		fx, err := ix.Freeze()
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := fx.Save(&buf); err != nil {
			t.Fatal(err)
		}
		back, err := chl.LoadFlat(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if back.Query(1, 2) != ix.Query(1, 2) || back.Query(2, 1) != ix.Query(2, 1) || !back.Directed() {
			t.Fatal("directed round trip broken")
		}
	}
	// Unsupported algorithm on directed input errors cleanly.
	if _, err := chl.Build(g, chl.Options{Algorithm: chl.AlgoGLL}); err == nil {
		t.Fatal("GLL accepted a directed graph")
	}
}

func TestBuildValidation(t *testing.T) {
	if _, err := chl.Build(nil, chl.Options{}); err == nil {
		t.Fatal("nil graph accepted")
	}
	g := chl.GenerateScaleFree(20, 2, 1)
	if _, err := chl.Build(g, chl.Options{Algorithm: "nope"}); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
	bad := chl.RankIdentity(5)
	if _, err := chl.Build(g, chl.Options{Order: bad}); err == nil {
		t.Fatal("mismatched order accepted")
	}
}

func TestMemoryLimitSurfacesOOM(t *testing.T) {
	g := chl.GenerateScaleFree(150, 4, 7)
	_, err := chl.Build(g, chl.Options{Algorithm: chl.AlgoDParaPLL, Nodes: 4, MemoryLimitBytes: 1024})
	if !errors.Is(err, chl.ErrOutOfMemory) {
		t.Fatalf("err = %v, want ErrOutOfMemory", err)
	}
}

func TestCustomRandomOrderStillExact(t *testing.T) {
	// The CHL is defined for ANY hierarchy: an adversarial random order
	// must still answer exactly.
	g := chl.GenerateRoadGrid(6, 6, 8)
	ord := chl.RankRandom(36, 99)
	ix, err := chl.Build(g, chl.Options{Algorithm: chl.AlgoLCC, Order: ord})
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < 36; u++ {
		du := sssp.Dijkstra(g, u)
		for v := 0; v < 36; v++ {
			if ix.Query(u, v) != du[v] {
				t.Fatalf("query(%d,%d) wrong under random order", u, v)
			}
		}
	}
}

func TestRankAccessors(t *testing.T) {
	g := chl.GenerateScaleFree(30, 2, 1)
	ord := chl.RankByDegree(g)
	ix, err := chl.Build(g, chl.Options{Order: ord})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 30; r++ {
		if ix.Rank(ix.VertexAtRank(r)) != r {
			t.Fatalf("rank accessors inconsistent at %d", r)
		}
	}
	if ix.VertexAtRank(0) != ord.Perm[0] {
		t.Fatal("top-ranked vertex mismatch")
	}
}

// TestBuilderContentHashPinned pins the frozen content of every canonical
// builder on the bench's tiny-profile fixtures (the instances, not the
// renumbered copies a run serves), and of both directed builders on a
// directed one. The CHL is unique, so every builder freezes to one hash per
// fixture, and a change to the builders' inner loops — the heap, the pruning
// query, the schedule — may move speed and exploration counts but never
// these hashes. The hashes are of the frozen file's bytes, so the
// container's layout is pinned too; FrozenLabelsMatch holds every frozen
// label to the builder's, so a layout change cannot hide a label change.
func TestBuilderContentHashPinned(t *testing.T) {
	road := chl.GenerateRoadGrid(32, 32, 1)
	sf := chl.GenerateScaleFree(1024, 3, 1)
	directed := chl.GenerateRandomDirected(512, 3072, 9, 1)
	undirected := []chl.Algorithm{chl.AlgoSeqPLL, chl.AlgoGLL, chl.AlgoLCC, chl.AlgoPLaNT, chl.AlgoDGLL, chl.AlgoDPLaNT, chl.AlgoHybrid}
	for _, fx := range []struct {
		name  string
		g     *chl.Graph
		ord   *chl.Order
		algos []chl.Algorithm
		want  uint64
	}{
		{"road", road, chl.RankByBetweenness(road, 32, 1), undirected, 0x000b03b024f64def},
		{"scale-free", sf, chl.RankByDegree(sf), undirected, 0x000bbd21b84ed2ca},
		{"directed", directed, chl.RankByDegree(directed), []chl.Algorithm{chl.AlgoSeqPLL, chl.AlgoPLaNT}, 0x00178afdd0139f37},
	} {
		for _, algo := range fx.algos {
			opt := chl.Options{Algorithm: algo, Order: fx.ord, Workers: 2}
			if algo.Distributed() {
				opt.Nodes, opt.WorkersPerNode = 2, 1
			}
			ix, err := chl.Build(fx.g, opt)
			if err != nil {
				t.Fatalf("%s %s: %v", fx.name, algo, err)
			}
			frozen, err := ix.Freeze()
			if err != nil {
				t.Fatal(err)
			}
			if got := frozen.ContentHash(); got != fx.want {
				t.Errorf("%s %s: ContentHash %#016x, want %#016x", fx.name, algo, got, fx.want)
			}
			if err := chl.FrozenLabelsMatch(ix, frozen); err != nil {
				t.Errorf("%s %s: %v", fx.name, algo, err)
			}
		}
	}
}

// TestEtaReachesPLaNT: Options.Eta is the one η. On the pinned road fixture
// (the default builder) and the pinned directed one (AlgoPLaNT) it must
// reach plant.Run and plant.RunDirected, so a build explores exactly what
// PLaNT explores with that η, and a frozen table explores more than a
// growing one — while the labels keep their pinned hash.
func TestEtaReachesPLaNT(t *testing.T) {
	road := chl.GenerateRoadGrid(32, 32, 1)
	directed := chl.GenerateRandomDirected(512, 3072, 9, 1)
	for _, fx := range []struct {
		name string
		g    *chl.Graph
		ord  *chl.Order
		algo chl.Algorithm
		want uint64
	}{
		{"road", road, chl.RankByBetweenness(road, 32, 1), "", 0x000b03b024f64def},
		{"directed", directed, chl.RankByDegree(directed), chl.AlgoPLaNT, 0x00178afdd0139f37},
	} {
		rg, _ := fx.g.Permute(fx.ord.Perm)
		explored := map[int]int64{}
		for _, eta := range []int{0, 16, -1} {
			ix, err := chl.Build(fx.g, chl.Options{Algorithm: fx.algo, Order: fx.ord, Workers: 2, Eta: eta})
			if err != nil {
				t.Fatal(err)
			}
			frozen, err := ix.Freeze()
			if err != nil {
				t.Fatal(err)
			}
			if got := frozen.ContentHash(); got != fx.want {
				t.Errorf("%s η=%d: ContentHash %#016x, want %#016x", fx.name, eta, got, fx.want)
			}
			if err := chl.FrozenLabelsMatch(ix, frozen); err != nil {
				t.Errorf("%s η=%d: %v", fx.name, eta, err)
			}
			popt := plant.Options{Workers: 2, Eta: eta}
			var want *chl.Metrics
			if fx.g.Directed() {
				_, want = plant.RunDirected(rg, popt)
			} else {
				_, want = plant.Run(rg, popt)
			}
			got := ix.Metrics().VerticesExplored
			if got != want.VerticesExplored {
				t.Errorf("%s η=%d: Build explored %d, plant explored %d", fx.name, eta, got, want.VerticesExplored)
			}
			explored[eta] = got
		}
		if explored[0] == explored[16] {
			t.Errorf("%s: η=0 and η=16 both explored %d: Eta never reached PLaNT", fx.name, explored[0])
		}
	}
}

package chl_test

// Exact distances end to end: the graph counts its weights in a unit 2^-k,
// and the builders and frozen stores count distances in it, so answers
// past 2^24 — where a float32 distance rounds — come back exact from every
// tier, and what no uint32 count or float64 sum holds exactly is refused,
// naming the value.

import (
	"bytes"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	chl "repro"
)

// mapWeights returns g with every arc weight replaced by f(weight).
func mapWeights(g *chl.Graph, f func(float64) float64) *chl.Graph {
	mg, err := tryMapWeights(g, f)
	if err != nil {
		panic(err)
	}
	return mg
}

// tryMapWeights is mapWeights, returning Finish's refusal.
func tryMapWeights(g *chl.Graph, f func(float64) float64) (*chl.Graph, error) {
	b := chl.NewGraphBuilder(g.NumVertices(), g.Directed())
	for u := 0; u < g.NumVertices(); u++ {
		heads, wts := g.Neighbors(u)
		for i, h := range heads {
			if g.Directed() || u < int(h) {
				b.AddEdge(u, int(h), f(g.FromUnits(uint64(wts[i]))))
			}
		}
	}
	return b.Finish()
}

// pathGraph returns the undirected path 0 – 1 – … with the given weights.
func pathGraph(weights ...float64) *chl.Graph {
	b := chl.NewGraphBuilder(len(weights)+1, false)
	for i, w := range weights {
		b.AddEdge(i, i+1, w)
	}
	return b.MustFinish()
}

// frozenTiers returns fx's serving forms that answer in process: packed
// and compressed, each from the heap and memory-mapped from a saved file.
func frozenTiers(t *testing.T, fx *chl.FlatIndex) map[string]*chl.FlatIndex {
	t.Helper()
	cfx := compress(t, fx)
	tiers := map[string]*chl.FlatIndex{"packed": fx, "compressed": cfx}
	for name, x := range map[string]*chl.FlatIndex{"mapped packed": fx, "mapped compressed": cfx} {
		path := filepath.Join(t.TempDir(), "ix.flat")
		if err := x.SaveFile(path); err != nil {
			t.Fatal(err)
		}
		m, err := chl.LoadFlatMapped(path)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { m.Close() })
		tiers[name] = m
	}
	return tiers
}

// The path 0 –(2^24+1)– 1 –(1)– 2: a float32 distance rounds 2^24+1 down
// and answered d(0,2) = 16,777,217.
func TestExactPast2To24(t *testing.T) {
	ix, err := chl.Build(pathGraph(1<<24+1, 1), chl.Options{})
	if err != nil {
		t.Fatal(err)
	}
	fx, err := ix.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	for name, x := range frozenTiers(t, fx) {
		if got := x.Query(0, 2); got != 16777218 {
			t.Errorf("%s: d(0,2) = %v, want 16777218", name, got)
		}
		if got := x.Query(0, 1); got != 16777217 {
			t.Errorf("%s: d(0,1) = %v, want 16777217", name, got)
		}
	}
}

// Road grids whose weights w become w·2^s + 1: odd, and past 2^24 — with
// float32 distances thousands of sampled pairs came back wrong. Every tier
// must now answer every sampled pair as Index.Query does, the router's
// cross-shard joins included.
func TestOddOffsetRoadGrids(t *testing.T) {
	for _, s := range []int{18, 20} {
		g := mapWeights(chl.GenerateRoadGrid(32, 32, 1), func(w float64) float64 { return w*float64(int(1)<<s) + 1 })
		ix, err := chl.Build(g, chl.Options{})
		if err != nil {
			t.Fatal(err)
		}
		fx, err := ix.Freeze()
		if err != nil {
			t.Fatal(err)
		}
		n := g.NumVertices()
		rng := rand.New(rand.NewSource(int64(s)))
		pairs := make([]chl.QueryPair, 3000)
		for i := range pairs {
			pairs[i] = chl.QueryPair{U: rng.Intn(n), V: rng.Intn(n)}
		}
		for name, x := range frozenTiers(t, fx) {
			for _, p := range pairs {
				if got, want := x.Query(p.U, p.V), ix.Query(p.U, p.V); got != want {
					t.Fatalf("s=%d %s: d(%d,%d) = %v, Index.Query %v", s, name, p.U, p.V, got, want)
				}
			}
		}
		c := newTestCluster(t, fx, clusterSpec{shards: 3})
		got, err := c.router.Batch(pairs)
		if err != nil {
			t.Fatal(err)
		}
		cross := 0
		for i, p := range pairs {
			if got[i] != ix.Query(p.U, p.V) {
				t.Fatalf("s=%d router: d(%d,%d) = %v, Index.Query %v", s, p.U, p.V, got[i], ix.Query(p.U, p.V))
			}
			if c.part.Owner(p.U) != c.part.Owner(p.V) {
				cross++
			}
		}
		if cross == 0 {
			t.Fatalf("s=%d: no sampled pair crossed shards", s)
		}
		c.close()
	}
}

// Build refuses a labeling with a label no uint32 count holds, 2^32 units,
// naming the label, on a graph every weight of which the graph itself
// counts: the path 0 –(2^31)– 1 –(2^31)– 2 with vertex 0
// ranked first, whose label (0, 2^32) at vertex 2 is canonical. Every
// builder refuses it where a tree would emit it, PLaNT, GLL and seqPLL
// first among them, on both orientations. (The paraPLL builders may race
// to the mirror label (2, 2^32) at vertex 0 first.)
func TestBuildRefusesPast32BitLabels(t *testing.T) {
	g := pathGraph(1<<31, 1<<31)
	ord, err := chl.RankFromPerm([]int{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	want := "vertex 2's label at hub 0 (rank) has distance 4.294967296e+09, which is not a whole number of units 2^-0 below 2^32"
	for _, algo := range []chl.Algorithm{chl.AlgoPLaNT, chl.AlgoGLL, chl.AlgoSeqPLL, chl.AlgoSParaPLL, chl.AlgoLCC, chl.AlgoDParaPLL, chl.AlgoDGLL, chl.AlgoDPLaNT, chl.AlgoHybrid} {
		opt := chl.Options{Algorithm: algo, Order: ord, Workers: 2}
		if algo.Distributed() {
			opt.Nodes, opt.WorkersPerNode = 2, 2
		}
		name := want
		if algo == chl.AlgoSParaPLL || algo == chl.AlgoDParaPLL {
			name = "has distance 4.294967296e+09, which is not a whole number of units 2^-0 below 2^32"
		}
		if ix, err := chl.Build(g, opt); ix != nil || err == nil || !strings.Contains(err.Error(), name) {
			t.Errorf("%s: Build = %v, %v; want a refusal naming the label", algo, ix, err)
		}
	}
	b := chl.NewGraphBuilder(3, true)
	b.AddEdge(0, 1, 1<<31)
	b.AddEdge(1, 2, 1<<31)
	for _, algo := range []chl.Algorithm{chl.AlgoPLaNT, chl.AlgoSeqPLL} {
		if ix, err := chl.Build(b.MustFinish(), chl.Options{Algorithm: algo, Order: ord}); ix != nil || err == nil || !strings.Contains(err.Error(), "4.294967296e+09") {
			t.Errorf("directed %s: Build = %v, %v; want a refusal naming the label", algo, ix, err)
		}
	}
	// One unit less, and every label fits.
	ix, err := chl.Build(pathGraph(1<<31, 1<<31-1), chl.Options{Order: ord})
	if err != nil {
		t.Fatal(err)
	}
	if fx, err := ix.Freeze(); err != nil || fx.Query(0, 2) != 1<<32-1 {
		t.Fatalf("Freeze: %v; d(0,2) = %v, want 2^32-1", err, fx.Query(0, 2))
	}
}

// Weights on a 0.1 grid are refused where the graph is made: their unit is
// 2^-55 or finer, so no uint32 counts them, path sums are not exact in
// float64, and the builders could disagree.
func TestBuildRefusesDecimalWeights(t *testing.T) {
	_, err := tryMapWeights(chl.GenerateRoadGrid(4, 4, 1), func(w float64) float64 { return w / 10 })
	if err == nil || !strings.Contains(err.Error(), "weight 0.") {
		t.Fatalf("a graph of 0.1-step weights: %v, want a refusal naming the weight", err)
	}
	// The same grid in quarters builds: its unit is 2^-2.
	if _, err := chl.Build(mapWeights(chl.GenerateRoadGrid(4, 4, 1), func(w float64) float64 { return w / 4 }), chl.Options{}); err != nil {
		t.Fatal(err)
	}
}

// /update refuses a patch after which /compact could not rebuild: one
// 0.1-weight edge makes the patched graph one Build refuses.
func TestUpdateRefusesUnbuildablePatch(t *testing.T) {
	g := chl.GenerateRoadGrid(4, 4, 1)
	_, fx := buildFrozen(t, g)
	srv := chl.NewServerFromFlat(fx, 0)
	defer srv.Close()
	if err := srv.EnableUpdates(g, ""); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	add := func(w float64) (int, string) {
		ops := chl.FormatPatchLog([]chl.EdgeOp{{Kind: chl.EdgeOpAdd, U: 0, V: 15, W: w}})
		resp, err := http.Post(ts.URL+"/update", "text/plain", bytes.NewReader(ops))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}
	if code, body := add(0.1); code != http.StatusBadRequest || !strings.Contains(body, "weight 0.1") {
		t.Fatalf("/update adding a 0.1 edge: %d %s, want 400 naming the weight", code, body)
	}
	if code, body := add(0.25); code != http.StatusOK {
		t.Fatalf("/update adding a 0.25 edge: %d %s", code, body)
	}
	if _, err := srv.Compact(""); err != nil {
		t.Fatalf("/compact after a 0.25 edge: %v", err)
	}
	if got := srv.Query(0, 15); got != 0.25 {
		t.Fatalf("d(0,15) after /compact = %v, want 0.25", got)
	}
}

// The quarter-units road grid (unit 2^-2) in process: the builder's
// Index, every frozen tier and a thawed copy answer every pair as
// Dijkstra does, and freezing keeps every label — the in-process half of
// the fixture TestWorkloadParityMatrix serves.
func TestQuarterUnitTiers(t *testing.T) {
	g := mapWeights(chl.GenerateRoadGrid(12, 12, 3), func(w float64) float64 { return w / 4 })
	ix, fx := buildFrozen(t, g)
	o := newParityOracle(g)
	queries := map[string]func(u, v int) float64{"Index": ix.Query}
	for name, x := range frozenTiers(t, fx) {
		if err := chl.FrozenLabelsMatch(ix, x); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		queries[name] = x.Query
		queries[name+" thawed"] = x.Thaw().Query
	}
	n := g.NumVertices()
	for u := 0; u < n; u += 7 {
		for v := 0; v < n; v++ {
			want := o.from(u)[v]
			for name, q := range queries {
				if got := q(u, v); got != want {
					t.Fatalf("%s: d(%d,%d) = %v, Dijkstra %v", name, u, v, got, want)
				}
			}
		}
	}
}

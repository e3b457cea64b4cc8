package chl_test

// One benchmark per table and figure of the paper's evaluation (§7), plus
// micro-benchmarks for the primitives. Each experiment benchmark runs the
// corresponding internal/exp driver at a reduced scale and reports the
// headline quantities as custom metrics, so
//
//	go test -bench=. -benchmem
//
// regenerates the whole evaluation in miniature; cmd/experiments produces
// the full-size text report. Table 4's modelled query modes are benchmarked
// beside their driver, in internal/exp.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	chl "repro"
	"repro/internal/exp"
)

// benchCfg keeps one benchmark iteration to roughly a second.
func benchCfg() exp.Config {
	return exp.Config{Scale: 0.15, Seed: 1, Workers: 2, QueryBatch: 20_000, LatencyQueries: 1_000}.Defaults()
}

// BenchmarkTable3SharedMemory reproduces Table 3: GLL vs LCC vs SparaPLL vs
// seqPLL construction time and average label size.
func BenchmarkTable3SharedMemory(b *testing.B) {
	cfg := benchCfg()
	var rows []exp.Table3Row
	for i := 0; i < b.N; i++ {
		rows = exp.Table3(cfg)
	}
	var chlALS, spALS float64
	for _, r := range rows {
		chlALS += r.CHLALS
		spALS += r.SparaALS
	}
	b.ReportMetric(chlALS/float64(len(rows)), "CHL-ALS")
	b.ReportMetric(spALS/float64(len(rows)), "SparaPLL-ALS")
	b.ReportMetric(100*(1-chlALS/spALS), "label-reduction-%")
}

// BenchmarkFigure2LabelsPerSPT reproduces Figure 2's decay series.
func BenchmarkFigure2LabelsPerSPT(b *testing.B) {
	cfg := benchCfg()
	var series []exp.FigureSeries
	for i := 0; i < b.N; i++ {
		series = exp.Figure2(cfg)
	}
	first := series[0].Points
	b.ReportMetric(first[0].Value/maxf(first[len(first)-1].Value, 1), "first/last-bucket")
}

// BenchmarkFigure3Psi reproduces Figure 3's Ψ-per-tree series.
func BenchmarkFigure3Psi(b *testing.B) {
	cfg := benchCfg()
	var series []exp.FigureSeries
	for i := 0; i < b.N; i++ {
		series = exp.Figure3(cfg)
	}
	var peak float64
	for _, s := range series {
		for _, p := range s.Points {
			if p.Value > peak {
				peak = p.Value
			}
		}
	}
	b.ReportMetric(peak, "max-psi")
}

// BenchmarkFigure4RestrictedPruning reproduces Figure 4: labels vs pruning
// hub budget.
func BenchmarkFigure4RestrictedPruning(b *testing.B) {
	cfg := benchCfg()
	var series []exp.Figure4Series
	for i := 0; i < b.N; i++ {
		series = exp.Figure4(cfg)
	}
	s := series[0]
	b.ReportMetric(float64(s.Points[0].Labels)/float64(s.CHL), "rankonly/CHL-labels")
}

// BenchmarkFigure5AlphaSweep reproduces Figure 5: GLL time vs α.
func BenchmarkFigure5AlphaSweep(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		exp.Figure5(cfg)
	}
}

// BenchmarkFigure6PsiSweep reproduces Figure 6: Hybrid time vs Ψth at q=16.
func BenchmarkFigure6PsiSweep(b *testing.B) {
	cfg := benchCfg()
	var pts []exp.Figure6Point
	for i := 0; i < b.N; i++ {
		pts = exp.Figure6(cfg)
	}
	b.ReportMetric(float64(len(pts)), "points")
}

// BenchmarkFigure7Breakdown reproduces Figure 7: LCC vs GLL phase split.
func BenchmarkFigure7Breakdown(b *testing.B) {
	cfg := benchCfg()
	var rows []exp.Figure7Row
	for i := 0; i < b.N; i++ {
		rows = exp.Figure7(cfg)
	}
	var ratio float64
	for _, r := range rows {
		ratio += float64(r.LCCCleanEntries) / maxf(float64(r.GLLCleanEntries), 1)
	}
	b.ReportMetric(ratio/float64(len(rows)), "LCC/GLL-clean-entries")
}

// BenchmarkFigure8StrongScaling reproduces Figure 8 on a reduced q grid.
func BenchmarkFigure8StrongScaling(b *testing.B) {
	cfg := benchCfg()
	cfg.Scale = 0.3
	var pts []exp.Figure8Point
	for i := 0; i < b.N; i++ {
		pts = exp.Figure8(cfg)
	}
	// Report PLaNT's modeled speedup on the first dataset.
	var t1, tq float64
	maxQ := 0
	for _, p := range pts {
		if p.Dataset == "CAL" && p.Algorithm == "PLaNT" && !p.OOM {
			if p.Nodes == 1 {
				t1 = p.Modeled
			}
			if p.Nodes > maxQ {
				maxQ, tq = p.Nodes, p.Modeled
			}
		}
	}
	if tq > 0 {
		b.ReportMetric(t1/tq, "PLaNT-speedup")
	}
}

// BenchmarkFigure9ALSGrowth reproduces Figure 9: ALS vs q.
func BenchmarkFigure9ALSGrowth(b *testing.B) {
	cfg := benchCfg()
	var pts []exp.Figure9Point
	for i := 0; i < b.N; i++ {
		pts = exp.Figure9(cfg)
	}
	// DparaPLL ALS inflation at the largest q relative to canonical.
	var dp, hy float64
	maxQ := 0
	for _, p := range pts {
		if p.Nodes > maxQ {
			maxQ = p.Nodes
		}
	}
	for _, p := range pts {
		if p.Nodes == maxQ && !p.OOM {
			if p.Algorithm == "DparaPLL" {
				dp += p.ALS
			} else {
				hy += p.ALS
			}
		}
	}
	if hy > 0 {
		b.ReportMetric(dp/hy, "DparaPLL/CHL-ALS")
	}
}

// ---------------------------------------------------------------------------
// Micro-benchmarks of the primitives.

func benchGraph(b *testing.B) *chl.Graph {
	b.Helper()
	return chl.GenerateScaleFree(2048, 4, 1)
}

func BenchmarkBuildSeqPLL(b *testing.B) {
	g := benchGraph(b)
	ord := chl.RankByDegree(g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := chl.Build(g, chl.Options{Algorithm: chl.AlgoSeqPLL, Order: ord}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBuildGLL(b *testing.B) {
	g := benchGraph(b)
	ord := chl.RankByDegree(g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := chl.Build(g, chl.Options{Algorithm: chl.AlgoGLL, Order: ord, Workers: 2}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBuildGLLRoad is the scoreboard's build_gll_s row in small: the
// road fixture's shape (grid, sampled-betweenness hierarchy) with two
// workers. clean_ms is the cleaning-and-commit share of a build, the part
// that must cost only the superstep's own labels.
func BenchmarkBuildGLLRoad(b *testing.B) {
	g := chl.GenerateRoadGrid(48, 48, 1)
	ord := chl.RankByBetweenness(g, 64, 1)
	var clean time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix, err := chl.Build(g, chl.Options{Algorithm: chl.AlgoGLL, Order: ord, Workers: 2})
		if err != nil {
			b.Fatal(err)
		}
		clean += ix.Metrics().CleanTime
	}
	b.ReportMetric(clean.Seconds()*1e3/float64(b.N), "clean_ms")
}

func BenchmarkBuildPLaNT(b *testing.B) {
	g := benchGraph(b)
	ord := chl.RankByDegree(g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := chl.Build(g, chl.Options{Algorithm: chl.AlgoPLaNT, Order: ord, Workers: 2}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBuildDirected times the directed builders on the traced
// scoreboard's directed fixture (4,096 vertices, 24,576 arcs, degree
// order, two workers): PLaNT, Build's default, against seqPLL, the
// directed reference. Both emit the same labels.
func BenchmarkBuildDirected(b *testing.B) {
	g := chl.GenerateRandomDirected(4096, 24576, 9, 1)
	ord := chl.RankByDegree(g)
	for _, algo := range []chl.Algorithm{chl.AlgoPLaNT, chl.AlgoSeqPLL} {
		b.Run(string(algo), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := chl.Build(g, chl.Options{Algorithm: algo, Order: ord, Workers: 2}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBuildHybrid is the scoreboard's build_hybrid_s row in small: the
// road fixture's shape (grid, sampled-betweenness hierarchy) on two one-worker
// nodes, the regime where the growing Common Label Table pays.
func BenchmarkBuildHybrid(b *testing.B) {
	b.ReportAllocs()
	g := chl.GenerateRoadGrid(48, 48, 1)
	ord := chl.RankByBetweenness(g, 64, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := chl.Build(g, chl.Options{Algorithm: chl.AlgoHybrid, Order: ord, Nodes: 2, WorkersPerNode: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBuildHybridQ8(b *testing.B) {
	b.ReportAllocs()
	g := benchGraph(b)
	ord := chl.RankByDegree(g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := chl.Build(g, chl.Options{Algorithm: chl.AlgoHybrid, Order: ord, Nodes: 8}); err != nil {
			b.Fatal(err)
		}
	}
}

// The query benchmarks run at serving scale (a 32k-vertex scale-free
// graph) rather than on the small construction benchmark graph: an index
// that fits L2 whole hides exactly the layout effects the flat store is
// for. The index is built once and shared.
var serveBench struct {
	once   sync.Once
	ix     *chl.Index
	fx     *chl.FlatIndex
	cfx    *chl.FlatIndex // compressed sibling of fx, same labels
	us, vs []int
}

func benchServeIndex(b *testing.B) (*chl.Index, *chl.FlatIndex, []int, []int) {
	b.Helper()
	serveBench.once.Do(func() {
		g := chl.GenerateScaleFree(32768, 4, 1)
		ix, err := chl.Build(g, chl.Options{Algorithm: chl.AlgoGLL})
		if err != nil {
			panic(err)
		}
		fx, err := ix.Freeze()
		if err != nil {
			panic(err)
		}
		cfx, err := fx.Compress()
		if err != nil {
			panic(err)
		}
		rng := rand.New(rand.NewSource(2))
		us := make([]int, 4096)
		vs := make([]int, 4096)
		for i := range us {
			us[i], vs[i] = rng.Intn(32768), rng.Intn(32768)
		}
		serveBench.ix, serveBench.fx, serveBench.cfx = ix, fx, cfx
		serveBench.us, serveBench.vs = us, vs
	})
	return serveBench.ix, serveBench.fx, serveBench.us, serveBench.vs
}

// benchServeCompressed returns the compressed sibling of the shared
// serving fixture.
func benchServeCompressed(b *testing.B) (*chl.FlatIndex, []int, []int) {
	b.Helper()
	_, _, us, vs := benchServeIndex(b)
	return serveBench.cfx, us, vs
}

func BenchmarkQuery(b *testing.B) {
	ix, _, us, vs := benchServeIndex(b)
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += ix.Query(us[i%4096], vs[i%4096])
	}
	_ = sink
}

// BenchmarkFlatQuery is BenchmarkQuery on the frozen packed store through
// the serving path: same pairs, 8-byte packed entries instead of 16-byte
// slice elements behind two pointer chases, and the hash join on a table
// from the index's pool instead of the mispredicting merge join.
func BenchmarkFlatQuery(b *testing.B) {
	_, fx, us, vs := benchServeIndex(b)
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += fx.Query(us[i%4096], vs[i%4096])
	}
	_ = sink
}

// BenchmarkFlatQueryParallel is the flat query across all available
// cores: each query takes its own table from the index's pool, so
// concurrent queries never share one.
func BenchmarkFlatQueryParallel(b *testing.B) {
	_, fx, us, vs := benchServeIndex(b)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		var sink float64
		i := 0
		for pb.Next() {
			sink += fx.Query(us[i%4096], vs[i%4096])
			i++
		}
		_ = sink
	})
}

// BenchmarkCompressedQuery is BenchmarkFlatQuery on the compressed
// sibling of the same index: a merge join that decodes one delta+varint
// stream per side as it goes instead of reading fixed-width packed
// entries.
func BenchmarkCompressedQuery(b *testing.B) {
	cfx, us, vs := benchServeCompressed(b)
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += cfx.Query(us[i%4096], vs[i%4096])
	}
	_ = sink
}

// BenchmarkCompressedQueryParallel runs the compressed kernel across all
// cores. The compressed path is scratch-free (it decodes in registers),
// so there is no per-goroutine state to allocate.
func BenchmarkCompressedQueryParallel(b *testing.B) {
	cfx, us, vs := benchServeCompressed(b)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		var sink float64
		i := 0
		for pb.Next() {
			sink += cfx.Query(us[i%4096], vs[i%4096])
			i++
		}
		_ = sink
	})
}

// patchedEngine serves a 96×96 road grid — the scoreboard's serve-live
// fixture — under one batch of edge updates drawn so that the overlay
// holds exactly patchVerts patch vertices: a rotation of deletions,
// reweights and insertions on vertices no earlier op touched, the last
// op reusing one when the count is odd. The caller closes the server.
func patchedEngine(b *testing.B, patchVerts int) (*chl.Server, *chl.Snapshot) {
	b.Helper()
	g := chl.GenerateRoadGrid(96, 96, 1)
	ix, err := chl.Build(g, chl.Options{})
	if err != nil {
		b.Fatal(err)
	}
	fx, err := ix.Freeze()
	if err != nil {
		b.Fatal(err)
	}
	srv := chl.NewServerFromFlat(fx, 0)
	if err := srv.EnableUpdates(g, ""); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	n := g.NumVertices()
	used := map[int]bool{}
	var ops []chl.EdgeOp
	for len(used) < patchVerts {
		u := rng.Intn(n)
		heads, _ := g.Neighbors(u)
		v := int(heads[rng.Intn(len(heads))])
		op := chl.EdgeOp{Kind: chl.EdgeOpDel, U: u, V: v}
		switch len(ops) % 3 {
		case 1:
			op = chl.EdgeOp{Kind: chl.EdgeOpSet, U: u, V: v, W: float64(1 + rng.Intn(10))}
		case 2:
			v = rng.Intn(n)
			op = chl.EdgeOp{Kind: chl.EdgeOpAdd, U: u, V: v, W: float64(1 + rng.Intn(20))}
		}
		fresh := 0
		for _, x := range [2]int{u, v} {
			if !used[x] {
				fresh++
			}
		}
		_, has := g.HasEdge(u, v)
		if u == v || has == (op.Kind == chl.EdgeOpAdd) || fresh != min(2, patchVerts-len(used)) {
			continue
		}
		used[u], used[v] = true, true
		ops = append(ops, op)
	}
	if _, err := srv.Update(ops); err != nil {
		b.Fatal(err)
	}
	if got := srv.Stats().Patch.Vertices; got != patchVerts {
		b.Fatalf("overlay has %d patch vertices, want %d", got, patchVerts)
	}
	return srv, srv.Acquire()
}

// BenchmarkPatchedQuery is the corrected point-to-point query — frozen
// join, seed scan, correction, the occasional exact fallback — as the
// overlay grows: the in-process twin of the scoreboard's
// delta.patched_query_us, one sub-benchmark per |P|.
func BenchmarkPatchedQuery(b *testing.B) {
	for _, patchVerts := range []int{8, 32, 57} {
		b.Run(fmt.Sprintf("P=%d", patchVerts), func(b *testing.B) {
			srv, sn := patchedEngine(b, patchVerts)
			defer srv.Close()
			defer sn.Release()
			eng, n := sn.Engine(), 96*96
			rng := rand.New(rand.NewSource(4))
			us, vs := make([]int, 4096), make([]int, 4096)
			for i := range us {
				us[i], vs[i] = rng.Intn(n), rng.Intn(n)
			}
			b.ReportAllocs()
			b.ResetTimer()
			var sink float64
			for i := 0; i < b.N; i++ {
				d, _, _ := eng.QueryHub(us[i%4096], vs[i%4096])
				sink += d
			}
			_ = sink
			b.StopTimer()
			st := srv.Stats().Patch
			b.ReportMetric(float64(st.Fallback)/float64(st.Frozen+st.Corrected+st.Fallback), "fallback/op")
		})
	}
}

// BenchmarkPaths times Server.Path on the serve-live road fixture, once
// per way a tier answers /paths: the walk over frozen labels ("frozen",
// updates on), the walk over one Dijkstra row under a 32-op overlay
// ("overlay"), and the witness triple of a server with no graph
// ("triple"). vertices/op is the mean length of the answer.
func BenchmarkPaths(b *testing.B) {
	g := chl.GenerateRoadGrid(96, 96, 1)
	ix, err := chl.Build(g, chl.Options{})
	if err != nil {
		b.Fatal(err)
	}
	serve := func(withGraph bool) *chl.Server {
		fx, err := ix.Freeze()
		if err != nil {
			b.Fatal(err)
		}
		s := chl.NewServerFromFlat(fx, 0)
		if withGraph {
			if err := s.EnableUpdates(g, ""); err != nil {
				b.Fatal(err)
			}
		}
		return s
	}
	overlay, sn := patchedEngine(b, 64) // one op per two fresh patch vertices: 32 ops
	sn.Release()
	rng := rand.New(rand.NewSource(5))
	n := g.NumVertices()
	pairs := make([][2]int, 2000)
	for i := range pairs {
		pairs[i] = [2]int{rng.Intn(n), rng.Intn(n)}
	}
	for _, c := range []struct {
		name string
		s    *chl.Server
	}{{"frozen", serve(true)}, {"overlay", overlay}, {"triple", serve(false)}} {
		b.Run(c.name, func(b *testing.B) {
			vertices := 0
			for i := 0; i < b.N; i++ {
				p := pairs[i%len(pairs)]
				_, path, _, err := c.s.Path(p[0], p[1])
				if err != nil {
					b.Fatal(err)
				}
				vertices += len(path)
			}
			b.ReportMetric(float64(vertices)/float64(b.N), "vertices/op")
		})
		c.s.Close()
	}
}

// TestParallelQueryScratchRace drives the same pattern as the parallel
// benchmarks under plain `go test`, so the CI -race job proves that
// concurrent queries on one index, each on its own pooled table, and the
// scratch-free compressed kernel are data-race-free rather than trusting
// the comment.
func TestParallelQueryScratchRace(t *testing.T) {
	g := chl.GenerateScaleFree(400, 3, 2)
	ix, fx := buildFrozen(t, g)
	cfx, err := fx.Compress()
	if err != nil {
		t.Fatal(err)
	}
	n := fx.NumVertices()
	const workers, perWorker = 8, 400
	var wg sync.WaitGroup
	errc := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < perWorker; i++ {
				u, v := rng.Intn(n), rng.Intn(n)
				want := ix.Query(u, v)
				if got := fx.Query(u, v); got != want {
					errc <- fmt.Errorf("flat Query(%d,%d) = %v, want %v", u, v, got, want)
					return
				}
				if got := cfx.Query(u, v); got != want {
					errc <- fmt.Errorf("compressed Query(%d,%d) = %v, want %v", u, v, got, want)
					return
				}
			}
		}(int64(w + 1))
	}
	wg.Wait()
	close(errc)
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
}

// BenchmarkBatchParallel measures the parallel batch serving engine
// against the same batch answered one query at a time on one goroutine.
func BenchmarkBatchParallel(b *testing.B) {
	_, fx, _, _ := benchServeIndex(b)
	eng := chl.NewBatchEngineFlat(fx)
	n := fx.NumVertices()
	rng := rand.New(rand.NewSource(3))
	pairs := make([]chl.QueryPair, 65536)
	for i := range pairs {
		pairs[i] = chl.QueryPair{U: rng.Intn(n), V: rng.Intn(n)}
	}
	dst := make([]float64, len(pairs))
	b.Run("parallel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			eng.BatchInto(dst, pairs)
		}
		b.ReportMetric(float64(len(pairs))*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mq/s")
	})
	b.Run("sequential", func(b *testing.B) {
		fx := eng.Index()
		for i := 0; i < b.N; i++ {
			for j, p := range pairs {
				dst[j] = fx.Query(p.U, p.V)
			}
		}
		b.ReportMetric(float64(len(pairs))*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mq/s")
	})
}

// batchBench is the fixture of the /batch handler benchmarks: the
// scoreboard's serve-frozen index (96×96 road grid, cache off) and one
// request of 10,000 uniform pairs, as the JSON body a client posts.
var batchBench struct {
	once  sync.Once
	fx    *chl.FlatIndex
	pairs []chl.QueryPair
	body  []byte
}

func benchBatchFixture(b *testing.B) (*chl.FlatIndex, []chl.QueryPair, []byte) {
	b.Helper()
	batchBench.once.Do(func() {
		g := chl.GenerateRoadGrid(96, 96, 1)
		ix, err := chl.Build(g, chl.Options{})
		if err != nil {
			panic(err)
		}
		fx, err := ix.Freeze()
		if err != nil {
			panic(err)
		}
		rng := rand.New(rand.NewSource(4))
		n := g.NumVertices()
		pairs := make([]chl.QueryPair, 10_000)
		wire := make([][2]int, len(pairs))
		for i := range pairs {
			pairs[i] = chl.QueryPair{U: rng.Intn(n), V: rng.Intn(n)}
			wire[i] = [2]int{pairs[i].U, pairs[i].V}
		}
		body, err := json.Marshal(wire)
		if err != nil {
			panic(err)
		}
		batchBench.fx, batchBench.pairs, batchBench.body = fx, pairs, body
	})
	return batchBench.fx, batchBench.pairs, batchBench.body
}

// BenchmarkBatchHandler is one POST /batch through the handler — read and
// parse the body, the join kernel, encode the reply — without a socket.
// Beside BenchmarkBatchEngineOnly it gives the decode/kernel/encode split
// of the scoreboard's batch_pairs_per_s.
func BenchmarkBatchHandler(b *testing.B) {
	fx, pairs, body := benchBatchFixture(b)
	srv := chl.NewServerFromFlat(fx, 0)
	defer srv.Close()
	h := srv.Handler()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/batch", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			b.Fatalf("POST /batch: %d %s", rec.Code, rec.Body.String())
		}
	}
	b.ReportMetric(float64(len(pairs))*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mpairs/s")
}

// BenchmarkBatchEngineOnly is the kernel share of BenchmarkBatchHandler:
// the same pairs through BatchInto, no wire format on either side.
func BenchmarkBatchEngineOnly(b *testing.B) {
	fx, pairs, _ := benchBatchFixture(b)
	eng := chl.NewBatchEngineFlat(fx)
	dst := make([]float64, len(pairs))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.BatchInto(dst, pairs)
	}
	b.ReportMetric(float64(len(pairs))*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mpairs/s")
}

// BenchmarkBatchSources is one in-process 10,000-pair Server.Batch (cache
// off) on the scoreboard's road index — 96×96 grid, 256-sample
// betweenness hierarchy — as the batch repeats its sources more: drawn
// from every vertex, from 1,024, and from 16 as serve-live's reader does.
// /batch scatters a repeated source once, so ns/pair should fall with the
// source count.
func BenchmarkBatchSources(b *testing.B) {
	g := chl.GenerateRoadGrid(96, 96, 1)
	ix, err := chl.Build(g, chl.Options{Order: chl.RankByBetweenness(g, 256, 1)})
	if err != nil {
		b.Fatal(err)
	}
	fx, err := ix.Freeze()
	if err != nil {
		b.Fatal(err)
	}
	srv := chl.NewServerFromFlat(fx, 0)
	defer srv.Close()
	n := g.NumVertices()
	for _, sources := range []int{n, 1024, 16} {
		name := fmt.Sprint(sources)
		if sources == n {
			name = "all"
		}
		b.Run("sources="+name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(4))
			from := rng.Perm(n)[:sources]
			pairs := make([]chl.QueryPair, 10_000)
			for i := range pairs {
				pairs[i] = chl.QueryPair{U: from[rng.Intn(sources)], V: rng.Intn(n)}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				srv.Batch(pairs)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(pairs)), "ns/pair")
		})
	}
}

func BenchmarkSaveLoad(b *testing.B) {
	g := benchGraph(b)
	ix, err := chl.Build(g, chl.Options{Algorithm: chl.AlgoGLL})
	if err != nil {
		b.Fatal(err)
	}
	fx, err := ix.Freeze()
	if err != nil {
		b.Fatal(err)
	}
	path := b.TempDir() + "/ix.flat"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := fx.SaveFile(path); err != nil {
			b.Fatal(err)
		}
		if _, err := chl.LoadFlatFile(path); err != nil {
			b.Fatal(err)
		}
	}
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

package chl_test

import (
	"bytes"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"

	chl "repro"
)

// The canonical quickstart: build a labeling, answer a query.
func ExampleBuild() {
	g := chl.GenerateRoadGrid(8, 8, 1)
	ix, err := chl.Build(g, chl.Options{Algorithm: chl.AlgoGLL, Seed: 1})
	if err != nil {
		panic(err)
	}
	fmt.Printf("d(0,63) = %g\n", ix.Query(0, 63))
	// Output: d(0,63) = 38
}

// Distributed construction partitions labels across simulated cluster
// nodes; the index still answers exactly.
func ExampleBuild_distributed() {
	g := chl.GenerateScaleFree(256, 3, 1)
	ord := chl.RankByDegree(g)
	shared, _ := chl.Build(g, chl.Options{Algorithm: chl.AlgoSeqPLL, Order: ord})
	hybrid, _ := chl.Build(g, chl.Options{Algorithm: chl.AlgoHybrid, Order: ord, Nodes: 4})
	fmt.Println("same ALS:", shared.Stats().ALS == hybrid.Stats().ALS)
	fmt.Println("same answer:", shared.Query(3, 250) == hybrid.Query(3, 250))
	// Output:
	// same ALS: true
	// same answer: true
}

// Path walks the actual shortest path, not just its length: the frozen
// labels give each vertex's distance, the graph they were built from the
// arcs, and every step is one arc.
func ExampleFlatIndex_Path() {
	g := chl.GenerateRoadGrid(4, 4, 1) // 4×4 grid, vertex ids row-major
	ix, err := chl.Build(g, chl.Options{Seed: 1})
	if err != nil {
		panic(err)
	}
	fx, err := ix.Freeze()
	if err != nil {
		panic(err)
	}
	dist, path, ok, err := fx.Path(g, 0, 15)
	if err != nil {
		panic(err)
	}
	fmt.Println("reachable:", ok, "hops:", len(path)-1, "length:", dist)
	fmt.Println("path:", path)
	// Output:
	// reachable: true hops: 6 length: 20
	// path: [0 1 5 9 10 14 15]
}

// Freezing packs the labeling into the flat store; queries answer
// identically, from contiguous memory.
func ExampleIndex_Freeze() {
	g := chl.GenerateRoadGrid(8, 8, 1)
	ix, _ := chl.Build(g, chl.Options{Algorithm: chl.AlgoGLL, Seed: 1})
	fx, err := ix.Freeze()
	if err != nil {
		panic(err)
	}
	fmt.Println("same answer:", fx.Query(0, 63) == ix.Query(0, 63))
	fmt.Println("labels:", fx.TotalLabels() == ix.Stats().TotalLabels)
	// Output:
	// same answer: true
	// labels: true
}

// The serve-many flow: freeze once, save, reload in a serving process, and
// answer batches in parallel.
func ExampleNewBatchEngineFlat() {
	g := chl.GenerateScaleFree(300, 3, 1)
	ix, _ := chl.Build(g, chl.Options{Algorithm: chl.AlgoGLL, Seed: 1})
	fx, _ := ix.Freeze()

	var wire bytes.Buffer
	if err := fx.Save(&wire); err != nil { // once, at build time
		panic(err)
	}
	loaded, err := chl.LoadFlat(&wire) // every serving process
	if err != nil {
		panic(err)
	}
	eng := chl.NewBatchEngineFlat(loaded)
	dists := eng.Batch([]chl.QueryPair{{U: 0, V: 299}, {U: 5, V: 250}})
	fmt.Println("batch size:", len(dists))
	fmt.Println("matches build:", dists[0] == ix.Query(0, 299) && dists[1] == ix.Query(5, 250))
	// Output:
	// batch size: 2
	// matches build: true
}

// The full production flow: Freeze the build, Save it to disk, load it
// back with the serving loader (LoadFlat reads any version; OpenFlat
// memory-maps when the platform allows), and serve batches in parallel
// through NewBatchEngineFlat.
func ExampleIndex_Freeze_serving() {
	g := chl.GenerateRoadGrid(10, 10, 1)
	ix, _ := chl.Build(g, chl.Options{Algorithm: chl.AlgoGLL, Seed: 1})
	fx, _ := ix.Freeze()

	dir, _ := os.MkdirTemp("", "chl-example")
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "grid.flat")
	if err := fx.SaveFile(path); err != nil { // once, at build time
		panic(err)
	}
	served, err := chl.OpenFlat(path) // every serving process, zero-copy when mappable
	if err != nil {
		panic(err)
	}
	defer served.Close()
	eng := chl.NewBatchEngineFlat(served)
	dists := eng.Batch([]chl.QueryPair{{U: 0, V: 99}, {U: 9, V: 90}})
	fmt.Println("matches build:", dists[0] == ix.Query(0, 99) && dists[1] == ix.Query(9, 90))
	// Output: matches build: true
}

// A Cache fronts an engine with a sharded, bounded LRU of full answers;
// hit/miss counters feed the /stats endpoint.
func ExampleNewCache() {
	g := chl.GenerateRoadGrid(8, 8, 1)
	ix, _ := chl.Build(g, chl.Options{Algorithm: chl.AlgoGLL, Seed: 1})
	fx, _ := ix.Freeze()
	eng := chl.NewBatchEngineFlat(fx)
	eng.SetCache(chl.NewCache(1024))

	first := eng.Query(0, 63)  // miss: join over the label arrays
	second := eng.Query(63, 0) // hit: pairs are unordered
	st := eng.Cache().Stats()
	fmt.Println("same answer:", first == second)
	fmt.Printf("hits=%d misses=%d\n", st.Hits, st.Misses)
	// Output:
	// same answer: true
	// hits=1 misses=1
}

// A Server hot-swaps index generations with zero dropped queries: each
// Reload atomically publishes a freshly validated snapshot (with its own
// cache, so no stale answers), drains the old one, then unmaps it.
func ExampleServer() {
	dir, _ := os.MkdirTemp("", "chl-example")
	defer os.RemoveAll(dir)
	build := func(seed int64, name string) string {
		g := chl.GenerateRoadGrid(8, 8, seed) // different seed, different edge weights
		ix, _ := chl.Build(g, chl.Options{Algorithm: chl.AlgoGLL, Seed: 1})
		fx, _ := ix.Freeze()
		path := filepath.Join(dir, name)
		if err := fx.SaveFile(path); err != nil {
			panic(err)
		}
		return path
	}
	s, err := chl.NewServer(build(1, "v1.flat"), 1024)
	if err != nil {
		panic(err)
	}
	defer s.Close()
	before := s.Query(0, 63)
	if _, err := s.Reload(build(2, "v2.flat")); err != nil { // hot swap
		panic(err)
	}
	fmt.Println("generation:", s.Stats().Generation)
	fmt.Println("new weights served:", s.Query(0, 63) != before)
	// Output:
	// generation: 2
	// new weights served: true
}

// The sharded serving tier: SaveShards slices a flat index into
// per-shard files plus a cluster manifest, each shard serves its slice
// through an ordinary Server, and a Router fans queries out —
// whole-query forwarding when one shard owns both endpoints, a hub join
// over two fetched label rows when two do. Answers are bit-identical to
// the single-process index.
func ExampleRouter() {
	g := chl.GenerateRoadGrid(8, 8, 1)
	ix, _ := chl.Build(g, chl.Options{Algorithm: chl.AlgoGLL, Seed: 1})
	fx, _ := ix.Freeze()

	dir, _ := os.MkdirTemp("", "chl-cluster")
	defer os.RemoveAll(dir)
	m, err := fx.SaveShards(dir, 3, 64, 1) // 3 shards, 64 ring points each
	if err != nil {
		panic(err)
	}
	part, _ := m.Partition()

	addrs := make([]string, m.Shards)
	for i := range addrs { // one serving process per shard, here in-process
		path, _ := chl.ShardFilePath(filepath.Join(dir, "cluster.json"), m, i)
		s, err := chl.NewServer(path, 1024)
		if err != nil {
			panic(err)
		}
		defer s.Close()
		if err := s.SetShard(i, part); err != nil {
			panic(err)
		}
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		addrs[i] = ts.URL
	}

	r, err := chl.NewRouter(chl.RouterConfig{Manifest: m, Addrs: addrs, CacheSize: 1024})
	if err != nil {
		panic(err)
	}
	d, _ := r.Query(0, 63)
	fmt.Printf("d(0,63) = %g\n", d)
	fmt.Println("matches single process:", d == fx.Query(0, 63))
	// Output:
	// d(0,63) = 38
	// matches single process: true
}

package chl_test

// End-to-end coverage of compressed label streams: kernel parity
// against the fixed-width index on the agreement fixtures, save → heap /
// mmap load → thaw round trips for both directednesses, the on-disk
// savings bar, batch serving, and sharded routing over compressed shard
// files. The CI race job runs all of this under -race.

import (
	"bytes"
	"math/rand"
	"testing"

	chl "repro"
)

// compress returns the compressed sibling of fx.
func compress(t *testing.T, fx *chl.FlatIndex) *chl.FlatIndex {
	t.Helper()
	cfx, err := fx.Compress()
	if err != nil {
		t.Fatal(err)
	}
	if !cfx.Compressed() {
		t.Fatal("Compress returned an uncompressed index")
	}
	if cfx.Directed() != fx.Directed() {
		t.Fatal("Compress changed directedness")
	}
	if cfx.TotalLabels() != fx.TotalLabels() || cfx.NumVertices() != fx.NumVertices() {
		t.Fatalf("Compress changed shape: %d/%d labels, %d/%d vertices",
			cfx.TotalLabels(), fx.TotalLabels(), cfx.NumVertices(), fx.NumVertices())
	}
	return cfx
}

// kernelParity sweeps random pairs through every public kernel of cfx and
// requires bit-identical answers to fx.
func kernelParity(t *testing.T, fx, cfx *chl.FlatIndex, pairs int, seed int64) {
	t.Helper()
	n := fx.NumVertices()
	rng := rand.New(rand.NewSource(seed))
	s := cfx.NewScratch()
	for i := 0; i < pairs; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		want := fx.Query(u, v)
		if got := cfx.Query(u, v); got != want {
			t.Fatalf("compressed query(%d,%d) = %v, fixed-width says %v", u, v, got, want)
		}
		if got := cfx.QueryWith(s, u, v); got != want {
			t.Fatalf("compressed QueryWith(%d,%d) = %v, want %v", u, v, got, want)
		}
		wd, wh, wok := fx.QueryHub(u, v)
		gd, gh, gok := cfx.QueryHub(u, v)
		if gd != wd || gok != wok || (wok && gh != wh) {
			t.Fatalf("compressed QueryHub(%d,%d) = (%v,%d,%v), want (%v,%d,%v)", u, v, gd, gh, gok, wd, wh, wok)
		}
		sd, sh, sok := cfx.QueryHubWith(s, u, v)
		if sd != wd || sok != wok || (wok && sh != wh) {
			t.Fatalf("compressed QueryHubWith(%d,%d) = (%v,%d,%v), want (%v,%d,%v)", u, v, sd, sh, sok, wd, wh, wok)
		}
	}
}

// The compressed acceptance bar at the kernel level: on the undirected
// agreement fixtures, every kernel of the compressed index answers
// bit-identically to the fixed-width one.
func TestCompressedFlatParity(t *testing.T) {
	for name, g := range map[string]*chl.Graph{
		"scalefree": chl.GenerateScaleFree(600, 3, 1),
		"road":      chl.GenerateRoadGrid(24, 24, 2),
		"sparse":    chl.GenerateRandom(300, 200, 9, 3), // disconnected pairs exercise Infinity
	} {
		t.Run(name, func(t *testing.T) {
			_, fx := buildFrozen(t, g)
			kernelParity(t, fx, compress(t, fx), 1000, 7)
		})
	}
}

// Directed compressed parity: both label halves compress, and directed
// queries (both orders) stay exact.
func TestCompressedDirectedParity(t *testing.T) {
	for name, g := range directedFixtures() {
		t.Run(name, func(t *testing.T) {
			ix, fx := buildDirectedFrozen(t, g)
			cfx := compress(t, fx)
			if !cfx.Directed() {
				t.Fatal("compressed directed index reports undirected")
			}
			u0, v0 := findAsymmetricPair(t, ix)
			if cfx.Query(u0, v0) != ix.Query(u0, v0) || cfx.Query(v0, u0) != ix.Query(v0, u0) {
				t.Fatal("compressed index conflates the asymmetric pair's orders")
			}
			kernelParity(t, fx, cfx, 1500, 7)
		})
	}
}

// Freeze → save compressed → heap/mmap load → thaw on both
// directednesses. Also pins the acceptance bar: the compressed file is at
// least 25% smaller on disk than the fixed-width file of the same fixture.
func TestCompressedSaveLoadMmapThaw(t *testing.T) {
	type fixture struct {
		ix *chl.Index
		fx *chl.FlatIndex
	}
	fixtures := map[string]fixture{}
	{
		ix, fx := buildFrozen(t, chl.GenerateScaleFree(400, 3, 4))
		fixtures["undirected"] = fixture{ix, fx}
	}
	{
		ix, fx := buildDirectedFrozen(t, chl.GenerateRandomDirected(250, 1200, 9, 3))
		fixtures["directed"] = fixture{ix, fx}
	}
	for name, f := range fixtures {
		t.Run(name, func(t *testing.T) {
			cfx := compress(t, f.fx)
			var plain, comp bytes.Buffer
			if err := f.fx.Save(&plain); err != nil {
				t.Fatal(err)
			}
			if err := cfx.Save(&comp); err != nil {
				t.Fatal(err)
			}
			if comp.Len() > plain.Len()*3/4 {
				t.Fatalf("compressed file is %d bytes vs %d fixed-width — less than 25%% saved", comp.Len(), plain.Len())
			}
			path := t.TempDir() + "/ix.flat"
			if err := cfx.SaveFile(path); err != nil {
				t.Fatal(err)
			}
			heap, err := chl.LoadFlatFile(path)
			if err != nil {
				t.Fatal(err)
			}
			mapped, err := chl.OpenFlat(path)
			if err != nil {
				t.Fatal(err)
			}
			defer mapped.Close()
			if !mapped.Mapped() {
				t.Skip("mmap unavailable on this host")
			}
			for _, back := range []*chl.FlatIndex{heap, mapped} {
				if !back.Compressed() {
					t.Fatal("loaded compressed index reports uncompressed")
				}
				if back.Directed() != f.fx.Directed() {
					t.Fatal("loaded compressed index changed directedness")
				}
				if back.TotalLabels() != f.fx.TotalLabels() || back.NumVertices() != f.fx.NumVertices() {
					t.Fatalf("shape changed: %d/%d labels, %d/%d vertices",
						back.TotalLabels(), f.fx.TotalLabels(), back.NumVertices(), f.fx.NumVertices())
				}
			}
			if mapped.Prefault() == 0 {
				t.Error("Prefault walked 0 pages on a mapped compressed index")
			}
			th := heap.Thaw()
			n := f.fx.NumVertices()
			rng := rand.New(rand.NewSource(11))
			for i := 0; i < 1000; i++ {
				u, v := rng.Intn(n), rng.Intn(n)
				want := f.ix.Query(u, v)
				if heap.Query(u, v) != want {
					t.Fatalf("heap-loaded compressed index disagrees at (%d,%d)", u, v)
				}
				if mapped.Query(u, v) != want {
					t.Fatalf("mapped compressed index disagrees at (%d,%d)", u, v)
				}
				if th.Query(u, v) != want {
					t.Fatalf("thawed compressed index disagrees at (%d,%d)", u, v)
				}
			}
			// Decompress is the exact inverse of Compress.
			d := mapped.Decompress()
			if d.Compressed() {
				t.Fatal("Decompress returned a compressed index")
			}
			for i := 0; i < 200; i++ {
				u, v := rng.Intn(n), rng.Intn(n)
				if d.Query(u, v) != f.ix.Query(u, v) {
					t.Fatalf("decompressed index disagrees at (%d,%d)", u, v)
				}
			}
		})
	}
}

// The parallel batch engine serves a compressed index — cached and
// uncached — identically to the in-memory index.
func TestCompressedBatchEngine(t *testing.T) {
	g := chl.GenerateScaleFree(500, 3, 9)
	ix, fx := buildFrozen(t, g)
	cfx := compress(t, fx)
	for _, cached := range []bool{false, true} {
		eng := chl.NewBatchEngineFlat(cfx)
		if cached {
			eng.SetCache(chl.NewCache(1 << 12))
		}
		rng := rand.New(rand.NewSource(13))
		pairs := make([]chl.QueryPair, 5000)
		for i := range pairs {
			pairs[i] = chl.QueryPair{U: rng.Intn(500), V: rng.Intn(500)}
		}
		for round := 0; round < 2; round++ {
			dists := eng.Batch(pairs)
			for i, p := range pairs {
				if want := ix.Query(p.U, p.V); dists[i] != want {
					t.Fatalf("cached=%v round %d batch (%d,%d) = %v, want %v", cached, round, p.U, p.V, dists[i], want)
				}
			}
		}
		if cached {
			if st := eng.Cache().Stats(); st.Hits == 0 {
				t.Fatalf("cache unused on a compressed engine: %+v", st)
			}
		}
	}
}

// Sharded serving over compressed shard files: SaveShards of a compressed
// index writes compressed slices, every shard server loads and audits them, and
// the router answers byte-identically to the in-memory index — including
// cross-shard joins, which materialize packed rows out of compressed
// streams over /shardquery.
func TestCompressedShardedRouterParity(t *testing.T) {
	type fixture struct {
		ix *chl.Index
		fx *chl.FlatIndex
	}
	fixtures := map[string]fixture{}
	{
		ix, fx := buildFrozen(t, chl.GenerateScaleFree(300, 3, 5))
		fixtures["undirected"] = fixture{ix, fx}
	}
	{
		ix, fx := buildDirectedFrozen(t, chl.GenerateRandomDirected(260, 1300, 9, 8))
		fixtures["directed"] = fixture{ix, fx}
	}
	for name, f := range fixtures {
		t.Run(name, func(t *testing.T) {
			cfx := compress(t, f.fx)
			c := startCluster(t, cfx, 3, 1<<12)
			defer c.close()
			for i, s := range c.servers {
				if st := s.Stats(); !st.Compressed {
					t.Fatalf("shard %d does not report a compressed snapshot: %+v", i, st)
				}
			}
			n := f.fx.NumVertices()
			rng := rand.New(rand.NewSource(5))
			for i := 0; i < 800; i++ {
				u, v := rng.Intn(n), rng.Intn(n)
				got, err := c.router.Query(u, v)
				if err != nil {
					t.Fatalf("router query(%d,%d): %v", u, v, err)
				}
				if want := f.ix.Query(u, v); got != want {
					t.Fatalf("router over compressed shards: query(%d,%d) = %v, want %v", u, v, got, want)
				}
			}
			pairs := make([]chl.QueryPair, 400)
			for i := range pairs {
				pairs[i] = chl.QueryPair{U: rng.Intn(n), V: rng.Intn(n)}
			}
			dists, err := c.router.Batch(pairs)
			if err != nil {
				t.Fatal(err)
			}
			for i, p := range pairs {
				if want := f.ix.Query(p.U, p.V); dists[i] != want {
					t.Fatalf("batch (%d,%d) = %v, want %v", p.U, p.V, dists[i], want)
				}
			}
			if st := c.router.Stats(); st.CrossJoins == 0 {
				t.Fatal("no cross-shard joins exercised; fixture or partition degenerate")
			}
		})
	}
}

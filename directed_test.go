package chl_test

// Tests for directed flat serving end to end: freeze/save/mmap parity
// against the in-memory directed index, the ordered-pair answer cache
// (the (u,v)/(v,u) aliasing regression), backward-row /shardquery
// fetches, and router-vs-single-process parity on sharded and replicated
// directed clusters. The CI race job runs all of this under -race.

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	chl "repro"
	"repro/internal/label"
	"repro/internal/shard"
)

// buildDirectedFrozen builds a directed index (sequential PLL, the
// reference directed constructor) and freezes it.
func buildDirectedFrozen(t *testing.T, g *chl.Graph) (*chl.Index, *chl.FlatIndex) {
	t.Helper()
	if !g.Directed() {
		t.Fatal("fixture graph is not directed")
	}
	ix, err := chl.Build(g, chl.Options{Algorithm: chl.AlgoSeqPLL, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	fx, err := ix.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	if !fx.Directed() {
		t.Fatal("frozen directed index reports undirected")
	}
	return ix, fx
}

// findAsymmetricPair returns a pair with d(u→v) ≠ d(v→u) — the fixture
// property the ordered-cache regression tests depend on.
func findAsymmetricPair(t *testing.T, ix *chl.Index) (int, int) {
	t.Helper()
	n := ix.NumVertices()
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if ix.Query(u, v) != ix.Query(v, u) {
				return u, v
			}
		}
	}
	t.Fatal("fixture has no asymmetric pair; it does not exercise directedness")
	return 0, 0
}

// directedFixtures returns the graphs the parity tests sweep: a denser
// graph where most pairs connect and a sparse one where many queries hit
// the cached Dist == Infinity path.
func directedFixtures() map[string]*chl.Graph {
	return map[string]*chl.Graph{
		"dense":  chl.GenerateRandomDirected(350, 2100, 9, 1),
		"sparse": chl.GenerateRandomDirected(300, 420, 9, 2), // many unreachable pairs
	}
}

// The directed acceptance bar at the lowest layer: the flat index's
// Query and QueryHub answer byte-identically to the in-memory directed
// index, in both pair orders.
func TestDirectedFlatParity(t *testing.T) {
	for name, g := range directedFixtures() {
		t.Run(name, func(t *testing.T) {
			ix, fx := buildDirectedFrozen(t, g)
			findAsymmetricPair(t, ix) // fixture sanity
			n := g.NumVertices()
			rng := rand.New(rand.NewSource(7))
			unreachable := 0
			for i := 0; i < 1500; i++ {
				u, v := rng.Intn(n), rng.Intn(n)
				want := ix.Query(u, v)
				if want == chl.Infinity {
					unreachable++
				}
				if got := fx.Query(u, v); got != want {
					t.Fatalf("flat query(%d→%d) = %v, in-memory says %v", u, v, got, want)
				}
				fd, fh, fok := fx.QueryHub(u, v)
				wd, wh, wok := ix.QueryHub(u, v)
				if fd != wd || fok != wok || (wok && fh != wh) {
					t.Fatalf("flat QueryHub(%d→%d) = (%v,%d,%v), want (%v,%d,%v)", u, v, fd, fh, fok, wd, wh, wok)
				}
			}
			if name == "sparse" && unreachable == 0 {
				t.Fatal("sparse fixture produced no unreachable pairs")
			}
		})
	}
}

// Save → load (heap and mmap) must preserve directed answers exactly.
func TestDirectedFlatSaveLoadMmap(t *testing.T) {
	g := chl.GenerateRandomDirected(250, 1200, 9, 3)
	ix, fx := buildDirectedFrozen(t, g)
	var buf bytes.Buffer
	if err := fx.Save(&buf); err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/dix.flat"
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
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
	for _, back := range []*chl.FlatIndex{heap, mapped} {
		if !back.Directed() {
			t.Fatal("loaded directed index reports undirected")
		}
		if back.TotalLabels() != fx.TotalLabels() || back.NumVertices() != fx.NumVertices() {
			t.Fatalf("shape changed: %d/%d labels, %d/%d vertices",
				back.TotalLabels(), fx.TotalLabels(), back.NumVertices(), fx.NumVertices())
		}
	}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 1000; i++ {
		u, v := rng.Intn(250), rng.Intn(250)
		want := ix.Query(u, v)
		if heap.Query(u, v) != want {
			t.Fatalf("heap-loaded index disagrees at (%d→%d)", u, v)
		}
		if mapped.Query(u, v) != want {
			t.Fatalf("mapped index disagrees at (%d→%d)", u, v)
		}
	}
}

// The parallel batch engine over a directed index, cached and uncached,
// matches the in-memory index — including repeat pairs in both orders,
// which an unordered cache would conflate. The cache fronts single pairs
// only, so the cached rounds go through the engine's Query.
func TestDirectedBatchEngine(t *testing.T) {
	g := chl.GenerateRandomDirected(300, 1500, 9, 4)
	ix, fx := buildDirectedFrozen(t, g)
	u0, v0 := findAsymmetricPair(t, ix)
	eng := chl.NewBatchEngineFlat(fx)
	eng.SetCache(chl.NewDirectedCache(1 << 12))
	rng := rand.New(rand.NewSource(13))
	pairs := make([]chl.QueryPair, 4000)
	for i := range pairs {
		if i%10 == 0 { // salt with both orders of the asymmetric pair
			if i%20 == 0 {
				pairs[i] = chl.QueryPair{U: u0, V: v0}
			} else {
				pairs[i] = chl.QueryPair{U: v0, V: u0}
			}
			continue
		}
		pairs[i] = chl.QueryPair{U: rng.Intn(300), V: rng.Intn(300)}
	}
	dists := eng.Batch(pairs)
	for i, p := range pairs {
		if want := ix.Query(p.U, p.V); dists[i] != want {
			t.Fatalf("batch (%d→%d) = %v, want %v", p.U, p.V, dists[i], want)
		}
	}
	for round := 0; round < 3; round++ { // later rounds serve from cache
		for _, p := range pairs {
			if d, want := eng.Query(p.U, p.V), ix.Query(p.U, p.V); d != want {
				t.Fatalf("round %d query (%d→%d) = %v, want %v", round, p.U, p.V, d, want)
			}
		}
	}
	if st := eng.Cache().Stats(); st.Hits == 0 || !st.Directed {
		t.Fatalf("directed cache unused or mis-keyed: %+v", st)
	}
	// Single-query paths through the cache, both orders.
	if d := eng.Query(u0, v0); d != ix.Query(u0, v0) {
		t.Fatalf("cached engine query(%d→%d) = %v, want %v", u0, v0, d, ix.Query(u0, v0))
	}
	if d := eng.Query(v0, u0); d != ix.Query(v0, u0) {
		t.Fatalf("cached engine query(%d→%d) = %v, want %v", v0, u0, d, ix.Query(v0, u0))
	}
}

// The cache-key regression (ISSUE 5): an unordered cache in front of a
// directed index serves d(v→u) for d(u→v). The ordered cache must keep
// the two entries apart, and the serving tier must wire it in.
func TestDirectedCacheOrderedKeys(t *testing.T) {
	c := chl.NewDirectedCache(64)
	if !c.Directed() {
		t.Fatal("NewDirectedCache not directed")
	}
	c.Put(1, 2, chl.Answer{Dist: 7, Reachable: true})
	if _, hit := c.Get(2, 1); hit {
		t.Fatal("directed cache aliased (1,2) and (2,1)")
	}
	c.Put(2, 1, chl.Answer{Dist: 9, Reachable: true})
	a12, _ := c.Get(1, 2)
	a21, _ := c.Get(2, 1)
	if a12.Dist != 7 || a21.Dist != 9 {
		t.Fatalf("ordered entries collided: (1,2)=%v (2,1)=%v", a12.Dist, a21.Dist)
	}

	// The undirected cache keeps sharing entries (unchanged behavior).
	u := chl.NewCache(64)
	u.Put(1, 2, chl.Answer{Dist: 7, Reachable: true})
	if _, hit := u.Get(2, 1); !hit {
		t.Fatal("undirected cache no longer shares unordered entries")
	}

	// Wiring an unordered cache onto a directed engine is a programming
	// error the engine must refuse loudly.
	g := chl.GenerateRandomDirected(40, 160, 5, 5)
	_, fx := buildDirectedFrozen(t, g)
	eng := chl.NewBatchEngineFlat(fx)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("SetCache accepted an unordered cache on a directed engine")
			}
		}()
		eng.SetCache(chl.NewCache(64))
	}()
}

// End-to-end regression on an asymmetric fixture: a cached Server over a
// directed index must answer (u,v) and then (v,u) each exactly, in both
// query orders — the aliasing the unordered pairKey would have caused.
func TestDirectedServerCacheRegression(t *testing.T) {
	g := chl.GenerateRandomDirected(200, 900, 9, 6)
	ix, fx := buildDirectedFrozen(t, g)
	u, v := findAsymmetricPair(t, ix)
	s := chl.NewServerFromFlat(fx, 1<<12)
	defer s.Close()
	// Warm (u,v) first so a mis-keyed cache would serve it for (v,u).
	for round := 0; round < 2; round++ {
		if d := s.Query(u, v); d != ix.Query(u, v) {
			t.Fatalf("server query(%d→%d) = %v, want %v", u, v, d, ix.Query(u, v))
		}
		if d := s.Query(v, u); d != ix.Query(v, u) {
			t.Fatalf("server query(%d→%d) = %v, want %v (cache served the reversed pair?)", v, u, d, ix.Query(v, u))
		}
	}
	if st := s.Stats(); !st.Directed || st.Cache == nil || !st.Cache.Directed || st.Cache.Hits == 0 {
		t.Fatalf("server stats do not show a hit directed cache: %+v", st)
	}
}

// The directed tentpole acceptance: build → freeze → split → serve →
// route. The router over 3 directed shard servers answers byte-identically
// to both the flat engine and the in-memory directed index, for single
// queries (both orders, witness hubs) and batches, with unreachable pairs
// exercising the cached-Infinity path.
func TestDirectedRouterParity(t *testing.T) {
	for name, g := range directedFixtures() {
		t.Run(name, func(t *testing.T) {
			ix, fx := buildDirectedFrozen(t, g)
			u0, v0 := findAsymmetricPair(t, ix)
			c := startCluster(t, fx, 3, 1<<12)
			defer c.close()
			if !c.manifest.Directed {
				t.Fatal("split manifest of a directed index not marked directed")
			}
			if !c.router.Directed() {
				t.Fatal("router over a directed manifest reports undirected")
			}
			n := fx.NumVertices()
			rng := rand.New(rand.NewSource(5))

			for i := 0; i < 1200; i++ {
				u, v := rng.Intn(n), rng.Intn(n)
				if i%50 == 0 {
					u, v = u0, v0 // salt both orders of the asymmetric pair
				} else if i%50 == 1 {
					u, v = v0, u0
				}
				got, err := c.router.Query(u, v)
				if err != nil {
					t.Fatalf("router query(%d→%d): %v", u, v, err)
				}
				want := ix.Query(u, v)
				if got != want || fx.Query(u, v) != want {
					t.Fatalf("router query(%d→%d) = %v, want %v", u, v, got, want)
				}
				gd, gh, gok, err := c.router.QueryHub(u, v)
				if err != nil {
					t.Fatal(err)
				}
				wd, wh, wok := ix.QueryHub(u, v)
				if gd != wd || gok != wok || (gok && gh != wh) {
					t.Fatalf("router QueryHub(%d→%d) = (%v,%d,%v), want (%v,%d,%v)", u, v, gd, gh, gok, wd, wh, wok)
				}
			}
			for round := 0; round < 4; round++ {
				pairs := make([]chl.QueryPair, 300)
				for i := range pairs {
					pairs[i] = chl.QueryPair{U: rng.Intn(n), V: rng.Intn(n)}
				}
				pairs[0] = chl.QueryPair{U: u0, V: v0}
				pairs[1] = chl.QueryPair{U: v0, V: u0}
				dists, err := c.router.Batch(pairs)
				if err != nil {
					t.Fatal(err)
				}
				for i, p := range pairs {
					if want := ix.Query(p.U, p.V); dists[i] != want {
						t.Fatalf("round %d batch (%d→%d) = %v, want %v", round, p.U, p.V, dists[i], want)
					}
				}
			}
			st := c.router.Stats()
			if st.CrossJoins == 0 {
				t.Fatal("no cross-shard joins exercised; fixture or partition degenerate")
			}
			if !st.Directed || st.Cache == nil || !st.Cache.Directed {
				t.Fatalf("router stats not directed: %+v", st.Cache)
			}
		})
	}
}

// Replicated directed serving: a directed cluster with a replica group
// still answers byte-identically, including after one replica of each
// group goes down (failover must preserve ordered semantics).
func TestDirectedReplicatedRouterParity(t *testing.T) {
	g := chl.GenerateRandomDirected(260, 1300, 9, 8)
	ix, fx := buildDirectedFrozen(t, g)
	u0, v0 := findAsymmetricPair(t, ix)
	dir := t.TempDir()
	m, err := fx.SaveShards(dir, 2, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	part, err := m.Partition()
	if err != nil {
		t.Fatal(err)
	}
	groups := make([][]string, 2)
	var backends []*httptest.Server
	var servers []*chl.Server
	defer func() {
		for _, ts := range backends {
			ts.Close()
		}
		for _, s := range servers {
			s.Close()
		}
	}()
	for sid := 0; sid < 2; sid++ {
		path, err := chl.ShardFilePath(dir+"/"+shard.ManifestName, m, sid)
		if err != nil {
			t.Fatal(err)
		}
		for rep := 0; rep < 2; rep++ { // two replicas per shard
			s, err := chl.NewServer(path, 1024)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.SetShard(sid, part); err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(s.Handler())
			servers = append(servers, s)
			backends = append(backends, ts)
			groups[sid] = append(groups[sid], ts.URL)
		}
	}
	r, err := chl.NewRouter(chl.RouterConfig{Manifest: m, ReplicaAddrs: groups, CacheSize: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	check := func(stage string, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		n := fx.NumVertices()
		for i := 0; i < 400; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if i == 0 {
				u, v = u0, v0
			} else if i == 1 {
				u, v = v0, u0
			}
			got, err := r.Query(u, v)
			if err != nil {
				t.Fatalf("%s: router query(%d→%d): %v", stage, u, v, err)
			}
			if want := ix.Query(u, v); got != want {
				t.Fatalf("%s: router query(%d→%d) = %v, want %v", stage, u, v, got, want)
			}
		}
	}
	check("all replicas up", 21)
	// Kill replica 0 of each shard; the router must fail over with the
	// same ordered answers.
	backends[0].Close()
	backends[2].Close()
	check("one replica per shard down", 22)
}

// /shardquery backward rows: a directed shard returns the backward run
// of an owned vertex, and joining it against the forward run answers the
// exact directed distance — the protocol the router's cross-shard path
// relies on.
func TestDirectedShardQueryBackwardRows(t *testing.T) {
	g := chl.GenerateRandomDirected(220, 1100, 9, 9)
	ix, fx := buildDirectedFrozen(t, g)
	c := startCluster(t, fx, 2, 0)
	defer c.close()
	part, err := c.manifest.Partition()
	if err != nil {
		t.Fatal(err)
	}
	n := fx.NumVertices()
	// A cross-shard pair.
	u, v := -1, -1
	for a := 0; a < n && u < 0; a++ {
		for b := 0; b < n; b++ {
			if part.Owner(a) != part.Owner(b) {
				u, v = a, b
				break
			}
		}
	}
	if u < 0 {
		t.Fatal("no cross-shard pair; fixture degenerate")
	}
	fetch := func(sid int, body string) map[string]any {
		resp, err := http.Post(c.backends[sid].URL+"/shardquery", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b, _ := io.ReadAll(resp.Body)
			t.Fatalf("shardquery: %d %s", resp.StatusCode, b)
		}
		var m map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
			t.Fatal(err)
		}
		return m
	}
	mu := fetch(part.Owner(u), fmt.Sprintf(`{"vertices":[%d]}`, u))
	mv := fetch(part.Owner(v), fmt.Sprintf(`{"backward":[%d]}`, v))
	if mu["directed"] != true || mv["directed"] != true {
		t.Fatalf("shardquery responses not marked directed: %v / %v", mu["directed"], mv["directed"])
	}
	decodeRow := func(m map[string]any, field, key string) []uint64 {
		rows, ok := m[field].(map[string]any)
		if !ok {
			t.Fatalf("response lacks %s: %v", field, m)
		}
		enc, ok := rows[key].(string)
		if !ok {
			t.Fatalf("%s lacks row %s: %v", field, key, rows)
		}
		b, err := base64.StdEncoding.DecodeString(enc)
		if err != nil {
			t.Fatal(err)
		}
		run, err := label.ParsePackedRun(b, n)
		if err != nil {
			t.Fatal(err)
		}
		return run
	}
	fwdU := decodeRow(mu, "rows", fmt.Sprint(u))
	bwdV := decodeRow(mv, "back_rows", fmt.Sprint(v))
	d, _, ok := label.JoinPacked(fwdU, bwdV)
	want := ix.Query(u, v)
	if want == chl.Infinity {
		if ok {
			t.Fatalf("join of unreachable pair (%d→%d) returned %v", u, v, d)
		}
	} else if !ok || d != want {
		t.Fatalf("join of fetched rows (%d→%d) = %v,%v, want %v", u, v, d, ok, want)
	}
}

// An undirected shard file cannot be reloaded into a directed cluster
// slot (and vice versa): the slice's directedness is pinned at SetShard.
func TestDirectedShardReloadRejectsUndirectedFile(t *testing.T) {
	g := chl.GenerateRandomDirected(150, 700, 9, 10)
	_, fx := buildDirectedFrozen(t, g)
	c := startCluster(t, fx, 2, 0)
	defer c.close()
	// An undirected flat file over the SAME vertex count.
	ug := chl.GenerateRandom(150, 400, 9, 3)
	ufx, _ := buildFlat(t, ug)
	path := t.TempDir() + "/undirected.flat"
	if err := ufx.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := c.servers[0].Reload(path); err == nil {
		t.Fatal("directed shard reloaded an undirected file")
	} else if !strings.Contains(err.Error(), "directed") {
		t.Fatalf("rejection does not name directedness: %v", err)
	}
}

// A shard file counting another unit cannot be reloaded into a cluster
// slot either: the slice's unit exponent is pinned at SetShard, and the
// refused reload leaves the generation where it was.
func TestShardReloadRejectsOtherUnit(t *testing.T) {
	g := chl.GenerateRoadGrid(8, 8, 1)
	fx, _ := buildFlat(t, g)
	c := startCluster(t, fx, 2, 0)
	defer c.close()
	// The same grid with every weight ÷4 (unit 2^-2), split the same way.
	qfx, _ := buildFlat(t, mapWeights(g, func(w float64) float64 { return w / 4 }))
	part, err := c.manifest.Partition()
	if err != nil {
		t.Fatal(err)
	}
	slice, err := qfx.Shard(part, 0)
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/quarters.flat"
	if err := slice.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	before := c.servers[0].Stats().Generation
	if _, err := c.servers[0].Reload(path); err == nil {
		t.Fatal("shard reloaded a slice counting quarter units")
	} else if !strings.Contains(err.Error(), "2^-2") {
		t.Fatalf("rejection does not name the unit: %v", err)
	}
	if after := c.servers[0].Stats().Generation; after != before {
		t.Fatalf("refused reload moved the generation %d -> %d", before, after)
	}
}

// A router whose manifest says directed must reject answers from shards
// serving undirected slices — on the same-shard forward path too, where
// the symmetric answer would otherwise be cached as d(u→v) silently.
func TestRouterRejectsDirectednessDrift(t *testing.T) {
	g := chl.GenerateScaleFree(150, 3, 11)
	fx, _ := buildFlat(t, g) // undirected cluster actually serving
	c := startCluster(t, fx, 2, 0)
	defer c.close()
	part, err := c.manifest.Partition()
	if err != nil {
		t.Fatal(err)
	}
	// A manifest claiming the same cluster is directed.
	lied := *c.manifest
	lied.Directed = true
	addrs := make([]string, len(c.backends))
	for i, ts := range c.backends {
		addrs[i] = ts.URL
	}
	r, err := chl.NewRouter(chl.RouterConfig{Manifest: &lied, Addrs: addrs})
	if err != nil {
		t.Fatal(err)
	}
	// A same-shard pair (the path that bypasses /shardquery entirely).
	u, v := -1, -1
	for a := 0; a < 150 && u < 0; a++ {
		for b := a + 1; b < 150; b++ {
			if part.Owner(a) == part.Owner(b) {
				u, v = a, b
				break
			}
		}
	}
	if _, err := r.Query(u, v); err == nil || !strings.Contains(err.Error(), "directed") {
		t.Fatalf("same-shard query through drifted cluster: err = %v, want a directedness mismatch", err)
	}
	// And the batch forward path.
	if _, err := r.Batch([]chl.QueryPair{{U: u, V: v}}); err == nil || !strings.Contains(err.Error(), "directed") {
		t.Fatalf("same-shard batch through drifted cluster: err = %v, want a directedness mismatch", err)
	}
}

// The 400-body contract (ISSUE 5 satellite): for malformed and
// out-of-range /dist and /batch requests the router must produce
// byte-identical JSON error bodies to the shard tier's single-process
// server — one schema, no matter which tier rejects.
func TestRouter400BodiesMatchShardTier(t *testing.T) {
	g := chl.GenerateScaleFree(120, 3, 3)
	fx, _ := buildFlat(t, g)
	c := startCluster(t, fx, 2, 0)
	defer c.close()
	single := chl.NewServerFromFlat(fx, 0)
	defer single.Close()
	singleTS := httptest.NewServer(single.Handler())
	defer singleTS.Close()
	routerTS := httptest.NewServer(c.router.Handler())
	defer routerTS.Close()

	get := func(base, path string) (int, string) {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}
	post := func(base, path, body string) (int, string) {
		resp, err := http.Post(base+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}
	for _, path := range []string{
		"/dist",               // missing params
		"/dist?u=a&v=2",       // malformed
		"/dist?u=1&v=120",     // out of range (n=120)
		"/dist?u=-5&v=2",      // negative
		"/dist?u=9999&v=9999", // far out of range
	} {
		rc, rb := get(routerTS.URL, path)
		sc, sb := get(singleTS.URL, path)
		if rc != http.StatusBadRequest || sc != http.StatusBadRequest {
			t.Fatalf("GET %s: router %d, shard tier %d, want 400/400", path, rc, sc)
		}
		if rb != sb {
			t.Errorf("GET %s: router 400 body %q != shard tier body %q", path, rb, sb)
		}
	}
	// Bodies encoding/json would decode into a quietly wrong request — null
	// where an id belongs reads as vertex 0, bytes after the first value are
	// never looked at — are 400s too, beside the plainly malformed ones.
	for path, bodies := range map[string][]string{
		"/batch": {
			`[[1,2,3]]`, `[[1,500]]`, `{"no":"pairs"}`, `[[1,-1]]`,
			`[[3,null]]`, `[[null,null]]`, `null`, `[[1,2]] trailing garbage`, `[[1,2]]]`,
			`[[1.5,2]]`, `[[1e2,2]]`, `[[01,2]]`, `[[9223372036854775808,2]]`, `[[1,2]`, ``,
		},
		"/matrix": {
			`{"sources":[3,null],"targets":[null]}`, `{"sources":null,"targets":[4]}`,
			`{"sources":[3],"targets":[4]} trailing garbage`, `{"sources":[3],"targets":[4]}}`,
			`{"sources":[1.5],"targets":[4]}`, `{"sources":[3],"targets":[1e2]}`, `{"sources":[03],"targets":[4]}`,
			`{"sources":[9223372036854775808],"targets":[4]}`, `{"sources":[3],"targets":[500]}`,
			`{"sources":[],"targets":[4]}`, `{"sources":[3],"targets":[4]`, `[[3],[4]]`, ``,
		},
	} {
		for _, body := range bodies {
			rc, rb := post(routerTS.URL, path, body)
			sc, sb := post(singleTS.URL, path, body)
			if rc != http.StatusBadRequest || sc != http.StatusBadRequest {
				t.Fatalf("POST %s %q: router %d, shard tier %d, want 400/400", path, body, rc, sc)
			}
			if rb != sb {
				t.Errorf("POST %s %q: router 400 body %q != shard tier body %q", path, body, rb, sb)
			}
			if !strings.HasPrefix(rb, `{"error":"`) {
				t.Errorf("POST %s %q: 400 body %q is not the {\"error\":...} schema", path, body, rb)
			}
		}
	}
	// The strict grammar still takes white space wherever JSON allows it.
	for path, body := range map[string]string{
		"/batch":  " [ [ 1 , 2 ] ,\n[ 3 , -0 ] ]\t\r\n",
		"/matrix": " { \"sources\" : [ 1 , 2 ] , \"targets\" : [ 3 , -0 ] }\n",
	} {
		rc, rb := post(routerTS.URL, path, body)
		sc, sb := post(singleTS.URL, path, body)
		if rc != http.StatusOK || sc != http.StatusOK || rb != sb {
			t.Errorf("POST %s %q: router %d %q, shard tier %d %q, want the same 200", path, body, rc, rb, sc, sb)
		}
	}
}

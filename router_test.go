package chl_test

// Tests for the sharded serving tier: shard-split/merge parity (the
// router + N in-process shard servers must answer byte-identically to the
// single-process engine on the agreement fixtures), reload-under-load on
// one shard, partial-failure degradation, shard ownership enforcement,
// and the Prometheus /metrics endpoints.

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	chl "repro"
	"repro/internal/shard"
)

// cluster is an in-process shard cluster: N shard Servers behind httptest
// listeners, plus the Router fronting them.
type cluster struct {
	router   *chl.Router
	servers  []*chl.Server
	backends []*httptest.Server
	manifest *shard.Manifest
	dir      string
}

func (c *cluster) close() {
	for _, ts := range c.backends {
		ts.Close()
	}
	for _, s := range c.servers {
		s.Close()
	}
}

// buildFlat builds and freezes an index over g.
func buildFlat(t *testing.T, g *chl.Graph) (*chl.FlatIndex, *chl.Index) {
	t.Helper()
	ix, err := chl.Build(g, chl.Options{Algorithm: chl.AlgoGLL, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	fx, err := ix.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	return fx, ix
}

// startCluster splits fx into k shards under a temp dir and starts the
// full serving topology — an adapter over the shared newTestCluster
// fixture, flattening its per-shard replica groups (one replica each
// here) into the flat slices this file's tests index.
func startCluster(t *testing.T, fx *chl.FlatIndex, k, cacheSize int) *cluster {
	t.Helper()
	tc := newTestCluster(t, fx, clusterSpec{shards: k, cacheSize: cacheSize})
	c := &cluster{router: tc.router, servers: tc.servers, manifest: tc.manifest, dir: tc.dir}
	for _, group := range tc.backends {
		c.backends = append(c.backends, group...)
	}
	return c
}

// The tentpole acceptance: the router over 3 shard servers answers
// byte-identically to the single-process flat index on the agreement
// fixtures, for both single queries (with witness hubs) and batches.
func TestRouterParityWithSingleProcess(t *testing.T) {
	for name, g := range map[string]*chl.Graph{
		"scalefree": chl.GenerateScaleFree(500, 3, 1),
		"road":      chl.GenerateRoadGrid(22, 22, 2),
		"sparse":    chl.GenerateRandom(300, 200, 9, 3), // disconnected pairs exercise Infinity
	} {
		t.Run(name, func(t *testing.T) {
			fx, ix := buildFlat(t, g)
			c := startCluster(t, fx, 3, 1<<12)
			defer c.close()
			n := fx.NumVertices()
			rng := rand.New(rand.NewSource(5))

			var cross int
			for i := 0; i < 1500; i++ {
				u, v := rng.Intn(n), rng.Intn(n)
				got, err := c.router.Query(u, v)
				if err != nil {
					t.Fatalf("router query(%d,%d): %v", u, v, err)
				}
				if want := fx.Query(u, v); got != want {
					t.Fatalf("router query(%d,%d) = %v, want %v", u, v, got, want)
				}
				gd, gh, gok, err := c.router.QueryHub(u, v)
				if err != nil {
					t.Fatal(err)
				}
				wd, wh, wok := fx.QueryHub(u, v)
				if gd != wd || gok != wok || (gok && gh != wh) {
					t.Fatalf("router QueryHub(%d,%d) = (%v,%d,%v), want (%v,%d,%v)", u, v, gd, gh, gok, wd, wh, wok)
				}
				if ix.Query(u, v) != fx.Query(u, v) {
					t.Fatalf("fixture self-check failed at (%d,%d)", u, v)
				}
			}

			// Batches, sized to mix cache hits, direct routes and joins.
			for round := 0; round < 5; round++ {
				pairs := make([]chl.QueryPair, 400)
				for i := range pairs {
					pairs[i] = chl.QueryPair{U: rng.Intn(n), V: rng.Intn(n)}
				}
				dists, err := c.router.Batch(pairs)
				if err != nil {
					t.Fatal(err)
				}
				for i, p := range pairs {
					if want := fx.Query(p.U, p.V); dists[i] != want {
						t.Fatalf("round %d batch (%d,%d) = %v, want %v", round, p.U, p.V, dists[i], want)
					}
				}
			}
			if st := c.router.Stats(); st.CrossJoins == 0 {
				t.Fatal("no cross-shard joins exercised; fixture or partition degenerate")
			} else {
				cross += int(st.CrossJoins)
			}
			_ = cross
		})
	}
}

// The router's HTTP surface must return the same bodies as a
// single-process server for /batch (modulo the routing-internal
// generation field), including the -1 encoding of unreachable pairs.
func TestRouterHTTPParity(t *testing.T) {
	g := chl.GenerateRandom(250, 150, 9, 3)
	fx, _ := buildFlat(t, g)
	c := startCluster(t, fx, 3, 1024)
	defer c.close()

	single := chl.NewServerFromFlat(fx, 1024)
	// Note: fx is now owned by single; c's shard files are independent.
	defer single.Close()
	singleTS := httptest.NewServer(single.Handler())
	defer singleTS.Close()
	routerTS := httptest.NewServer(c.router.Handler())
	defer routerTS.Close()

	rng := rand.New(rand.NewSource(9))
	var body strings.Builder
	body.WriteString("[")
	for i := 0; i < 300; i++ {
		if i > 0 {
			body.WriteString(",")
		}
		fmt.Fprintf(&body, "[%d,%d]", rng.Intn(250), rng.Intn(250))
	}
	body.WriteString("]")

	post := func(url string) []any {
		resp, err := http.Post(url+"/batch", "application/json", strings.NewReader(body.String()))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b, _ := io.ReadAll(resp.Body)
			t.Fatalf("POST %s/batch: %d %s", url, resp.StatusCode, b)
		}
		var m map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
			t.Fatal(err)
		}
		return m["dists"].([]any)
	}
	got, want := post(routerTS.URL), post(singleTS.URL)
	if len(got) != len(want) {
		t.Fatalf("router answered %d dists, single process %d", len(got), len(want))
	}
	for i := range got {
		if got[i].(float64) != want[i].(float64) {
			t.Fatalf("dist %d: router %v, single %v", i, got[i], want[i])
		}
	}
}

// Reload-under-load on one shard: workers hammer the router while shard 1
// hot-swaps its (identical) file repeatedly. Zero dropped queries, every
// answer byte-identical to the single-process engine — and zero cache
// resets: the generations move but the snapshot content hash does not,
// so retiring the cache would be pure waste (the deferred PR 2/3
// durable-identity item).
func TestRouterReloadUnderLoad(t *testing.T) {
	g := chl.GenerateScaleFree(400, 3, 4)
	fx, _ := buildFlat(t, g)
	c := startCluster(t, fx, 3, 1<<12)
	defer c.close()
	n := fx.NumVertices()

	var (
		stop    atomic.Bool
		dropped atomic.Int64
		wrong   atomic.Int64
		wg      sync.WaitGroup
	)
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			pairs := make([]chl.QueryPair, 24)
			for !stop.Load() {
				u, v := rng.Intn(n), rng.Intn(n)
				d, err := c.router.Query(u, v)
				if err != nil {
					dropped.Add(1)
					continue
				}
				if d != fx.Query(u, v) {
					wrong.Add(1)
				}
				for i := range pairs {
					pairs[i] = chl.QueryPair{U: rng.Intn(n), V: rng.Intn(n)}
				}
				ds, err := c.router.Batch(pairs)
				if err != nil {
					dropped.Add(int64(len(pairs)))
					continue
				}
				for i, p := range pairs {
					if ds[i] != fx.Query(p.U, p.V) {
						wrong.Add(1)
					}
				}
			}
		}(w)
	}
	for i := 0; i < 20; i++ {
		if _, err := c.servers[1].Reload(""); err != nil {
			t.Errorf("shard reload %d: %v", i, err)
		}
	}
	// A couple more through the router's proxy endpoint.
	routerTS := httptest.NewServer(c.router.Handler())
	defer routerTS.Close()
	for i := 0; i < 2; i++ {
		resp, err := http.Post(routerTS.URL+"/reload?shard=1", "application/json", nil)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			b, _ := io.ReadAll(resp.Body)
			t.Errorf("proxied reload: %d %s", resp.StatusCode, b)
		}
		resp.Body.Close()
	}
	stop.Store(true)
	wg.Wait()
	if d := dropped.Load(); d > 0 {
		t.Fatalf("%d queries dropped during shard reloads", d)
	}
	if w := wrong.Load(); w > 0 {
		t.Fatalf("%d answers diverged from the single-process engine", w)
	}
	if st := c.servers[1].Stats(); st.Reloads != 22 {
		t.Fatalf("shard 1 reports %d reloads, want 22", st.Reloads)
	}
	if st := c.router.Stats(); st.CacheResets != 0 {
		t.Fatalf("router retired its cache %d times on same-content reloads; the content hash should have kept it", st.CacheResets)
	}
}

// A shard process restart is invisible to generation counters (they
// start over at 1), but not to the per-process epoch — and the content
// hash then decides what the restart costs. Same slice file: the router
// adopts the new identity and keeps its cache (a coordinated restart
// must not flush the cluster's cache). Different content: the cache
// retires exactly once.
func TestRouterDetectsShardRestart(t *testing.T) {
	g := chl.GenerateScaleFree(300, 3, 5)
	fx, _ := buildFlat(t, g)
	c := startCluster(t, fx, 2, 1<<12)
	defer c.close()
	n := fx.NumVertices()

	warm := func(seed int64) {
		pairs := make([]chl.QueryPair, 200)
		rng := rand.New(rand.NewSource(seed))
		for i := range pairs {
			pairs[i] = chl.QueryPair{U: rng.Intn(n), V: rng.Intn(n)}
		}
		ds, err := c.router.Batch(pairs)
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range pairs {
			if ds[i] != fx.Query(p.U, p.V) {
				t.Fatalf("batch (%d,%d) = %v, want %v", p.U, p.V, ds[i], fx.Query(p.U, p.V))
			}
		}
	}
	warm(1)
	warm(1) // second pass serves from cache
	st := c.router.Stats()
	// First-contact observations adopt shard identities without retiring
	// the cache, so the very first batch's answers must have been cached.
	if st.Cache == nil || st.Cache.Hits < 200 {
		t.Fatalf("second identical batch should be all cache hits, stats: %+v", st.Cache)
	}
	before := st.CacheResets

	// "Restart" shard 1: a brand-new Server process over the same file
	// (fresh epoch, generation back to 1) behind the same address.
	part, _ := c.manifest.Partition()
	path, _ := chl.ShardFilePath(c.dir+"/"+shard.ManifestName, c.manifest, 1)
	fresh, err := chl.NewServer(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	if err := fresh.SetShard(1, part); err != nil {
		t.Fatal(err)
	}
	c.backends[1].Config.Handler = fresh.Handler()

	// Fresh pairs force real shard contact (identity tracking is lazy: a
	// request served entirely from the router cache touches no shard).
	// The restarted process answers under a new epoch but the same
	// content hash, so the router adopts the identity WITHOUT retiring
	// the cache.
	warm(2)
	if after := c.router.Stats().CacheResets; after != before {
		t.Fatalf("router cache resets %d -> %d on a same-content restart; the content hash should have kept the cache", before, after)
	}
	// And the cache is genuinely alive: the warmed answers still hit.
	hits := c.router.Stats().Cache.Hits
	warm(2)
	if got := c.router.Stats().Cache.Hits; got < hits+200 {
		t.Fatalf("cache hits %d -> %d; the kept cache should have served the repeat batch", hits, got)
	}

}

// The other half of content-hash identity: a reload that really does
// change the bytes must retire the router cache — exactly once, however
// much traffic races it. One shard, so the swap to a different labeling
// of the same graph keeps every answer exact while changing the hash.
func TestRouterContentChangeRetiresCache(t *testing.T) {
	g := chl.GenerateScaleFree(300, 3, 5)
	fx, _ := buildFlat(t, g)
	c := startCluster(t, fx, 1, 1<<12)
	defer c.close()
	n := fx.NumVertices()

	warm := func(seed int64) {
		pairs := make([]chl.QueryPair, 200)
		rng := rand.New(rand.NewSource(seed))
		for i := range pairs {
			pairs[i] = chl.QueryPair{U: rng.Intn(n), V: rng.Intn(n)}
		}
		ds, err := c.router.Batch(pairs)
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range pairs {
			if ds[i] != fx.Query(p.U, p.V) {
				t.Fatalf("batch (%d,%d) = %v, want %v", p.U, p.V, ds[i], fx.Query(p.U, p.V))
			}
		}
	}
	warm(1)
	before := c.router.Stats().CacheResets

	// The same graph labeled under a different hierarchy: identical
	// distances (any CHL is exact), different label bytes, different
	// content hash.
	ix2, err := chl.Build(g, chl.Options{Algorithm: chl.AlgoSeqPLL, Order: chl.RankRandom(n, 7)})
	if err != nil {
		t.Fatal(err)
	}
	fx2, err := ix2.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	if fx2.ContentHash() == fx.ContentHash() {
		t.Fatal("test needs two builds with different bytes; got identical content hashes")
	}
	dir2 := t.TempDir()
	if _, err := fx2.SaveShards(dir2, 1, 64, 1); err != nil {
		t.Fatal(err)
	}
	path2, err := chl.ShardFilePath(dir2+"/"+shard.ManifestName, c.manifest, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.servers[0].Reload(path2); err != nil {
		t.Fatal(err)
	}
	warm(2) // fresh pairs force shard contact; answers stay exact
	if after := c.router.Stats().CacheResets; after != before+1 {
		t.Fatalf("router cache resets %d -> %d after a content change; want exactly one retirement", before, after)
	}
}

// A routed pair costs one shard request per shard it touches: a
// same-shard QueryHub is forwarded whole, a cross-shard one fetches the
// two rows and reads the witness id off u's — no third round trip, on
// undirected and directed clusters alike.
func TestRouterShardRequestsPerQuery(t *testing.T) {
	for name, g := range map[string]*chl.Graph{
		"undirected": chl.GenerateScaleFree(300, 3, 5),
		"directed":   chl.GenerateRandomDirected(300, 1500, 9, 4),
	} {
		t.Run(name, func(t *testing.T) {
			var fx *chl.FlatIndex
			if g.Directed() {
				_, fx = buildDirectedFrozen(t, g)
			} else {
				fx, _ = buildFlat(t, g)
			}
			c := newTestCluster(t, fx, clusterSpec{shards: 2}) // cache off: every query reaches a shard
			defer c.close()
			requests := func() (sum int64) {
				for _, sh := range c.router.Stats().Shards {
					for _, rs := range sh.Replicas {
						sum += rs.Requests
					}
				}
				return sum
			}
			n := fx.NumVertices()
			seen := map[int64]int{}
			for u := 0; u < n; u += 3 {
				v := (u*31 + 5) % n
				want := int64(1)
				if c.part.Owner(u) != c.part.Owner(v) {
					want = 2
				}
				before := requests()
				d, hub, ok, err := c.router.QueryHub(u, v)
				if err != nil {
					t.Fatal(err)
				}
				if wd, wh, wok := fx.QueryHub(u, v); d != wd || ok != wok || ok && hub != wh {
					t.Fatalf("QueryHub(%d,%d) = (%v,%d,%v), want (%v,%d,%v)", u, v, d, hub, ok, wd, wh, wok)
				}
				if got := requests() - before; got != want {
					t.Fatalf("QueryHub(%d,%d) cost %d shard requests, want %d", u, v, got, want)
				}
				seen[want]++
			}
			if seen[1] == 0 || seen[2] == 0 {
				t.Fatalf("fixture degenerate: %d same-shard and %d cross-shard pairs", seen[1], seen[2])
			}
		})
	}
}

// After the shards reload onto a build with a different rank order, a
// cross-shard witness is the new file's: the id comes from the snapshot
// that served u's row, never from a permutation remembered from before.
func TestRouterWitnessAfterReorderedReload(t *testing.T) {
	g := chl.GenerateScaleFree(300, 3, 5)
	fx, _ := buildFlat(t, g)
	c := newTestCluster(t, fx, clusterSpec{shards: 2})
	defer c.close()
	n := fx.NumVertices()

	ix2, err := chl.Build(g, chl.Options{Algorithm: chl.AlgoSeqPLL, Order: chl.RankRandom(n, 7)})
	if err != nil {
		t.Fatal(err)
	}
	fx2, err := ix2.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	dir2 := t.TempDir()
	if _, err := fx2.SaveShards(dir2, 2, 64, 1); err != nil {
		t.Fatal(err)
	}
	var pairs [][2]int
	for u := 0; u < n; u += 3 {
		if v := (u*31 + 5) % n; c.part.Owner(u) != c.part.Owner(v) {
			pairs = append(pairs, [2]int{u, v})
		}
	}
	check := func(want *chl.FlatIndex) (moved int) {
		t.Helper()
		for _, p := range pairs {
			d, hub, ok, err := c.router.QueryHub(p[0], p[1])
			if err != nil {
				t.Fatal(err)
			}
			wd, wh, wok := want.QueryHub(p[0], p[1])
			if d != wd || ok != wok || ok && hub != wh {
				t.Fatalf("QueryHub(%d,%d) = (%v,%d,%v), want (%v,%d,%v)", p[0], p[1], d, hub, ok, wd, wh, wok)
			}
			if _, oh, _ := fx.QueryHub(p[0], p[1]); ok && oh != wh {
				moved++
			}
		}
		return moved
	}
	check(fx)
	for sid, s := range c.servers {
		path, err := chl.ShardFilePath(dir2+"/"+shard.ManifestName, c.manifest, sid)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Reload(path); err != nil {
			t.Fatal(err)
		}
	}
	if moved := check(fx2); moved == 0 {
		t.Fatal("fixture degenerate: the reordered build picks the same witnesses")
	}
}

// The /reload proxy must escape the path it forwards: a file name with
// URL metacharacters reaches the shard intact.
func TestRouterReloadProxyEscapesPath(t *testing.T) {
	g := chl.GenerateScaleFree(150, 3, 7)
	fx, _ := buildFlat(t, g)
	c := startCluster(t, fx, 2, 0)
	defer c.close()
	routerTS := httptest.NewServer(c.router.Handler())
	defer routerTS.Close()

	// Copy shard 0's file to a name full of query metacharacters.
	src, _ := chl.ShardFilePath(c.dir+"/"+shard.ManifestName, c.manifest, 0)
	b, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	tricky := filepath.Join(t.TempDir(), "new&v2 #1.flat")
	if err := os.WriteFile(tricky, b, 0o644); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(routerTS.URL+"/reload?shard=0&path="+url.QueryEscape(tricky), "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reload with tricky path: %d %v", resp.StatusCode, m)
	}
	if got := m["path"]; got != tricky {
		t.Fatalf("shard reloaded %q, want %q", got, tricky)
	}
}

// One shard down: queries needing it fail with a 502 naming the shard;
// queries fully inside healthy shards keep answering; /healthz reports
// the degradation per shard.
func TestRouterPartialFailure(t *testing.T) {
	g := chl.GenerateScaleFree(300, 3, 6)
	fx, _ := buildFlat(t, g)
	c := startCluster(t, fx, 3, 0)
	defer c.close()
	part, _ := c.manifest.Partition()
	n := fx.NumVertices()

	const dead = 2
	c.backends[dead].Close()

	// Find vertices by owner.
	byOwner := map[int][]int{}
	for v := 0; v < n; v++ {
		o := part.Owner(v)
		byOwner[o] = append(byOwner[o], v)
	}
	for o := 0; o < 3; o++ {
		if len(byOwner[o]) < 2 {
			t.Fatalf("shard %d owns %d vertices; fixture too small", o, len(byOwner[o]))
		}
	}

	// Healthy same-shard and healthy cross-shard queries still answer.
	u0, v0 := byOwner[0][0], byOwner[0][1]
	if d, err := c.router.Query(u0, v0); err != nil || d != fx.Query(u0, v0) {
		t.Fatalf("healthy same-shard query failed: %v (%v)", d, err)
	}
	u1 := byOwner[1][0]
	if d, err := c.router.Query(u0, u1); err != nil || d != fx.Query(u0, u1) {
		t.Fatalf("healthy cross-shard query failed: %v (%v)", d, err)
	}

	// A query touching the dead shard degrades with a named failure.
	w := byOwner[dead][0]
	_, err := c.router.Query(u0, w)
	if err == nil {
		t.Fatal("query through a dead shard succeeded")
	}
	var ce *chl.ClusterError
	if !asClusterError(err, &ce) || len(ce.Failed) == 0 || ce.Failed[0].Shard != dead {
		t.Fatalf("expected a ClusterError naming shard %d, got %v", dead, err)
	}

	// And over HTTP: 502 with the failed shard in the body.
	routerTS := httptest.NewServer(c.router.Handler())
	defer routerTS.Close()
	resp, err := http.Get(fmt.Sprintf("%s/dist?u=%d&v=%d", routerTS.URL, u0, w))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("dead-shard query returned %d, want 502", resp.StatusCode)
	}
	var eb map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatal(err)
	}
	failed, ok := eb["failed_shards"].([]any)
	if !ok || len(failed) == 0 {
		t.Fatalf("502 body lacks failed_shards: %v", eb)
	}
	if sid := failed[0].(map[string]any)["shard"].(float64); int(sid) != dead {
		t.Fatalf("failed_shards names shard %v, want %d", sid, dead)
	}

	// /healthz: 503 with per-shard detail.
	hresp, err := http.Get(routerTS.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	if hresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("degraded /healthz returned %d, want 503", hresp.StatusCode)
	}
	var hb map[string]any
	if err := json.NewDecoder(hresp.Body).Decode(&hb); err != nil {
		t.Fatal(err)
	}
	if hb["ok"] != false {
		t.Fatalf("degraded cluster reports ok: %v", hb)
	}
	shards := hb["shards"].([]any)
	okCount := 0
	for _, sh := range shards {
		if sh.(map[string]any)["ok"] == true {
			okCount++
		}
	}
	if okCount != 2 {
		t.Fatalf("healthz reports %d healthy shards, want 2: %v", okCount, hb)
	}
}

// asClusterError is errors.As without importing errors in every call
// site's type dance.
func asClusterError(err error, target **chl.ClusterError) bool {
	for err != nil {
		if ce, ok := err.(*chl.ClusterError); ok {
			*target = ce
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

// A shard server must refuse direct queries for vertices it does not own
// — misrouted traffic gets 421, not a silently-empty answer.
func TestShardServerRejectsMisroutedQueries(t *testing.T) {
	g := chl.GenerateScaleFree(200, 3, 8)
	fx, _ := buildFlat(t, g)
	c := startCluster(t, fx, 3, 0)
	defer c.close()
	part, _ := c.manifest.Partition()

	// A vertex shard 0 does not own.
	foreign := -1
	for v := 0; v < fx.NumVertices(); v++ {
		if part.Owner(v) != 0 {
			foreign = v
			break
		}
	}
	if foreign < 0 {
		t.Fatal("shard 0 owns everything; fixture degenerate")
	}
	resp, err := http.Get(fmt.Sprintf("%s/dist?u=%d&v=%d", c.backends[0].URL, foreign, foreign))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusMisdirectedRequest {
		t.Fatalf("misrouted /dist returned %d, want 421", resp.StatusCode)
	}
	var eb map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatal(err)
	}
	if eb["error"] == nil {
		t.Fatalf("421 body lacks error: %v", eb)
	}
}

// /metrics on both tiers: Prometheus text format with per-endpoint
// latency histograms whose counters move with traffic.
func TestMetricsEndpoints(t *testing.T) {
	g := chl.GenerateScaleFree(200, 3, 2)
	fx, _ := buildFlat(t, g)
	c := startCluster(t, fx, 2, 1024)
	defer c.close()
	routerTS := httptest.NewServer(c.router.Handler())
	defer routerTS.Close()

	// Traffic through the full stack.
	if _, err := c.router.Query(0, 100); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get(routerTS.URL + "/dist?u=1&v=2"); err != nil {
		t.Fatal(err)
	}

	scrape := func(url string) string {
		resp, err := http.Get(url + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s/metrics: %d", url, resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
			t.Fatalf("metrics Content-Type %q", ct)
		}
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}

	shardMetrics := scrape(c.backends[0].URL)
	for _, want := range []string{
		"chl_http_request_duration_seconds_bucket{endpoint=\"/dist\",le=\"+Inf\"}",
		"chl_http_request_duration_seconds_bucket{endpoint=\"/shardquery\",le=",
		"chl_http_requests_total{endpoint=",
		"chl_index_vertices 200",
		"chl_shard_id 0",
		"chl_shard_count 2",
		"chl_cache_hits_total",
		"# TYPE chl_http_request_duration_seconds histogram",
	} {
		if !strings.Contains(shardMetrics, want) {
			t.Errorf("shard /metrics missing %q", want)
		}
	}

	routerMetrics := scrape(routerTS.URL)
	for _, want := range []string{
		"chl_router_http_request_duration_seconds_bucket{endpoint=\"/dist\",le=",
		"chl_router_queries_total",
		"chl_router_cross_joins_total",
		"chl_router_shard_requests_total{shard=\"0\"}",
		"chl_router_shard_generation{shard=\"1\"}",
		"chl_router_vertices 200",
	} {
		if !strings.Contains(routerMetrics, want) {
			t.Errorf("router /metrics missing %q", want)
		}
	}
}

// Router request validation: bad ids and malformed bodies are 400s with
// JSON error bodies, exactly like the single-process API.
func TestRouterBadRequests(t *testing.T) {
	g := chl.GenerateScaleFree(100, 3, 3)
	fx, _ := buildFlat(t, g)
	c := startCluster(t, fx, 2, 0)
	defer c.close()
	routerTS := httptest.NewServer(c.router.Handler())
	defer routerTS.Close()

	for _, url := range []string{"/dist", "/dist?u=a&v=2", "/dist?u=1&v=100", "/dist?u=-1&v=2"} {
		resp, err := http.Get(routerTS.URL + url)
		if err != nil {
			t.Fatal(err)
		}
		var m map[string]any
		json.NewDecoder(resp.Body).Decode(&m)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || m["error"] == nil {
			t.Errorf("%s: status %d body %v, want 400 with error", url, resp.StatusCode, m)
		}
	}
	for _, body := range []string{`[[1,2,3]]`, `[[1,1000]]`, `{"no":"pairs"}`} {
		resp, err := http.Post(routerTS.URL+"/batch", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var m map[string]any
		json.NewDecoder(resp.Body).Decode(&m)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || m["error"] == nil {
			t.Errorf("batch %q: status %d body %v, want 400 with error", body, resp.StatusCode, m)
		}
	}
	// /reload without a valid shard id.
	resp, err := http.Post(routerTS.URL+"/reload?shard=9", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("reload of unknown shard: %d, want 400", resp.StatusCode)
	}
}

// A shard server pins its cluster's vertex space: reloading a file from
// a different cluster build is a loud 400, relayed verbatim by the
// router's proxy (not dressed up as a 502 shard failure), and the shard
// keeps serving its current snapshot.
func TestShardReloadRejectsWrongClusterFile(t *testing.T) {
	g := chl.GenerateScaleFree(300, 3, 9)
	fx, _ := buildFlat(t, g)
	c := startCluster(t, fx, 2, 0)
	defer c.close()

	// A flat file over a different vertex space.
	other, _ := buildFlat(t, chl.GenerateRoadGrid(10, 10, 1))
	otherPath := filepath.Join(t.TempDir(), "other.flat")
	if err := other.SaveFile(otherPath); err != nil {
		t.Fatal(err)
	}
	if _, err := c.servers[0].Reload(otherPath); err == nil {
		t.Fatal("shard server reloaded a file from a different cluster")
	}

	routerTS := httptest.NewServer(c.router.Handler())
	defer routerTS.Close()
	errsBefore := c.router.Stats().Shards[0].Errors
	resp, err := http.Post(routerTS.URL+"/reload?shard=0&path="+url.QueryEscape(otherPath), "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest || m["error"] == nil {
		t.Fatalf("proxied wrong-cluster reload: %d %v, want a relayed 400", resp.StatusCode, m)
	}
	if errsAfter := c.router.Stats().Shards[0].Errors; errsAfter != errsBefore {
		t.Fatalf("operator error counted as shard failure: errors_total %d -> %d", errsBefore, errsAfter)
	}
	// The shard still serves.
	if d, err := c.router.Query(0, 299); err != nil || d != fx.Query(0, 299) {
		t.Fatalf("cluster broken after rejected reload: %v (%v)", d, err)
	}
}

// The sliced shard files round-trip through the ordinary loaders: each is
// a valid CHFX file whose owned runs match the full index exactly.
func TestShardFilesAreOrdinaryFlatIndexes(t *testing.T) {
	g := chl.GenerateRoadGrid(15, 15, 2)
	fx, _ := buildFlat(t, g)
	dir := t.TempDir()
	m, err := fx.SaveShards(dir, 3, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	part, _ := m.Partition()
	n := fx.NumVertices()
	if m.Vertices != n {
		t.Fatalf("manifest records %d vertices, want %d", m.Vertices, n)
	}
	var totalLabels int64
	for i := 0; i < 3; i++ {
		path, _ := chl.ShardFilePath(dir+"/"+shard.ManifestName, m, i)
		sl, err := chl.OpenFlat(path)
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		defer sl.Close()
		if sl.NumVertices() != n {
			t.Fatalf("shard %d covers %d vertices, want %d", i, sl.NumVertices(), n)
		}
		totalLabels += sl.TotalLabels()
		// Same-shard pairs answer identically straight off the slice.
		for u := 0; u < n; u++ {
			if part.Owner(u) != i {
				continue
			}
			for v := u; v < n; v += 17 {
				if part.Owner(v) != i {
					continue
				}
				if got, want := sl.Query(u, v), fx.Query(u, v); got != want {
					t.Fatalf("shard %d query(%d,%d) = %v, want %v", i, u, v, got, want)
				}
			}
		}
	}
	if totalLabels != fx.TotalLabels() {
		t.Fatalf("shards hold %d labels in total, want %d (split lost or duplicated runs)", totalLabels, fx.TotalLabels())
	}
}

package chl_test

// Failover tests for the replicated serving tier: ejected replicas must
// rejoin after probation (driven by a FakeClock — no real sleeps), and a
// replica restart over the same content must keep the router's cache
// (the content hash vouches for it) without poisoning its sibling.
// The real-traffic chaos soak lives in soak_test.go.

import (
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	chl "repro"
	"repro/internal/shard"
)

// flakyBackend fronts one replica's handler with a kill switch: while
// down, every request aborts its connection (the client sees a transport
// error, exactly like a dead process); while sick, every request gets a
// JSON 400 (a terminal, request-level failure — the process answers but
// serves nothing useful); while delay is set, every request stalls that
// long first (an artificially slow replica, the hedging target). The
// inner handler is swappable under traffic, which is how a test
// "restarts" a replica in-process.
type flakyBackend struct {
	down  atomic.Bool
	sick  atomic.Bool
	delay atomic.Int64 // nanoseconds added before every response
	inner atomic.Pointer[http.Handler]
}

func newFlakyBackend(h http.Handler) *flakyBackend {
	f := &flakyBackend{}
	f.inner.Store(&h)
	return f
}

func (f *flakyBackend) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if f.down.Load() {
		panic(http.ErrAbortHandler)
	}
	if d := f.delay.Load(); d > 0 {
		//chlvet:allow clockcheck -- simulated slow backend inside the fake shard handler, not test synchronization
		time.Sleep(time.Duration(d)) // simulated slow backend, not test synchronization
	}
	if f.sick.Load() {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusBadRequest)
		w.Write([]byte(`{"error":"sick replica"}`))
		return
	}
	(*f.inner.Load()).ServeHTTP(w, r)
}

// replicatedCluster is an in-process cluster of shards × replicas: every
// replica of shard i is its own chl.Server over shard i's slice file,
// behind its own listener and kill switch.
type replicatedCluster struct {
	router   *chl.Router
	servers  []*chl.Server        // every serving process, for cleanup
	backends [][]*httptest.Server // [shard][replica]
	flaky    [][]*flakyBackend    // [shard][replica]
	manifest *shard.Manifest
	part     *shard.Partition
	dir      string
}

func (c *replicatedCluster) close() {
	for _, group := range c.backends {
		for _, ts := range group {
			ts.Close()
		}
	}
	for _, s := range c.servers {
		s.Close()
	}
}

// kill simulates the death of one replica: new requests abort their
// connections and every connection currently carrying a request is
// severed mid-flight.
func (c *replicatedCluster) kill(sid, rid int) {
	c.flaky[sid][rid].down.Store(true)
	c.backends[sid][rid].CloseClientConnections()
}

// revive brings a killed replica back (same process: same epoch and
// generation as before).
func (c *replicatedCluster) revive(sid, rid int) {
	c.flaky[sid][rid].down.Store(false)
}

// newShardServer starts one serving process for shard sid of the cluster.
func (c *replicatedCluster) newShardServer(t *testing.T, sid, cacheSize int) *chl.Server {
	t.Helper()
	s := newShardProcess(t, c.dir, c.manifest, c.part, sid, cacheSize)
	c.servers = append(c.servers, s)
	return s
}

// restart replaces replica (sid,rid)'s serving process with a brand-new
// one over the same file — a fresh epoch with generations starting over,
// exactly what a process restart looks like to the router.
func (c *replicatedCluster) restart(t *testing.T, sid, rid, cacheSize int) {
	t.Helper()
	h := c.newShardServer(t, sid, cacheSize).Handler()
	c.flaky[sid][rid].inner.Store(&h)
}

// startReplicatedCluster splits fx into shards×replicas serving processes
// under a temp dir and starts the full replicated topology — an adapter
// over the shared newTestCluster fixture with kill switches on. tweak
// (may be nil) adjusts the router config before the router starts.
func startReplicatedCluster(t *testing.T, fx *chl.FlatIndex, shards, replicasPer, cacheSize int, tweak func(*chl.RouterConfig)) *replicatedCluster {
	t.Helper()
	tc := newTestCluster(t, fx, clusterSpec{
		shards: shards, replicas: replicasPer, cacheSize: cacheSize,
		flaky: true, tweak: tweak,
	})
	return &replicatedCluster{
		router: tc.router, servers: tc.servers, backends: tc.backends,
		flaky: tc.flaky, manifest: tc.manifest, part: tc.part, dir: tc.dir,
	}
}

// verticesByOwner groups [0,n) by owning shard.
func verticesByOwner(part *shard.Partition, n int) map[int][]int {
	byOwner := map[int][]int{}
	for v := 0; v < n; v++ {
		byOwner[part.Owner(v)] = append(byOwner[part.Owner(v)], v)
	}
	return byOwner
}

// Ejection and probation: a replica that dies is ejected after a few
// consecutive failures (queries keep succeeding via its sibling the
// whole time), and once it recovers, the timed re-probe routes traffic
// back to it. The probation window runs on a FakeClock, so the test
// asserts the window both ways: zero traffic before it expires, a probe
// on the very next query after Advance.
func TestRouterReplicaProbationAndReprobe(t *testing.T) {
	g := chl.GenerateScaleFree(300, 3, 12)
	fx, _ := buildFlat(t, g)
	clk := chl.NewFakeClock(time.Unix(1_700_000_000, 0))
	c := startReplicatedCluster(t, fx, 2, 2, 0, func(cfg *chl.RouterConfig) {
		cfg.EjectAfter = 2
		cfg.Probation = time.Minute
		cfg.Clock = clk
	})
	defer c.close()
	byOwner := verticesByOwner(c.part, fx.NumVertices())
	own0 := byOwner[0]
	if len(own0) < 2 {
		t.Fatal("shard 0 owns too few vertices; fixture degenerate")
	}

	// query runs one same-shard query on shard 0 and requires it to
	// succeed with the exact single-process answer.
	rng := rand.New(rand.NewSource(1))
	query := func() {
		t.Helper()
		u, v := own0[rng.Intn(len(own0))], own0[rng.Intn(len(own0))]
		d, err := c.router.Query(u, v)
		if err != nil {
			t.Fatalf("query failed with one replica down: %v", err)
		}
		if want := fx.Query(u, v); d != want {
			t.Fatalf("query(%d,%d) = %v, want %v", u, v, d, want)
		}
	}
	replicaStats := func(sid, rid int) chl.RouterReplicaStats {
		return c.router.Stats().Shards[sid].Replicas[rid]
	}

	// Kill replica (0,1); traffic must keep succeeding and the replica
	// must get ejected once enough of it has failed over.
	c.kill(0, 1)
	for i := 0; !replicaStats(0, 1).Ejected; i++ {
		if i > 1000 {
			t.Fatal("dead replica was never ejected")
		}
		query()
	}
	if rs := replicaStats(0, 1); rs.Errors == 0 || rs.Ejections == 0 {
		t.Fatalf("ejected replica reports errors=%d ejections=%d", rs.Errors, rs.Ejections)
	}
	// Hedge-free cluster: every error above was a pick that failed and was
	// retried on the sibling — the failover counter must have moved.
	if st := c.router.Stats(); st.Failovers == 0 {
		t.Fatal("queries survived a dead replica but no failovers were recorded")
	}

	// Revive it. Until the probation window expires on the fake clock, no
	// request may touch the ejected replica — not even a probe.
	c.revive(0, 1)
	reqsAtRevival := replicaStats(0, 1).Requests
	for i := 0; i < 25; i++ {
		query()
	}
	if got := replicaStats(0, 1).Requests; got != reqsAtRevival {
		t.Fatalf("ejected replica saw %d requests inside its probation window, want 0", got-reqsAtRevival)
	}

	// Advance past probation: the re-probe must pull it back into
	// rotation and real traffic must reach it again.
	clk.Advance(time.Minute + time.Second)
	for i := 0; ; i++ {
		query()
		rs := replicaStats(0, 1)
		if !rs.Ejected && rs.Requests > reqsAtRevival {
			break
		}
		if i > 1000 {
			t.Fatalf("recovered replica never rejoined rotation: %+v", rs)
		}
	}
	// Once healthy again it takes its share of load, not just the probe.
	reqsAfterRejoin := replicaStats(0, 1).Requests
	for i := 0; i < 50; i++ {
		query()
	}
	if got := replicaStats(0, 1).Requests; got == reqsAfterRejoin {
		t.Fatal("rejoined replica received no traffic after recovery")
	}
}

// Regression: an ejected replica whose probation probe draws a terminal
// (4xx) response must release the probe flag — otherwise the replica can
// never be probed again and stays out of rotation even after it fully
// recovers.
func TestRouterProbeSurvivesTerminalResponse(t *testing.T) {
	g := chl.GenerateScaleFree(300, 3, 18)
	fx, _ := buildFlat(t, g)
	clk := chl.NewFakeClock(time.Unix(1_700_000_000, 0))
	c := startReplicatedCluster(t, fx, 2, 2, 0, func(cfg *chl.RouterConfig) {
		cfg.EjectAfter = 2
		cfg.Probation = time.Minute
		cfg.Clock = clk
	})
	defer c.close()
	byOwner := verticesByOwner(c.part, fx.NumVertices())
	own0 := byOwner[0]
	rng := rand.New(rand.NewSource(2))
	query := func() error {
		u, v := own0[rng.Intn(len(own0))], own0[rng.Intn(len(own0))]
		_, err := c.router.Query(u, v)
		return err
	}
	replicaStats := func() chl.RouterReplicaStats {
		return c.router.Stats().Shards[0].Replicas[1]
	}

	// Phase 1: transport failures until ejected.
	c.kill(0, 1)
	for i := 0; !replicaStats().Ejected; i++ {
		if i > 1000 {
			t.Fatal("dead replica was never ejected")
		}
		if err := query(); err != nil {
			t.Fatalf("query failed with a healthy sibling: %v", err)
		}
	}

	// Phase 2: the replica answers again, but with 400s. Probes burn on
	// the terminal response (the probing query itself fails — terminal
	// errors are not retried on siblings, by design) but must keep being
	// re-issued after each probation window expires on the fake clock.
	c.revive(0, 1)
	c.flaky[0][1].sick.Store(true)
	sawTerminal := false
	for i := 0; !sawTerminal; i++ {
		if i > 1000 {
			t.Fatal("no probe ever reached the sick replica")
		}
		clk.Advance(time.Minute + time.Second)
		if err := query(); err != nil {
			sawTerminal = true // a probe drew the 400
		}
	}

	// Phase 3: fully healthy again. The next probe (the flag must be
	// free for it) pulls the replica back into rotation.
	c.flaky[0][1].sick.Store(false)
	for i := 0; replicaStats().Ejected; i++ {
		if i > 1000 {
			t.Fatal("replica never rejoined after its probe drew a terminal response (probe flag leaked)")
		}
		clk.Advance(time.Minute + time.Second)
		if err := query(); err != nil {
			// A lingering probe may still draw the tail of phase 2.
			continue
		}
	}
}

// A replica that restarts (new process over the same file: fresh epoch,
// generations back to 1) answers under a new identity but an unchanged
// content hash, so the router adopts the new identity WITHOUT retiring
// its answer cache — a clean restart is free — and the sibling keeps
// validating throughout, with answers byte-identical the whole time.
func TestRouterReplicaRestartKeepsCacheSameContent(t *testing.T) {
	g := chl.GenerateScaleFree(300, 3, 13)
	fx, _ := buildFlat(t, g)
	c := startReplicatedCluster(t, fx, 2, 2, 1<<12, nil)
	defer c.close()
	n := fx.NumVertices()

	check := func(seed int64) {
		t.Helper()
		pairs := make([]chl.QueryPair, 150)
		rng := rand.New(rand.NewSource(seed))
		for i := range pairs {
			pairs[i] = chl.QueryPair{U: rng.Intn(n), V: rng.Intn(n)}
		}
		ds, err := c.router.Batch(pairs)
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range pairs {
			if want := fx.Query(p.U, p.V); ds[i] != want {
				t.Fatalf("batch (%d,%d) = %v, want %v", p.U, p.V, ds[i], want)
			}
		}
	}
	check(1)
	check(1) // second pass is served from the cache
	st := c.router.Stats()
	if st.Cache == nil || st.Cache.Hits < 150 {
		t.Fatalf("second identical batch should be all cache hits, stats: %+v", st.Cache)
	}
	resetsBefore := st.CacheResets

	// Restart replica (0,1) in place. Detection is lazy — the restarted
	// process must answer something — so drive fresh traffic until the
	// restarted replica has served real requests (p2c spreads requests
	// over both replicas), proving the router has seen its new identity.
	c.restart(t, 0, 1, 0)
	reqsAtRestart := c.router.Stats().Shards[0].Replicas[1].Requests
	for seed := int64(2); c.router.Stats().Shards[0].Replicas[1].Requests == reqsAtRestart; seed++ {
		if seed > 200 {
			t.Fatal("restarted replica never served traffic")
		}
		check(seed)
	}
	if got := c.router.Stats().CacheResets; got != resetsBefore {
		t.Fatalf("same-content restart retired the cache %d times, want 0", got-resetsBefore)
	}

	// The cache stayed warm and the sibling was not poisoned: the warmed
	// batch from before the restart still hits, fresh answers keep
	// re-entering the cache, and repeated batches hit again — with zero
	// resets and full parity.
	hitsBefore := c.router.Stats().Cache.Hits
	check(1) // warmed before the restart; must still be cached
	check(99)
	check(99)
	st = c.router.Stats()
	if st.CacheResets != resetsBefore {
		t.Fatalf("stable cluster retired the cache: %d resets", st.CacheResets-resetsBefore)
	}
	if st.Cache.Hits < hitsBefore+200 {
		t.Fatalf("cache stopped serving after a same-content restart (hits %d -> %d)", hitsBefore, st.Cache.Hits)
	}
	for _, rs := range st.Shards[0].Replicas {
		if rs.Ejected {
			t.Fatalf("replica %d ejected by a clean restart: %+v", rs.ID, rs)
		}
	}
}

// An unreplicated manifest — no replica_addrs — serves through the
// replicated router given Addrs; the same document stamped with the
// retired version 1 is refused by the writer, the reader and NewRouter.
func TestRouterV1ManifestRefused(t *testing.T) {
	g := chl.GenerateRoadGrid(12, 12, 3)
	fx, _ := buildFlat(t, g)
	dir := t.TempDir()
	m, err := fx.SaveShards(dir, 2, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	v1 := *m
	v1.Version = 1
	if err := shard.WriteManifest(dir+"/v1.json", &v1); err == nil {
		t.Fatal("WriteManifest wrote a version-1 manifest")
	}
	if _, err := shard.ParseManifest([]byte(`{"version":1,"vertices":144,"shards":2,"replicas":64,"seed":1,"files":["a","b"]}`)); err == nil || !strings.Contains(err.Error(), "-split") {
		t.Fatalf("version-1 manifest: err = %v, want a refusal naming -split", err)
	}
	if _, err := chl.NewRouter(chl.RouterConfig{Manifest: &v1, Addrs: []string{"http://a", "http://b"}}); err == nil {
		t.Fatal("NewRouter accepted a version-1 manifest")
	}
	m, err = shard.ReadManifest(dir + "/" + shard.ManifestName)
	if err != nil {
		t.Fatal(err)
	}
	if m.ReplicaAddrs != nil {
		t.Fatalf("SaveShards recorded replica addresses nobody gave it: %v", m.ReplicaAddrs)
	}
	part, err := m.Partition()
	if err != nil {
		t.Fatal(err)
	}
	addrs := make([]string, 2)
	for sid := 0; sid < 2; sid++ {
		path, err := chl.ShardFilePath(dir+"/"+shard.ManifestName, m, sid)
		if err != nil {
			t.Fatal(err)
		}
		s, err := chl.NewServer(path, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.SetShard(sid, part); err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		defer s.Close()
		addrs[sid] = ts.URL
	}
	r, err := chl.NewRouter(chl.RouterConfig{Manifest: m, Addrs: addrs, CacheSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	n := fx.NumVertices()
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 300; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		d, err := r.Query(u, v)
		if err != nil {
			t.Fatalf("unreplicated cluster query(%d,%d): %v", u, v, err)
		}
		if want := fx.Query(u, v); d != want {
			t.Fatalf("unreplicated cluster query(%d,%d) = %v, want %v", u, v, d, want)
		}
	}
}

// A manifest with replica_addrs is a complete cluster description:
// the router starts from it alone (no Addrs) and serves.
func TestRouterFromManifestReplicaAddrs(t *testing.T) {
	g := chl.GenerateScaleFree(200, 3, 14)
	fx, _ := buildFlat(t, g)
	c := startReplicatedCluster(t, fx, 2, 2, 0, nil)
	defer c.close()

	m := *c.manifest
	m.ReplicaAddrs = make([][]string, 2)
	for sid, group := range c.backends {
		for _, ts := range group {
			m.ReplicaAddrs[sid] = append(m.ReplicaAddrs[sid], ts.URL)
		}
	}
	r, err := chl.NewRouter(chl.RouterConfig{Manifest: &m, CacheSize: 0})
	if err != nil {
		t.Fatal(err)
	}
	n := fx.NumVertices()
	for i := 0; i < 50; i++ {
		u, v := (i*37)%n, (i*91)%n
		d, err := r.Query(u, v)
		if err != nil {
			t.Fatal(err)
		}
		if want := fx.Query(u, v); d != want {
			t.Fatalf("query(%d,%d) = %v, want %v", u, v, d, want)
		}
	}
}

// /stats and /metrics expose the per-replica request/error/ejection
// breakdown the replicated tier is operated by.
func TestRouterPerReplicaStatsAndMetrics(t *testing.T) {
	g := chl.GenerateScaleFree(200, 3, 15)
	fx, _ := buildFlat(t, g)
	c := startReplicatedCluster(t, fx, 2, 2, 0, func(cfg *chl.RouterConfig) {
		cfg.EjectAfter = 2
		cfg.Probation = time.Hour // stay ejected for the duration of the test
	})
	defer c.close()
	routerTS := httptest.NewServer(c.router.Handler())
	defer routerTS.Close()
	n := fx.NumVertices()

	// Healthy traffic, then a dead replica plus enough traffic to eject it.
	c.kill(1, 0)
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 60; i++ {
		if _, err := c.router.Query(rng.Intn(n), rng.Intn(n)); err != nil {
			t.Fatalf("query with one replica down: %v", err)
		}
	}

	resp, err := http.Get(routerTS.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st struct {
		Failovers int64 `json:"failovers_total"`
		Shards    []struct {
			ID       int `json:"id"`
			Replicas []struct {
				ID        int   `json:"id"`
				Requests  int64 `json:"requests_total"`
				Errors    int64 `json:"errors_total"`
				Ejections int64 `json:"ejections_total"`
				Ejected   bool  `json:"ejected"`
			} `json:"replicas"`
		} `json:"shards"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if len(st.Shards) != 2 || len(st.Shards[1].Replicas) != 2 {
		t.Fatalf("/stats misses the replica breakdown: %+v", st)
	}
	dead := st.Shards[1].Replicas[0]
	if dead.Errors == 0 || dead.Ejections == 0 || !dead.Ejected {
		t.Fatalf("/stats does not report the dead replica's failure counters: %+v", dead)
	}
	if st.Failovers == 0 {
		t.Fatal("/stats reports no failovers despite a dead replica under load")
	}

	mresp, err := http.Get(routerTS.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	b, err := io.ReadAll(mresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	metrics := string(b)
	for _, want := range []string{
		`chl_router_replica_requests_total{shard="0",replica="1"}`,
		`chl_router_replica_errors_total{shard="1",replica="0"}`,
		`chl_router_replica_ejections_total{shard="1",replica="0"} 1`,
		`chl_router_replica_ejected{shard="1",replica="0"} 1`,
		`chl_router_replica_generation{shard="0",replica="0"}`,
		"chl_router_failovers_total",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("router /metrics missing %q", want)
		}
	}

	// /healthz shows the degradation per replica while the shard (one
	// replica alive) stays ok.
	hresp, err := http.Get(routerTS.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(hresp.Body)
		t.Fatalf("one dead replica of two must leave the cluster serving, got %d %s", hresp.StatusCode, body)
	}
	var hb struct {
		OK       bool `json:"ok"`
		Degraded bool `json:"degraded"`
		Shards   []struct {
			OK       bool `json:"ok"`
			Replicas []struct {
				OK bool `json:"ok"`
			} `json:"replicas"`
		} `json:"shards"`
	}
	if err := json.NewDecoder(hresp.Body).Decode(&hb); err != nil {
		t.Fatal(err)
	}
	if !hb.OK || !hb.Degraded {
		t.Fatalf("healthz ok=%v degraded=%v, want ok with degradation flagged", hb.OK, hb.Degraded)
	}
	if hb.Shards[1].OK != true || hb.Shards[1].Replicas[0].OK != false || hb.Shards[1].Replicas[1].OK != true {
		t.Fatalf("healthz replica detail wrong: %+v", hb)
	}
}

// The /reload proxy reaches a specific replica and the router folds the
// reported identity (including the content hash) in, exactly like an
// observed one — a same-content reload keeps the cache.
func TestRouterReloadProxyTargetsReplica(t *testing.T) {
	g := chl.GenerateScaleFree(200, 3, 16)
	fx, _ := buildFlat(t, g)
	c := startReplicatedCluster(t, fx, 2, 2, 1<<10, nil)
	defer c.close()
	routerTS := httptest.NewServer(c.router.Handler())
	defer routerTS.Close()

	resetsBefore := c.router.Stats().CacheResets
	resp, err := http.Post(routerTS.URL+"/reload?shard=0&replica=1", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("proxied replica reload: %d %s", resp.StatusCode, b)
	}
	// The reload bumped replica (0,1)'s generation past the adopted one…
	// but adoption requires a prior observation; either way the stats
	// must track the replica's new generation.
	if got := c.router.Stats().Shards[0].Replicas[1].Generation; got < 2 {
		t.Fatalf("proxied reload left replica generation at %d, want >= 2", got)
	}
	// The reload served the same shard file, so the reported content hash
	// matches and the cache survives.
	if got := c.router.Stats().CacheResets; got != resetsBefore {
		t.Fatalf("same-content proxied reload retired the cache %d times, want 0", got-resetsBefore)
	}

	// Out-of-range replica ids are 400s.
	bad, err := http.Post(routerTS.URL+"/reload?shard=0&replica=9", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	bad.Body.Close()
	if bad.StatusCode != http.StatusBadRequest {
		t.Fatalf("reload of unknown replica: %d, want 400", bad.StatusCode)
	}
}

// Same-shard traffic spreads across a replica group (power-of-two-choices
// never starves a healthy replica), and answers stay byte-identical no
// matter which replica serves them.
func TestRouterBalancesAcrossReplicas(t *testing.T) {
	g := chl.GenerateScaleFree(300, 3, 17)
	fx, _ := buildFlat(t, g)
	c := startReplicatedCluster(t, fx, 1, 3, 0, nil) // one shard: all traffic same-shard
	defer c.close()
	n := fx.NumVertices()
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 200; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		d, err := c.router.Query(u, v)
		if err != nil {
			t.Fatal(err)
		}
		if want := fx.Query(u, v); d != want {
			t.Fatalf("query(%d,%d) = %v, want %v", u, v, d, want)
		}
	}
	st := c.router.Stats()
	for _, rs := range st.Shards[0].Replicas {
		if rs.Requests == 0 {
			t.Fatalf("replica %d starved by the balancer: %+v", rs.ID, st.Shards[0].Replicas)
		}
	}
}

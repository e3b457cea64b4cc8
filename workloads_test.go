package chl_test

// Black-box tests for the rich query workloads: cache-keyspace
// discipline (/knn and /matrix must never collide with /dist pair
// keys), the directed ordered-pair regression for /paths, the
// bounded-buffer streaming contract of /matrix, and shard-tier
// rejection of workloads that need the whole vertex space.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	chl "repro"
)

// TestRichWorkloadCacheKeying: after /knn(u,k) and a /matrix sweep, the
// pair (u,k) and every (source,target) pair must still answer /dist
// with the true distance — a workload parameter leaking into the pair
// keyspace (k cached as a vertex id, say) would surface here as a wrong
// cached answer. Also pins the deliberate caching asymmetry: /knn seeds
// the pair cache (its results are complete pair answers), /matrix stays
// out of it.
func TestRichWorkloadCacheKeying(t *testing.T) {
	g := chl.GenerateScaleFree(300, 3, 17)
	fx, _ := buildFlat(t, g)
	tc := newTestCluster(t, fx, clusterSpec{shards: 3, cacheSize: 1 << 12})
	defer tc.close()
	ts := httptest.NewServer(tc.router.Handler())
	defer ts.Close()

	// /knn for (u, k) pairs where k is itself a valid vertex id, so a
	// keyspace collision would be silent, not a range error.
	for _, p := range [][2]int{{3, 5}, {5, 3}, {10, 250}, {250, 10}} {
		u, k := p[0], p[1]
		var knn knnParityResp
		getParity(t, fmt.Sprintf("%s/knn?u=%d&k=%d", ts.URL, u, k), &knn)
		var d distParityResp
		getParity(t, fmt.Sprintf("%s/dist?u=%d&v=%d", ts.URL, u, k), &d)
		wd, wh, wok := fx.QueryHub(u, k)
		if d.Reachable != wok || (wok && (d.Dist != wd || d.Hub != wh)) {
			t.Fatalf("/dist(%d,%d) after /knn(u=%d,k=%d) = (%v,%v,hub %d), index says (%v,%v,hub %d)",
				u, k, u, k, d.Dist, d.Reachable, d.Hub, wd, wok, wh)
		}
		// The seeding direction: every /knn result must already be the
		// /dist answer for its pair.
		for _, nb := range knn.Neighbors {
			var nd distParityResp
			getParity(t, fmt.Sprintf("%s/dist?u=%d&v=%d", ts.URL, u, nb.V), &nd)
			if !nd.Reachable || nd.Dist != nb.Dist || nd.Hub != nb.Hub {
				t.Fatalf("/dist(%d,%d) = (%v,%v,hub %d) disagrees with the /knn seed (%v,hub %d)",
					u, nb.V, nd.Dist, nd.Reachable, nd.Hub, nb.Dist, nb.Hub)
			}
		}
	}

	// /knn seeded the cache: a fresh identical /knn plus the /dist
	// re-checks above must have produced hits.
	st := tc.router.Stats()
	if st.Cache == nil || st.Cache.Hits == 0 {
		t.Fatalf("no cache hits after /knn seeding and /dist re-reads: %+v", st.Cache)
	}

	// /matrix must not grow the pair cache.
	entriesBefore := tc.router.Stats().Cache.Entries
	body, _ := json.Marshal(map[string]any{"sources": []int{1, 2, 60}, "targets": []int{7, 8, 9, 200}})
	resp, err := http.Post(ts.URL+"/matrix", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/matrix status %d", resp.StatusCode)
	}
	if after := tc.router.Stats().Cache.Entries; after != entriesBefore {
		t.Fatalf("/matrix changed the pair cache: %d entries -> %d", entriesBefore, after)
	}
	// And the swept pairs still answer /dist correctly.
	for _, u := range []int{1, 2, 60} {
		for _, v := range []int{7, 8, 9, 200} {
			var d distParityResp
			getParity(t, fmt.Sprintf("%s/dist?u=%d&v=%d", ts.URL, u, v), &d)
			if want := fx.Query(u, v); (d.Reachable && d.Dist != want) || (!d.Reachable) != (want == chl.Infinity) {
				t.Fatalf("/dist(%d,%d) after /matrix = (%v,%v), index says %v", u, v, d.Dist, d.Reachable, want)
			}
		}
	}
}

// TestDirectedPathsOrderedPairs: on a directed cluster, /paths(u,v) and
// /paths(v,u) are different questions with different answers, and
// asking one must never pollute the cache for the other — the classic
// unordered-pairKey regression, pinned on a provably asymmetric pair.
// Both tiers answer it with the same bytes: the witness triple through
// the cache without a graph, the walk with one.
func TestDirectedPathsOrderedPairs(t *testing.T) {
	g := chl.GenerateRandomDirected(240, 1200, 9, 31)
	ix, fx := buildDirectedFrozen(t, g)
	u, v := findAsymmetricPair(t, ix)
	duv, dvu := ix.Query(u, v), ix.Query(v, u)
	if duv == dvu {
		t.Fatalf("fixture self-check: pair (%d,%d) is not asymmetric", u, v)
	}
	for _, graph := range []*chl.Graph{nil, g} {
		flat, router := pathsTiers(t, fx, graph)
		// Forward first (fills the cache with the u→v answer), then the
		// reverse — each must match its own direction of the index.
		bodies := samePathBodies(t, flat, router, [][2]int{{u, v}, {v, u}})
		for i, ord := range [][3]float64{{float64(u), float64(v), duv}, {float64(v), float64(u), dvu}} {
			a, b := int(ord[0]), int(ord[1])
			var r pathsParityResp
			if err := json.Unmarshal(bodies[i], &r); err != nil {
				t.Fatal(err)
			}
			if !r.Reachable || r.Dist != ord[2] {
				t.Fatalf("graph=%v: /paths(%d,%d) = (%v,%v), directed index says %v", graph != nil, a, b, r.Dist, r.Reachable, ord[2])
			}
			if r.Path[0] != a || r.Path[len(r.Path)-1] != b {
				t.Fatalf("graph=%v: /paths(%d,%d) walk %v runs the wrong way", graph != nil, a, b, r.Path)
			}
			// Segments re-sum in the asked direction.
			var sum float64
			for i := 0; i+1 < len(r.Path); i++ {
				sum += ix.Query(r.Path[i], r.Path[i+1])
			}
			if sum != r.Dist {
				t.Fatalf("graph=%v: /paths(%d,%d): directed segments re-sum to %v, total says %v", graph != nil, a, b, sum, r.Dist)
			}
			if graph != nil {
				checkWalk(t, g, a, b, r.Dist, r.Path, r.Reachable)
			}
		}
	}
}

// flushSpy is a ResponseWriter that measures streaming discipline: the
// largest number of body bytes ever buffered between two flushes.
type flushSpy struct {
	header  http.Header
	status  int
	cur     int
	max     int
	total   int
	flushes int
}

func newFlushSpy() *flushSpy { return &flushSpy{header: http.Header{}, status: http.StatusOK} }

func (s *flushSpy) Header() http.Header { return s.header }

func (s *flushSpy) WriteHeader(code int) { s.status = code }

func (s *flushSpy) Write(b []byte) (int, error) {
	s.cur += len(b)
	s.total += len(b)
	if s.cur > s.max {
		s.max = s.cur
	}
	return len(b), nil
}

func (s *flushSpy) Flush() { s.flushes++; s.cur = 0 }

// TestMatrixStreamsBounded: a many-to-many /matrix response is flushed
// row by row — the peak buffered span between flushes stays at one row
// (header included), a small fraction of the whole body, no matter how
// large the matrix. Runs through Server.Handler(), so it also proves
// the metrics middleware forwards Flush to the underlying writer.
func TestMatrixStreamsBounded(t *testing.T) {
	g := chl.GenerateScaleFree(400, 3, 19)
	fx, _ := buildFlat(t, g)
	s := chl.NewServerFromFlat(fx, 0)
	defer s.Close()
	h := s.Handler()

	var sources, targets []int
	for i := 0; i < 120; i++ {
		sources = append(sources, i)
		targets = append(targets, 399-i)
	}
	body, _ := json.Marshal(map[string]any{"sources": sources, "targets": targets})
	req := httptest.NewRequest(http.MethodPost, "/matrix", bytes.NewReader(body))
	spy := newFlushSpy()
	h.ServeHTTP(spy, req)
	if spy.status != http.StatusOK {
		t.Fatalf("/matrix status %d", spy.status)
	}
	if spy.flushes < len(sources)+1 {
		t.Fatalf("/matrix flushed %d times for %d rows — not streaming per row", spy.flushes, len(sources))
	}
	if spy.max*8 > spy.total {
		t.Fatalf("/matrix buffered up to %d of %d body bytes between flushes — response is being materialized", spy.max, spy.total)
	}
}

// TestServerWorkloadGoAPI: the Server-level Path and KNN methods answer
// identically to the flat index they snapshot (Path over the graph the
// server holds once updates are on) — the HTTP handlers are thin shells
// over these, so this pins the Go API surface directly.
func TestServerWorkloadGoAPI(t *testing.T) {
	g := chl.GenerateScaleFree(180, 3, 29)
	fx, _ := buildFlat(t, g)
	s := chl.NewServerFromFlat(fx, 1<<10)
	defer s.Close()
	if err := s.EnableUpdates(g, ""); err != nil {
		t.Fatal(err)
	}
	for _, p := range [][2]int{{0, 99}, {17, 3}, {5, 5}} {
		wd, wp, wok, werr := fx.Path(g, p[0], p[1])
		gd, gp, gok, gerr := s.Path(p[0], p[1])
		if gd != wd || gok != wok || (gerr == nil) != (werr == nil) || len(gp) != len(wp) {
			t.Fatalf("Server.Path(%d,%d) = (%v,%v,%v,%v), FlatIndex.Path says (%v,%v,%v,%v)",
				p[0], p[1], gd, gp, gok, gerr, wd, wp, wok, werr)
		}
		for i := range wp {
			if gp[i] != wp[i] {
				t.Fatalf("Server.Path(%d,%d) walk %v != %v", p[0], p[1], gp, wp)
			}
		}
	}
	nbs := s.KNN(7, 5)
	if len(nbs) == 0 {
		t.Fatal("Server.KNN(7,5) returned nothing on a connected scale-free fixture")
	}
	for _, nb := range nbs {
		if d, h, ok := fx.QueryHub(7, nb.V); !ok || d != nb.Dist || h != nb.Hub {
			t.Fatalf("Server.KNN neighbor (%d,%v,hub %d) disagrees with QueryHub (%v,%v,hub %d)",
				nb.V, nb.Dist, nb.Hub, d, ok, h)
		}
	}
}

// TestRichWorkloadsRejectedOnShards: a shard server owns only its slice
// of the vertex space, so /paths, /knn, and /matrix sent directly to it
// must 421 (route through the router); /shardscan, the internal scan
// protocol, conversely 404s on a plain unsharded server.
func TestRichWorkloadsRejectedOnShards(t *testing.T) {
	g := chl.GenerateScaleFree(200, 3, 23)
	fx, _ := buildFlat(t, g)
	tc := newTestCluster(t, fx, clusterSpec{shards: 2, cacheSize: 0})
	defer tc.close()
	shardURL := tc.backends[0][0].URL

	for _, probe := range []struct {
		method, path string
	}{
		{http.MethodGet, "/paths?u=0&v=1"},
		{http.MethodGet, "/knn?u=0&k=3"},
		{http.MethodPost, "/matrix"},
	} {
		var resp *http.Response
		var err error
		if probe.method == http.MethodGet {
			resp, err = http.Get(shardURL + probe.path)
		} else {
			resp, err = http.Post(shardURL+probe.path, "application/json",
				bytes.NewReader([]byte(`{"sources":[0],"targets":[1]}`)))
		}
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMisdirectedRequest {
			t.Fatalf("%s %s on a shard server: status %d, want 421", probe.method, probe.path, resp.StatusCode)
		}
	}

	flat := chl.NewServerFromFlat(fx, 0)
	defer flat.Close()
	flatTS := httptest.NewServer(flat.Handler())
	defer flatTS.Close()
	resp, err := http.Post(flatTS.URL+"/shardscan", "application/json", bytes.NewReader([]byte(`{}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/shardscan on an unsharded server: status %d, want 404", resp.StatusCode)
	}
}

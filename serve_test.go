package chl_test

// Tests for the production serving tier: the mmap-backed loader's parity
// with the heap loader, the snapshot hot swap under concurrent load, the
// per-snapshot cache (no stale answers across a swap), and the HTTP
// API's status codes and JSON error bodies.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	chl "repro"
	"repro/internal/sssp"
)

// saveFlat builds an index over g and writes its flat form to a temp
// file, returning the path and the in-memory original for parity checks.
func saveFlat(t *testing.T, g *chl.Graph, name string) (string, *chl.Index) {
	t.Helper()
	ix, err := chl.Build(g, chl.Options{Algorithm: chl.AlgoGLL, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	fx, err := ix.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), name)
	if err := fx.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	return path, ix
}

// The mmap loader must agree byte-for-byte with the heap loader and the
// original build on the same agreement fixtures the flat store is tested
// on.
func TestMappedLoaderParityWithHeapLoader(t *testing.T) {
	for name, g := range map[string]*chl.Graph{
		"scalefree": chl.GenerateScaleFree(600, 3, 1),
		"road":      chl.GenerateRoadGrid(24, 24, 2),
		"sparse":    chl.GenerateRandom(300, 200, 9, 3), // disconnected pairs exercise Infinity
	} {
		t.Run(name, func(t *testing.T) {
			path, ix := saveFlat(t, g, "parity.flat")
			heap, err := chl.LoadFlatFile(path)
			if err != nil {
				t.Fatal(err)
			}
			mapped, err := chl.OpenFlat(path)
			if err != nil {
				t.Fatal(err)
			}
			defer mapped.Close()
			if mapped.NumVertices() != heap.NumVertices() || mapped.TotalLabels() != heap.TotalLabels() {
				t.Fatalf("shape: mapped %d/%d, heap %d/%d",
					mapped.NumVertices(), mapped.TotalLabels(), heap.NumVertices(), heap.TotalLabels())
			}
			n := g.NumVertices()
			rng := rand.New(rand.NewSource(17))
			for i := 0; i < 2000; i++ {
				u, v := rng.Intn(n), rng.Intn(n)
				hm, hh, hw := mapped.Query(u, v), heap.Query(u, v), ix.Query(u, v)
				if hm != hh || hm != hw {
					t.Fatalf("query(%d,%d): mapped %v, heap %v, build %v", u, v, hm, hh, hw)
				}
				md, mh, mok := mapped.QueryHub(u, v)
				hd, hhub, hok := heap.QueryHub(u, v)
				if md != hd || mok != hok || (mok && mh != hhub) {
					t.Fatalf("QueryHub(%d,%d): mapped (%v,%d,%v), heap (%v,%d,%v)", u, v, md, mh, mok, hd, hhub, hok)
				}
			}
		})
	}
}

// On unix hosts OpenFlat must actually take the zero-copy path; a file of
// any other container version is refused outright — by the mapped loader,
// so the heap fallback never sees it — with the command that rebuilds it.
func TestOpenFlatVersions(t *testing.T) {
	g := chl.GenerateScaleFree(200, 3, 5)
	path, ix := saveFlat(t, g, "cur.flat")

	cur, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	fx, err := chl.OpenFlat(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fx.Close()
	if !fx.Mapped() {
		t.Log("OpenFlat fell back to the heap loader on this platform")
	}
	for i := 0; i < 500; i++ {
		u, v := (i*7)%200, (i*13)%200
		if fx.Query(u, v) != ix.Query(u, v) {
			t.Fatalf("opened index disagrees with the build at (%d,%d)", u, v)
		}
	}
	for ver := byte(1); ver <= cur[4]+1; ver++ {
		if ver == cur[4] {
			continue
		}
		old := append([]byte(nil), cur...)
		old[4] = ver
		oldPath := filepath.Join(t.TempDir(), "old.flat")
		if err := os.WriteFile(oldPath, old, 0o644); err != nil {
			t.Fatal(err)
		}
		for name, open := range map[string]func(string) (*chl.FlatIndex, error){
			"OpenFlat": chl.OpenFlat, "LoadFlatMapped": chl.LoadFlatMapped, "LoadFlatFile": chl.LoadFlatFile,
		} {
			_, err := open(oldPath)
			if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("version %d", ver)) || !strings.Contains(err.Error(), "chlquery -save") {
				t.Fatalf("%s on a version-%d file: err = %v, want a refusal naming the version and the rebuild command", name, ver, err)
			}
		}
	}
}

// A mapped server with prefault on stays mapped and exact across a Reload
// and a Compact: both swap in a fresh mapping and fault it in first.
func TestPrefaultedServerReloadAndCompact(t *testing.T) {
	g := chl.GenerateRoadGrid(8, 8, 3)
	path, _ := saveFlat(t, g, "prefault.flat")
	srv, err := chl.NewServer(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if !srv.Stats().Mapped {
		t.Skip("OpenFlat falls back to the heap loader on this platform")
	}
	srv.SetPrefault(true)
	exact := func(what string, g *chl.Graph) {
		t.Helper()
		if !srv.Stats().Mapped {
			t.Fatalf("%s: server no longer mapped", what)
		}
		for u := 0; u < g.NumVertices(); u++ {
			want := sssp.Dijkstra(g, u)
			for v, w := range want {
				if got := srv.Query(u, v); got != w {
					t.Fatalf("%s: d(%d,%d) = %v, want %v", what, u, v, got, w)
				}
			}
		}
	}
	exact("prefault on", g)
	if _, err := srv.Reload(path); err != nil {
		t.Fatal(err)
	}
	exact("after Reload", g)

	if err := srv.EnableUpdates(g, ""); err != nil {
		t.Fatal(err)
	}
	ops := []chl.EdgeOp{{Kind: chl.EdgeOpAdd, U: 0, V: 63, W: 2}}
	if _, err := srv.Update(ops); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Compact(""); err != nil {
		t.Fatal(err)
	}
	patched, err := chl.ApplyPatch(g, ops)
	if err != nil {
		t.Fatal(err)
	}
	exact("after Compact", patched)
}

func TestServerQueryAndCache(t *testing.T) {
	g := chl.GenerateScaleFree(300, 3, 2)
	path, ix := saveFlat(t, g, "srv.flat")
	s, err := chl.NewServer(path, 1024)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 100; i++ {
		u, v := (i*3)%300, (i*11)%300
		if got, want := s.Query(u, v), ix.Query(u, v); got != want {
			t.Fatalf("server query(%d,%d) = %v, want %v", u, v, got, want)
		}
	}
	// Re-ask the same pairs: all hits now.
	before := s.Stats().Cache.Hits
	for i := 0; i < 100; i++ {
		u, v := (i*3)%300, (i*11)%300
		s.Query(u, v)
	}
	st := s.Stats()
	if st.Cache.Hits < before+100 {
		t.Fatalf("expected 100 more cache hits, got %d -> %d", before, st.Cache.Hits)
	}
	if st.Generation != 1 || st.Queries < 200 {
		t.Fatalf("stats: %+v", st)
	}
}

// The heart of the tentpole: queries racing reloads across two different
// index files, with -race watching. No query may error, block, or see a
// mixture of the two generations' state, and each answer must be correct
// for one of the two indexes.
func TestServerReloadUnderLoad(t *testing.T) {
	gA := chl.GenerateScaleFree(250, 3, 1)
	gB := chl.GenerateRoadGrid(20, 20, 2) // different size: 400 vertices
	pathA, ixA := saveFlat(t, gA, "a.flat")
	pathB, ixB := saveFlat(t, gB, "b.flat")

	s, err := chl.NewServer(pathA, 4096)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const nA = 250 // query only ids valid in both graphs
	var stop atomic.Bool
	var wrong atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			pairs := make([]chl.QueryPair, 32)
			for !stop.Load() {
				u, v := rng.Intn(nA), rng.Intn(nA)
				d := s.Query(u, v)
				if d != ixA.Query(u, v) && d != ixB.Query(u, v) {
					wrong.Add(1)
				}
				for i := range pairs {
					pairs[i] = chl.QueryPair{U: rng.Intn(nA), V: rng.Intn(nA)}
				}
				for i, bd := range s.Batch(pairs) {
					p := pairs[i]
					if bd != ixA.Query(p.U, p.V) && bd != ixB.Query(p.U, p.V) {
						wrong.Add(1)
					}
				}
			}
		}(w)
	}
	for i := 0; i < 30; i++ {
		path := pathA
		if i%2 == 0 {
			path = pathB
		}
		if _, err := s.Reload(path); err != nil {
			t.Errorf("reload %d: %v", i, err)
		}
	}
	stop.Store(true)
	wg.Wait()
	if n := wrong.Load(); n > 0 {
		t.Fatalf("%d answers matched neither generation", n)
	}
	if st := s.Stats(); st.Reloads != 30 || st.Generation != 31 {
		t.Fatalf("after 30 reloads: %+v", st)
	}
	// A failed reload must leave the current snapshot serving.
	if _, err := s.Reload(filepath.Join(t.TempDir(), "missing.flat")); err == nil {
		t.Fatal("reload of a missing file succeeded")
	}
	if d := s.Query(0, 1); d != ixA.Query(0, 1) && d != ixB.Query(0, 1) {
		t.Fatal("server broken after failed reload")
	}
}

// The cache is born and dies with its snapshot: after a swap to an index
// with different distances, no stale answer may survive.
func TestCacheNoStaleAnswersAfterSwap(t *testing.T) {
	// Same vertex count, different edge weights ⇒ different distances.
	pathA, ixA := saveFlat(t, chl.GenerateRoadGrid(12, 12, 3), "wa.flat")
	pathB, ixB := saveFlat(t, chl.GenerateRoadGrid(12, 12, 8), "wb.flat")

	s, err := chl.NewServer(pathA, 4096)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	diff := 0
	for u := 0; u < 144; u++ {
		for v := u + 1; v < 144; v += 7 {
			if got, want := s.Query(u, v), ixA.Query(u, v); got != want {
				t.Fatalf("gen 1 query(%d,%d) = %v, want %v", u, v, got, want)
			}
			if ixA.Query(u, v) != ixB.Query(u, v) {
				diff++
			}
		}
	}
	if diff == 0 {
		t.Fatal("fixtures answer identically; the staleness check would be vacuous")
	}
	if _, err := s.Reload(pathB); err != nil {
		t.Fatal(err)
	}
	if hits := s.Stats().Cache.Hits; hits != 0 {
		t.Fatalf("fresh snapshot's cache reports %d hits", hits)
	}
	for u := 0; u < 144; u++ {
		for v := u + 1; v < 144; v += 7 {
			if got, want := s.Query(u, v), ixB.Query(u, v); got != want {
				t.Fatalf("stale answer after swap: query(%d,%d) = %v, want %v", u, v, got, want)
			}
		}
	}
}

// A cached engine fills its misses with the frozen single-pair join
// (FlatIndex.QueryHub, the hash join on this index); its distances and
// witness-hub tie-breaks must match the builders' merge join exactly,
// whether a QueryHub misses or hits.
func TestCachedBatchHubParity(t *testing.T) {
	g := chl.GenerateScaleFree(400, 3, 6)
	ix, err := chl.Build(g, chl.Options{Algorithm: chl.AlgoGLL, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	fx, err := ix.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	eng := chl.NewBatchEngineFlat(fx)
	eng.SetCache(chl.NewCache(1 << 16))
	rng := rand.New(rand.NewSource(23))
	pairs := make([]chl.QueryPair, 3000)
	for i := range pairs {
		pairs[i] = chl.QueryPair{U: rng.Intn(400), V: rng.Intn(400)}
	}
	dists := eng.Batch(pairs)
	for i, p := range pairs {
		if want := ix.Query(p.U, p.V); dists[i] != want {
			t.Fatalf("cached batch (%d,%d) = %v, want %v", p.U, p.V, dists[i], want)
		}
	}
	if st := eng.Cache().Stats(); st.Hits+st.Misses+int64(st.Entries) != 0 {
		t.Fatalf("Batch touched the cache, which fronts single pairs only: %+v", st)
	}
	for pass := 0; pass < 2; pass++ { // the second pass hits what the first wrote
		for _, p := range pairs {
			d, h, ok := eng.QueryHub(p.U, p.V)
			wd, wh, wok := ix.QueryHub(p.U, p.V)
			if d != wd || ok != wok || (ok && h != wh) {
				t.Fatalf("pass %d cached QueryHub(%d,%d) = (%v,%d,%v), want (%v,%d,%v)", pass, p.U, p.V, d, h, ok, wd, wh, wok)
			}
		}
	}
	if st := eng.Cache().Stats(); st.Hits < int64(len(pairs)) {
		t.Fatalf("expected ≥%d hits on the re-query pass, got %d", len(pairs), st.Hits)
	}
}

func TestHTTPEndpoints(t *testing.T) {
	g := chl.GenerateScaleFree(200, 3, 4)
	path, ix := saveFlat(t, g, "http.flat")
	s, err := chl.NewServer(path, 1024)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	get := func(t *testing.T, url string) (int, map[string]any) {
		t.Helper()
		resp, err := http.Get(ts.URL + url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		return decodeJSON(t, resp)
	}
	post := func(t *testing.T, url, body string) (int, map[string]any) {
		t.Helper()
		resp, err := http.Post(ts.URL+url, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		return decodeJSON(t, resp)
	}

	t.Run("dist ok", func(t *testing.T) {
		code, m := get(t, "/dist?u=3&v=77")
		if code != http.StatusOK {
			t.Fatalf("status %d: %v", code, m)
		}
		if m["reachable"] == true && m["dist"].(float64) != ix.Query(3, 77) {
			t.Fatalf("dist %v, want %v", m["dist"], ix.Query(3, 77))
		}
	})
	t.Run("dist errors", func(t *testing.T) {
		for _, url := range []string{"/dist", "/dist?u=a&v=2", "/dist?u=1", "/dist?u=-1&v=2", "/dist?u=1&v=200"} {
			code, m := get(t, url)
			if code != http.StatusBadRequest {
				t.Errorf("%s: status %d, want 400", url, code)
			}
			if m["error"] == nil {
				t.Errorf("%s: no JSON error body: %v", url, m)
			}
		}
	})
	t.Run("batch ok", func(t *testing.T) {
		code, m := post(t, "/batch", "[[3,77],[0,1]]")
		if code != http.StatusOK {
			t.Fatalf("status %d: %v", code, m)
		}
		dists := m["dists"].([]any)
		if len(dists) != 2 || dists[0].(float64) != ix.Query(3, 77) {
			t.Fatalf("dists %v", dists)
		}
	})
	t.Run("batch malformed", func(t *testing.T) {
		for body, want := range map[string]int{
			`{"not":"pairs"}`: http.StatusBadRequest,
			`[[1,2,3]]`:       http.StatusBadRequest, // wrong arity
			`[[1`:             http.StatusBadRequest,
			`[[5,1000]]`:      http.StatusBadRequest, // out of range
			`[[-3,5]]`:        http.StatusBadRequest,
		} {
			code, m := post(t, "/batch", body)
			if code != want {
				t.Errorf("%q: status %d, want %d (%v)", body, code, want, m)
			}
			if m["error"] == nil {
				t.Errorf("%q: no JSON error body", body)
			}
		}
	})
	t.Run("method checks", func(t *testing.T) {
		if code, m := get(t, "/batch"); code != http.StatusMethodNotAllowed || m["error"] == nil {
			t.Errorf("GET /batch: %d %v", code, m)
		}
		if code, m := get(t, "/reload"); code != http.StatusMethodNotAllowed || m["error"] == nil {
			t.Errorf("GET /reload: %d %v", code, m)
		}
		if code, _ := post(t, "/stats", ""); code != http.StatusMethodNotAllowed {
			t.Errorf("POST /stats: %d", code)
		}
	})
	t.Run("stats", func(t *testing.T) {
		code, m := get(t, "/stats")
		if code != http.StatusOK {
			t.Fatalf("status %d", code)
		}
		if m["vertices"].(float64) != 200 || m["generation"].(float64) != 1 {
			t.Fatalf("stats %v", m)
		}
		cache, ok := m["cache"].(map[string]any)
		if !ok {
			t.Fatalf("no cache block in %v", m)
		}
		for _, k := range []string{"hits", "misses", "capacity", "entries"} {
			if _, ok := cache[k]; !ok {
				t.Errorf("cache stats missing %q: %v", k, cache)
			}
		}
	})
	t.Run("reload", func(t *testing.T) {
		path2, _ := saveFlat(t, chl.GenerateScaleFree(150, 3, 9), "http2.flat")
		code, m := post(t, "/reload?path="+path2, "")
		if code != http.StatusOK || m["generation"].(float64) != 2 {
			t.Fatalf("reload: %d %v", code, m)
		}
		if code, m := get(t, "/stats"); code != http.StatusOK || m["vertices"].(float64) != 150 {
			t.Fatalf("stats after reload: %d %v", code, m)
		}
		// Bad reloads are 400 with a JSON error and keep serving.
		if code, m := post(t, "/reload?path=/nonexistent.flat", ""); code != http.StatusBadRequest || m["error"] == nil {
			t.Fatalf("bad reload: %d %v", code, m)
		}
		// A malformed body must not silently reload the current file.
		gen := s.Stats().Generation
		if code, m := post(t, "/reload", "path=whoops.flat"); code != http.StatusBadRequest || m["error"] == nil {
			t.Fatalf("malformed reload body: %d %v", code, m)
		}
		if got := s.Stats().Generation; got != gen {
			t.Fatalf("malformed reload body still swapped: generation %d -> %d", gen, got)
		}
		if code, _ := get(t, "/dist?u=0&v=5"); code != http.StatusOK {
			t.Fatalf("server down after failed reload: %d", code)
		}
	})
	t.Run("healthz", func(t *testing.T) {
		code, m := get(t, "/healthz")
		if code != http.StatusOK || m["ok"] != true {
			t.Fatalf("healthz: %d %v", code, m)
		}
	})
	t.Run("unreachable is -1 in batch", func(t *testing.T) {
		// A disconnected fixture: the sparse random graph has isolated
		// pairs; find one via the index.
		gs := chl.GenerateRandom(100, 40, 9, 3)
		ps, ixs := saveFlat(t, gs, "sparse.flat")
		var u, v int
		found := false
	scan:
		for u = 0; u < 100; u++ {
			for v = u + 1; v < 100; v++ {
				if ixs.Query(u, v) == chl.Infinity {
					found = true
					break scan
				}
			}
		}
		if !found {
			t.Skip("fixture fully connected")
		}
		if _, err := s.Reload(ps); err != nil {
			t.Fatal(err)
		}
		code, m := post(t, "/batch", fmt.Sprintf("[[%d,%d]]", u, v))
		if code != http.StatusOK {
			t.Fatalf("status %d", code)
		}
		if d := m["dists"].([]any)[0].(float64); d != -1 {
			t.Fatalf("unreachable pair encoded as %v, want -1", d)
		}
	})
}

func decodeJSON(t *testing.T, resp *http.Response) (int, map[string]any) {
	t.Helper()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type %q, want application/json", ct)
	}
	var buf bytes.Buffer
	m := map[string]any{}
	if err := json.NewDecoder(io.TeeReader(resp.Body, &buf)).Decode(&m); err != nil {
		t.Fatalf("non-JSON body %q: %v", buf.String(), err)
	}
	return resp.StatusCode, m
}

// BenchmarkServerCachedQuery measures the repeated-pair serving path: a
// working set small enough to live in the cache, answered without
// touching the label arrays.
func BenchmarkServerCachedQuery(b *testing.B) {
	s := benchServer(b, 1<<16)
	defer s.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Query(i%64, (i*7)%512)
	}
}

// BenchmarkServerUncachedQuery is the same traffic with the cache off:
// every query runs a join over the (mmap-backed) label arrays.
func BenchmarkServerUncachedQuery(b *testing.B) {
	s := benchServer(b, 0)
	defer s.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Query(i%64, (i*7)%512)
	}
}

// BenchmarkMappedColdLoad measures the open-validate-first-query cost of
// the mmap path — the "cold start" a reload pays.
func BenchmarkMappedColdLoad(b *testing.B) {
	path := benchFlatFile(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fx, err := chl.OpenFlat(path)
		if err != nil {
			b.Fatal(err)
		}
		fx.Query(i%512, (i*13)%512)
		fx.Close()
	}
}

var (
	benchFlatOnce sync.Once
	benchFlatPath string
)

func benchFlatFile(b *testing.B) string {
	b.Helper()
	benchFlatOnce.Do(func() {
		g := chl.GenerateScaleFree(512, 4, 1)
		ix, err := chl.Build(g, chl.Options{Algorithm: chl.AlgoGLL, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		fx, err := ix.Freeze()
		if err != nil {
			b.Fatal(err)
		}
		dir, err := os.MkdirTemp("", "chlbench")
		if err != nil {
			b.Fatal(err)
		}
		benchFlatPath = filepath.Join(dir, "bench.flat")
		if err := fx.SaveFile(benchFlatPath); err != nil {
			b.Fatal(err)
		}
	})
	return benchFlatPath
}

func benchServer(b *testing.B, cacheCap int) *chl.Server {
	b.Helper()
	s, err := chl.NewServer(benchFlatFile(b), cacheCap)
	if err != nil {
		b.Fatal(err)
	}
	return s
}

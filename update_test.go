package chl_test

// Tests for the dynamic-update subsystem (delta overlay, /update,
// /compact, journals) and the bugfix sweep that rode along with it:
// /knn freshness across hot reloads, the router /matrix mid-stream
// death contract, and compaction under live traffic. The parity
// matrix's patched pass (parity_test.go) covers the twelve-cell
// correctness grid; these tests cover the lifecycle edges around it.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
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
	"repro/internal/shard"
	"repro/internal/sssp"
)

// saveFrozen builds and saves an index for g under dir, returning the
// file path.
func saveFrozen(t *testing.T, g *chl.Graph, dir, name string) string {
	t.Helper()
	_, fx := buildFrozen(t, g)
	path := filepath.Join(dir, name)
	if err := fx.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestKNNFreshAfterReload pins the /knn ↔ /reload interaction: the
// inverted-index transpose behind /knn is built lazily (sync.Once) per
// flat index, and /knn seeds the answer cache with complete pair
// answers. A hot swap must retire both — a /knn served after /reload
// must rank by the new file's labels, and its cache deposits must not
// leak pre-swap answers into post-swap /dist. The audit found the
// per-snapshot ownership already correct (each snapshot carries its own
// FlatIndex and Cache, so transpose and deposits retire with it); this
// test keeps it that way.
func TestKNNFreshAfterReload(t *testing.T) {
	dir := t.TempDir()
	gA := chl.GenerateRandom(160, 500, 9, 21)
	gB := chl.GenerateRandom(160, 500, 9, 22) // same n, different edges
	pathA := saveFrozen(t, gA, dir, "a.flat")
	pathB := saveFrozen(t, gB, dir, "b.flat")

	s, err := chl.NewServer(pathA, 1<<12)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	n := gA.NumVertices()
	sources := []int{0, 31, 77, n - 1}
	oA, oB := newParityOracle(gA), newParityOracle(gB)

	// Warm the lazy transpose and the answer cache on file A.
	checkKNNParity(t, ts.URL, oA, n, sources, []int{3, 8})

	// Hot swap to file B: same vertex count, different edges, so every
	// stale A answer is detectably wrong.
	resp, err := http.Post(ts.URL+"/reload?path="+pathB, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /reload: status %d", resp.StatusCode)
	}

	// The regression surface: a /knn ranked by A's transpose, or a /dist
	// served from A's cache deposits, fails the B oracle.
	checkKNNParity(t, ts.URL, oB, n, sources, []int{3, 8})

	// Reloads racing /knn traffic: every response is well-formed and the
	// final state answers from the last-loaded file.
	var wrong atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				u := rng.Intn(n)
				resp, err := http.Get(fmt.Sprintf("%s/knn?u=%d&k=5", ts.URL, u))
				if err != nil {
					wrong.Add(1)
					continue
				}
				var r knnParityResp
				err = json.NewDecoder(resp.Body).Decode(&r)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					wrong.Add(1)
				}
			}
		}(int64(w))
	}
	paths := []string{pathA, pathB}
	for i := 0; i < 10; i++ {
		if _, err := s.Reload(paths[i%2]); err != nil {
			t.Errorf("reload %d: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
	if wrong.Load() != 0 {
		t.Fatalf("%d /knn requests dropped or malformed during reloads", wrong.Load())
	}
	// 10 reloads starting from A: the live file is B again.
	checkKNNParity(t, ts.URL, oB, n, sources, []int{3, 8})
}

// TestRouterMatrixMidStreamShardDeath pins the router's /matrix
// streaming error contract: when the shard owning some targets dies
// after rows have been streamed (status line long gone, every replica
// down), the stream must end with a terminal {"error": ...} NDJSON line
// — not hang, not trail off mid-stream as if complete. The audit found
// handleMatrix already emits the terminal line; this test keeps it
// that way.
func TestRouterMatrixMidStreamShardDeath(t *testing.T) {
	g := chl.GenerateRandom(240, 400, 9, 3)
	_, fx := buildFrozen(t, g)
	c := startReplicatedCluster(t, fx, 2, 1, 1<<12, nil)
	defer c.close()
	ts := httptest.NewServer(c.router.Handler())
	defer ts.Close()

	n := fx.NumVertices()
	byOwner := verticesByOwner(c.part, n)
	if len(byOwner[0]) < 2 || len(byOwner[1]) < 2 {
		t.Fatalf("degenerate partition: %d/%d vertices", len(byOwner[0]), len(byOwner[1]))
	}
	// Two sources and targets on both shards: every row fans a
	// /shardscan to each shard. Shard 0's only replica serves exactly
	// one scan — source 1's row — then dies, so source 2's row fails
	// with all of shard 0's replicas down.
	sources := []int{byOwner[1][0], byOwner[1][1]}
	targets := []int{byOwner[0][0], byOwner[0][1], byOwner[1][0], byOwner[1][1]}
	orig := *c.flaky[0][0].inner.Load()
	var scans atomic.Int32
	var oneScan http.Handler = http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if strings.HasSuffix(req.URL.Path, "/shardscan") && scans.Add(1) > 1 {
			panic(http.ErrAbortHandler) // connection severed, like a dead process
		}
		orig.ServeHTTP(w, req)
	})
	c.flaky[0][0].inner.Store(&oneScan)

	body, _ := json.Marshal(map[string]any{"sources": sources, "targets": targets})
	resp, err := http.Post(ts.URL+"/matrix", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /matrix: status %d before the stream began", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var lines []map[string]any
	for sc.Scan() {
		var line map[string]any
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("undecodable stream line %q: %v", sc.Text(), err)
		}
		lines = append(lines, line)
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("reading stream: %v", err)
	}
	// Exactly: header, source 1's row, terminal error line.
	if len(lines) != 3 {
		t.Fatalf("stream has %d lines, want header + 1 row + terminal error: %v", len(lines), lines)
	}
	if _, ok := lines[0]["targets"]; !ok {
		t.Fatalf("first line is not the header: %v", lines[0])
	}
	if u, ok := lines[1]["u"].(float64); !ok || int(u) != sources[0] {
		t.Fatalf("second line is not source %d's row: %v", sources[0], lines[1])
	}
	errMsg, ok := lines[2]["error"].(string)
	if !ok || errMsg == "" {
		t.Fatalf("stream did not terminate with an error line: %v", lines[2])
	}
	if _, hasRow := lines[2]["u"]; hasRow {
		t.Fatalf("terminal error line carries row fields: %v", lines[2])
	}
}

// TestServerCompactionUnderLoad is the tentpole's lifecycle soak on the
// flat server: apply patches over HTTP, hammer /dist and /knn from
// concurrent clients, recompact into a fresh snapshot mid-load — zero
// dropped queries — and verify the post-compaction answers equal a
// from-scratch rebuild over the patched graph (strict ==, integer
// weights). Run with -race in CI.
func TestServerCompactionUnderLoad(t *testing.T) {
	dir := t.TempDir()
	g := chl.GenerateRandom(200, 600, 9, 5)
	path := saveFrozen(t, g, dir, "base.flat")
	journal := filepath.Join(dir, "updates.journal")

	s, err := chl.NewServer(path, 1<<12)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.EnableUpdates(g, journal); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	n := g.NumVertices()
	ops := parityPatchOps(g)
	half := len(ops) / 2
	if half == 0 {
		half = len(ops)
	}

	// First patch batch lands before the load starts.
	postUpdate(t, ts.URL, ops[:half])

	var drops atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				var url string
				if rng.Intn(2) == 0 {
					url = fmt.Sprintf("%s/dist?u=%d&v=%d", ts.URL, rng.Intn(n), rng.Intn(n))
				} else {
					url = fmt.Sprintf("%s/knn?u=%d&k=5", ts.URL, rng.Intn(n))
				}
				resp, err := http.Get(url)
				if err != nil {
					drops.Add(1)
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					drops.Add(1)
				}
			}
		}(int64(w))
	}

	// Mid-load: the second patch batch, then recompaction in place.
	if len(ops) > half {
		postUpdate(t, ts.URL, ops[half:])
	}
	resp, err := http.Post(ts.URL+"/compact", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /compact: status %d", resp.StatusCode)
	}
	close(stop)
	wg.Wait()
	if drops.Load() != 0 {
		t.Fatalf("%d queries dropped across the update/compact lifecycle", drops.Load())
	}

	// The compacted snapshot serves label answers again (no overlay),
	// equal to a from-scratch rebuild over the patched graph.
	st := s.Stats()
	if st.Patch != nil {
		t.Fatalf("overlay still outstanding after compaction: %+v", st.Patch)
	}
	if st.Compactions != 1 || st.Updates != 2 {
		t.Fatalf("lifecycle counters: compactions=%d updates=%d, want 1 and 2", st.Compactions, st.Updates)
	}
	patched, err := chl.ApplyPatch(g, ops)
	if err != nil {
		t.Fatal(err)
	}
	_, rebuilt := buildFrozen(t, patched)
	for i := 0; i < 300; i++ {
		u, v := (i*37)%n, (i*101+13)%n
		want := rebuilt.Query(u, v)
		if got := s.Query(u, v); got != want {
			t.Fatalf("post-compaction d(%d,%d) = %v, from-scratch rebuild says %v", u, v, got, want)
		}
	}
	// Compaction folded the journal into the index file: empty replay.
	s2, err := chl.NewServer(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if err := s2.EnableUpdates(patched, journal); err != nil {
		t.Fatal(err)
	}
	if st := s2.Stats(); st.Patch != nil {
		t.Fatalf("journal not truncated by compaction: replay produced %+v", st.Patch)
	}
}

// TestUpdateJournalReplay pins the journal's durability contract on
// both serving tiers: a restart (a fresh Server over the same index
// file, a fresh Router over the same cluster) with the same journal
// replays the accepted batches and answers exactly as the process that
// accepted them — the patched-graph oracle, strict ==.
func TestUpdateJournalReplay(t *testing.T) {
	dir := t.TempDir()
	g := chl.GenerateRandom(180, 520, 9, 11)
	path := saveFrozen(t, g, dir, "base.flat")
	ops := parityPatchOps(g)
	patched, err := chl.ApplyPatch(g, ops)
	if err != nil {
		t.Fatal(err)
	}
	po := newParityOracle(patched)
	n := g.NumVertices()
	var pairs [][2]int
	for i := 0; i < 30; i++ {
		pairs = append(pairs, [2]int{(i * 41) % n, (i*89 + 7) % n})
	}

	t.Run("server", func(t *testing.T) {
		journal := filepath.Join(dir, "server.journal")
		s1, err := chl.NewServer(path, 1<<10)
		if err != nil {
			t.Fatal(err)
		}
		if err := s1.EnableUpdates(g, journal); err != nil {
			t.Fatal(err)
		}
		// Two batches: replay must accumulate, not just take the last.
		if _, err := s1.Update(ops[:1]); err != nil {
			t.Fatal(err)
		}
		if _, err := s1.Update(ops[1:]); err != nil {
			t.Fatal(err)
		}
		s1.Close()

		s2, err := chl.NewServer(path, 1<<10)
		if err != nil {
			t.Fatal(err)
		}
		defer s2.Close()
		if err := s2.EnableUpdates(g, journal); err != nil {
			t.Fatal(err)
		}
		st := s2.Stats()
		if st.Patch == nil || int(st.Patch.Ops) != len(ops) {
			t.Fatalf("replay state %+v, want %d accumulated ops", st.Patch, len(ops))
		}
		for _, p := range pairs {
			if got, want := s2.Query(p[0], p[1]), po.from(p[0])[p[1]]; got != want {
				t.Fatalf("replayed d(%d,%d) = %v, patched oracle says %v", p[0], p[1], got, want)
			}
		}
	})

	t.Run("router", func(t *testing.T) {
		journal := filepath.Join(dir, "router.journal")
		_, fx := buildFrozen(t, g)
		c := newTestCluster(t, fx, clusterSpec{shards: 3, cacheSize: 1 << 10, tweak: func(cfg *chl.RouterConfig) {
			cfg.BaseGraph = g
			cfg.UpdateJournal = journal
		}})
		defer c.close()
		ts := httptest.NewServer(c.router.Handler())
		defer ts.Close()
		postUpdate(t, ts.URL, ops)

		// A second router over the same journal and live backends holds
		// the replayed overlay before its first query.
		groups := make([][]string, len(c.backends))
		for sid, reps := range c.backends {
			for _, b := range reps {
				groups[sid] = append(groups[sid], b.URL)
			}
		}
		r2, err := chl.NewRouter(chl.RouterConfig{
			Manifest: c.manifest, ReplicaAddrs: groups, CacheSize: 1 << 10,
			BaseGraph: g, UpdateJournal: journal,
		})
		if err != nil {
			t.Fatal(err)
		}
		if st := r2.Stats(); st.Patch == nil || int(st.Patch.Ops) != len(ops) {
			t.Fatalf("router patch state right after NewRouter %+v, want %d replayed ops", st.Patch, len(ops))
		}
		for _, p := range pairs {
			got, err := r2.Query(p[0], p[1])
			if err != nil {
				t.Fatalf("replayed router query (%d,%d): %v", p[0], p[1], err)
			}
			if want := po.from(p[0])[p[1]]; got != want {
				t.Fatalf("replayed router d(%d,%d) = %v, patched oracle says %v", p[0], p[1], got, want)
			}
		}
		if st := c.router.Stats(); st.Patch == nil || int(st.Patch.Ops) != len(ops) {
			t.Fatalf("first router patch state %+v, want %d ops", st.Patch, len(ops))
		}
		if st := r2.Stats(); st.Patch == nil || int(st.Patch.Ops) != len(ops) {
			t.Fatalf("replayed router patch state %+v, want %d ops", st.Patch, len(ops))
		}
	})
}

// TestRouterUpdateWithShardDown: a router /update reads nothing from the
// shards — the overlay's rows come from the base graph — so it succeeds
// with every replica of one shard down, and a later query between live
// shards is exact on the patched graph.
func TestRouterUpdateWithShardDown(t *testing.T) {
	g := chl.GenerateRandom(120, 320, 9, 13)
	_, fx := buildFrozen(t, g)
	c := newTestCluster(t, fx, clusterSpec{shards: 3, replicas: 2, cacheSize: 1 << 8, tweak: func(cfg *chl.RouterConfig) { cfg.BaseGraph = g }})
	defer c.close()
	const dead = 2
	for _, b := range c.backends[dead] {
		b.Close()
	}
	ts := httptest.NewServer(c.router.Handler())
	defer ts.Close()
	ops := parityPatchOps(g)
	if got := postRaw(t, ts.URL+"/update", string(chl.FormatPatchLog(ops))); got != http.StatusOK {
		t.Fatalf("router /update with shard %d down: status %d, want 200", dead, got)
	}
	if st := c.router.Stats(); st.Patch == nil || st.Patch.Ops != len(ops) {
		t.Fatalf("patch state after the update: %+v, want %d ops", st.Patch, len(ops))
	}
	patched, err := chl.ApplyPatch(g, ops)
	if err != nil {
		t.Fatal(err)
	}
	po := newParityOracle(patched)
	asked := 0
	for u := 0; u < g.NumVertices(); u += 7 {
		for v := 1; v < g.NumVertices(); v += 11 {
			if c.part.Owner(u) == dead || c.part.Owner(v) == dead {
				continue
			}
			got, err := c.router.Query(u, v)
			if err != nil {
				t.Fatalf("live-shard query (%d,%d): %v", u, v, err)
			}
			if want := po.from(u)[v]; got != want {
				t.Fatalf("live-shard d(%d,%d) = %v, patched oracle says %v", u, v, got, want)
			}
			asked++
		}
	}
	if asked < 50 {
		t.Fatalf("only %d live-shard pairs asked", asked)
	}
}

// TestOverlayPathCounters: every query the overlay answers is counted
// under the one path that answered it — frozen answer certified,
// corrected, exact fallback — in /stats and /metrics on both serving
// tiers, cache hits (corrected answers included) are not, and a new
// patch batch starts the counts over (they describe one patch epoch).
func TestOverlayPathCounters(t *testing.T) {
	g := chl.GenerateRandom(180, 520, 9, 11)
	_, fx := buildFrozen(t, g)
	ops := parityPatchOps(g)
	n := g.NumVertices()
	var pairs [][2]int
	for i := 0; i < 120; i++ {
		pairs = append(pairs, [2]int{(i * 41) % n, (i*89 + 7) % n}) // 41 is a unit mod 180: all distinct
	}

	flat := chl.NewServerFromFlat(fx, 1<<10)
	defer flat.Close()
	if err := flat.EnableUpdates(g, ""); err != nil {
		t.Fatal(err)
	}
	c := newTestCluster(t, fx, clusterSpec{shards: 3, cacheSize: 1 << 10, tweak: func(cfg *chl.RouterConfig) { cfg.BaseGraph = g }})
	defer c.close()

	for _, tier := range []struct {
		name   string
		h      http.Handler
		metric string
		patch  func() *chl.PatchStats
	}{
		{"server", flat.Handler(), "chl_overlay_queries_total", func() *chl.PatchStats { return flat.Stats().Patch }},
		{"router", c.router.Handler(), "chl_router_overlay_queries_total", func() *chl.PatchStats { return c.router.Stats().Patch }},
	} {
		t.Run(tier.name, func(t *testing.T) {
			ts := httptest.NewServer(tier.h)
			defer ts.Close()
			postUpdate(t, ts.URL, ops[:len(ops)-1])
			ask := func() *chl.PatchStats {
				for _, p := range pairs {
					if code := getStatus(t, fmt.Sprintf("%s/dist?u=%d&v=%d", ts.URL, p[0], p[1])); code != http.StatusOK {
						t.Fatalf("/dist (%d,%d): status %d", p[0], p[1], code)
					}
				}
				return tier.patch()
			}
			ps := ask()
			if ps == nil || ps.Frozen+ps.Corrected+ps.Fallback != int64(len(pairs)) {
				t.Fatalf("%d distinct pairs queried, overlay counted %+v", len(pairs), ps)
			}
			if ps.Frozen == 0 || ps.Corrected == 0 {
				t.Fatalf("fixture exercises one path only: %+v", ps)
			}
			// Every answer is cached whole, corrected ones (hub -1)
			// included, so asking again never reaches the overlay.
			if again := ask(); *again != *ps {
				t.Fatalf("cache hits were counted: %+v -> %+v", ps, again)
			}
			ps = tier.patch()
			resp, err := http.Get(ts.URL + "/metrics")
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			for path, want := range map[string]int64{"frozen": ps.Frozen, "corrected": ps.Corrected, "fallback": ps.Fallback} {
				if line := fmt.Sprintf("%s{path=%q} %d\n", tier.metric, path, want); !strings.Contains(string(body), line) {
					t.Errorf("/metrics lacks %q", line)
				}
			}
			postUpdate(t, ts.URL, ops[len(ops)-1:])
			if ps := tier.patch(); ps == nil || ps.Frozen+ps.Corrected+ps.Fallback != 0 {
				t.Fatalf("counts survived into the next patch epoch: %+v", ps)
			}
		})
	}
}

// postRaw POSTs body to url and returns the status code.
func postRaw(t *testing.T, url, body string) int {
	t.Helper()
	resp, err := http.Post(url, "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode
}

// getStatus GETs url and returns the status code.
func getStatus(t *testing.T, url string) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode
}

// TestUpdateEndpointGuards sweeps the /update and /compact rejection
// contract on every tier: 405 for the wrong method, 400 for garbage,
// empty, or invalid patches, 409 when updates were never enabled, 413
// past the body cap, and 421 from a shard server (the router owns the
// cluster's overlay).
func TestUpdateEndpointGuards(t *testing.T) {
	g := chl.GenerateRandom(120, 320, 9, 13)
	_, fx := buildFrozen(t, g)

	t.Run("server", func(t *testing.T) {
		cold := chl.NewServerFromFlat(fx, 0) // EnableUpdates never called
		defer cold.Close()
		coldTS := httptest.NewServer(cold.Handler())
		defer coldTS.Close()
		if got := postRaw(t, coldTS.URL+"/update", "add 0 1 2"); got != http.StatusConflict {
			t.Fatalf("/update without EnableUpdates: status %d, want 409", got)
		}
		if got := postRaw(t, coldTS.URL+"/compact", ""); got != http.StatusConflict {
			t.Fatalf("/compact without EnableUpdates: status %d, want 409", got)
		}

		s := chl.NewServerFromFlat(fx, 0)
		defer s.Close()
		if err := s.EnableUpdates(g, ""); err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		for name, want := range map[string]struct {
			body string
			code int
		}{
			"garbage":             {"not a patch log", http.StatusBadRequest},
			"empty":               {"# comments only\n", http.StatusBadRequest},
			"out-of-range vertex": {"add 0 99999 2", http.StatusBadRequest},
			"oversized":           {strings.Repeat("# padding line\n", 1<<20), http.StatusRequestEntityTooLarge},
		} {
			if got := postRaw(t, ts.URL+"/update", want.body); got != want.code {
				t.Fatalf("/update %s: status %d, want %d", name, got, want.code)
			}
		}
		if got := getStatus(t, ts.URL+"/update"); got != http.StatusMethodNotAllowed {
			t.Fatalf("GET /update: status %d, want 405", got)
		}
		if got := getStatus(t, ts.URL+"/compact"); got != http.StatusMethodNotAllowed {
			t.Fatalf("GET /compact: status %d, want 405", got)
		}
		if got := postRaw(t, ts.URL+"/compact", "{broken json"); got != http.StatusBadRequest {
			t.Fatalf("/compact with a broken body: status %d, want 400", got)
		}
		if got := postRaw(t, ts.URL+"/compact", ""); got != http.StatusBadRequest {
			t.Fatalf("/compact with no outstanding patches: status %d, want 400", got)
		}
	})

	t.Run("cluster", func(t *testing.T) {
		frozen := newTestCluster(t, fx, clusterSpec{shards: 2, cacheSize: 1 << 8})
		defer frozen.close()
		// Shard processes serve frozen slices: updates are misdirected.
		if got := postRaw(t, frozen.backends[0][0].URL+"/update", "add 0 1 2"); got != http.StatusMisdirectedRequest {
			t.Fatalf("/update on a shard server: status %d, want 421", got)
		}
		// A router without BaseGraph never enabled updates.
		frozenTS := httptest.NewServer(frozen.router.Handler())
		defer frozenTS.Close()
		if got := postRaw(t, frozenTS.URL+"/update", "add 0 1 2"); got != http.StatusConflict {
			t.Fatalf("/update on a router without -graph: status %d, want 409", got)
		}

		live := newTestCluster(t, fx, clusterSpec{shards: 2, cacheSize: 1 << 8, tweak: func(cfg *chl.RouterConfig) {
			cfg.BaseGraph = g
		}})
		defer live.close()
		ts := httptest.NewServer(live.router.Handler())
		defer ts.Close()
		for name, want := range map[string]struct {
			body string
			code int
		}{
			"garbage":             {"del", http.StatusBadRequest},
			"empty":               {"\n\n", http.StatusBadRequest},
			"out-of-range vertex": {"add 0 99999 2", http.StatusBadRequest},
			"oversized":           {strings.Repeat("# padding line\n", 1<<20), http.StatusRequestEntityTooLarge},
		} {
			if got := postRaw(t, ts.URL+"/update", want.body); got != want.code {
				t.Fatalf("router /update %s: status %d, want %d", name, got, want.code)
			}
		}
		if got := getStatus(t, ts.URL+"/update"); got != http.StatusMethodNotAllowed {
			t.Fatalf("router GET /update: status %d, want 405", got)
		}
	})
}

// TestUpdateRefusesNonFiniteWeight: an op handed to Update in code skips
// the patch-log parser, so Reduce holds its weight to the parser's rule,
// and a refused batch is neither journaled nor published — on the server
// (its generation stays put) and on a journaled router (its patch epoch
// does).
func TestUpdateRefusesNonFiniteWeight(t *testing.T) {
	g := chl.GenerateRandom(120, 320, 9, 13)
	_, fx := buildFrozen(t, g)
	ops := parityPatchOps(g) // dels, then sets of present edges, then adds of absent ones
	set, add := ops[len(ops)/2], ops[len(ops)-1]
	if set.Kind != chl.EdgeOpSet || add.Kind != chl.EdgeOpAdd {
		t.Fatalf("fixture ops changed shape: %v", ops)
	}
	// refuses applies one batch through update, then checks that each
	// non-finite op is refused and leaves the journal and mark() as they were.
	refuses := func(t *testing.T, journal string, update func([]chl.EdgeOp) error, mark func() uint64) {
		if err := update(ops[:1]); err != nil {
			t.Fatal(err)
		}
		wantJournal, err := os.ReadFile(journal)
		if err != nil {
			t.Fatal(err)
		}
		before := mark()
		for _, bad := range []chl.EdgeOp{
			{Kind: chl.EdgeOpSet, U: set.U, V: set.V, W: math.Inf(1)},
			{Kind: chl.EdgeOpSet, U: set.U, V: set.V, W: math.NaN()},
			{Kind: chl.EdgeOpAdd, U: add.U, V: add.V, W: math.Inf(1)},
		} {
			if err := update([]chl.EdgeOp{bad}); err == nil || !strings.Contains(err.Error(), "want positive finite") {
				t.Fatalf("Update(%v): error %v, want a positive-finite refusal", bad, err)
			}
			if got := mark(); got != before {
				t.Fatalf("Update(%v) was refused but moved %d -> %d", bad, before, got)
			}
			if got, err := os.ReadFile(journal); err != nil || !bytes.Equal(got, wantJournal) {
				t.Fatalf("Update(%v) was refused but the journal is now %q (%v), was %q", bad, got, err, wantJournal)
			}
		}
	}

	t.Run("server", func(t *testing.T) {
		s := chl.NewServerFromFlat(fx, 0)
		defer s.Close()
		journal := filepath.Join(t.TempDir(), "updates.journal")
		if err := s.EnableUpdates(g, journal); err != nil {
			t.Fatal(err)
		}
		refuses(t, journal,
			func(b []chl.EdgeOp) error { _, err := s.Update(b); return err },
			func() uint64 { return s.Stats().Generation })
	})

	t.Run("router", func(t *testing.T) {
		journal := filepath.Join(t.TempDir(), "updates.journal")
		c := newTestCluster(t, fx, clusterSpec{shards: 2, cacheSize: 1 << 8, tweak: func(cfg *chl.RouterConfig) {
			cfg.BaseGraph = g
			cfg.UpdateJournal = journal
		}})
		defer c.close()
		refuses(t, journal,
			func(b []chl.EdgeOp) error { _, err := c.router.Update(b); return err },
			func() uint64 { return c.router.Stats().Patch.Epoch })
	})
}

// TestEnableUpdatesIsOneWay: a second EnableUpdates would swap the base
// graph under the outstanding patch log, so later batches would be reduced
// against the wrong graph. It is refused, and answers stay exact.
func TestEnableUpdatesIsOneWay(t *testing.T) {
	g := chl.GenerateRoadGrid(6, 6, 1)
	_, fx := buildFrozen(t, g)
	s := chl.NewServerFromFlat(fx, 0)
	defer s.Close()
	if err := s.EnableUpdates(g, ""); err != nil {
		t.Fatal(err)
	}
	first := []chl.EdgeOp{{Kind: chl.EdgeOpSet, U: 0, V: 1, W: 50}}
	if _, err := s.Update(first); err != nil {
		t.Fatal(err)
	}
	patched, err := chl.ApplyPatch(g, first)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.EnableUpdates(patched, ""); err == nil {
		t.Fatal("a second EnableUpdates was accepted")
	}
	second := []chl.EdgeOp{{Kind: chl.EdgeOpSet, U: 2, V: 3, W: 40}}
	if _, err := s.Update(second); err != nil {
		t.Fatal(err)
	}
	final, err := chl.ApplyPatch(g, append(first, second...))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := s.Query(0, 1), sssp.Dijkstra(final, 0)[1]; got != want {
		t.Fatalf("Query(0, 1) = %v after the refused switch, Dijkstra on the patched graph says %v", got, want)
	}
}

// halfWeights is g with every edge at half its weight: the same vertices,
// edges and directedness, counted in a finer unit.
func halfWeights(g *chl.Graph) *chl.Graph {
	b := chl.NewGraphBuilder(g.NumVertices(), g.Directed())
	for u := 0; u < g.NumVertices(); u++ {
		heads, ws := g.Neighbors(u)
		for i, h := range heads {
			if v := int(h); g.Directed() || u < v {
				b.AddEdge(u, v, g.FromUnits(uint64(ws[i]))/2)
			}
		}
	}
	return b.MustFinish()
}

// TestBaseGraphUnitRefused: labels count distances in their graph's own
// unit 2^-k, so a base graph in another unit is not the graph they were
// built from, even over the same vertices and edges. Accepting one
// corrects the labels against the wrong weights — with the edges at half
// weight, del 0 1 would serve d(0,35) = 22 where the frozen labels say 34,
// and a deletion cannot shorten a path. EnableUpdates, a reload on an
// updating server and NewRouter each refuse it, naming both units.
func TestBaseGraphUnitRefused(t *testing.T) {
	g := chl.GenerateRoadGrid(6, 6, 1)
	half := halfWeights(g)
	ix, err := chl.Build(g, chl.Options{Algorithm: chl.AlgoSeqPLL})
	if err != nil {
		t.Fatal(err)
	}
	fx, err := ix.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	k, kHalf := g.WeightUnitExp(), half.WeightUnitExp()
	if k == kHalf {
		t.Fatalf("fixture: halving the weights kept the unit 2^-%d", k)
	}
	namesBoth := func(what string, err error) {
		t.Helper()
		if err == nil {
			t.Fatalf("%s: labels and a base graph in different units (2^-%d, 2^-%d) were accepted together", what, k, kHalf)
		}
		for _, unit := range []string{fmt.Sprintf("2^-%d ", k), fmt.Sprintf("2^-%d ", kHalf)} {
			if !strings.Contains(err.Error()+" ", unit) {
				t.Fatalf("%s: %q does not name the unit %s", what, err, unit)
			}
		}
	}

	s := chl.NewServerFromFlat(fx, 0)
	defer s.Close()
	namesBoth("EnableUpdates", s.EnableUpdates(half, ""))

	dir := t.TempDir()
	own, other := filepath.Join(dir, "own.flat"), saveFrozen(t, half, dir, "half.flat")
	if err := fx.SaveFile(own); err != nil {
		t.Fatal(err)
	}
	updating, err := chl.NewServer(own, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer updating.Close()
	if err := updating.EnableUpdates(g, ""); err != nil {
		t.Fatal(err)
	}
	_, err = updating.Reload(other)
	namesBoth("Reload", err)

	m, err := fx.SaveShards(filepath.Join(dir, "cluster"), 2, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	// The refusal comes before any shard is contacted.
	_, err = chl.NewRouter(chl.RouterConfig{Manifest: m, Addrs: []string{"http://127.0.0.1:1", "http://127.0.0.1:2"}, BaseGraph: half})
	namesBoth("NewRouter", err)
}

// TestSetShardRefusesUpdatingServer: SetShard refuses a server with updates
// enabled, just as EnableUpdates refuses a shard — a shard's overlay would
// see only its own slice of the vertex space. The slice is a valid one: a
// second server over the same file becomes the shard.
func TestSetShardRefusesUpdatingServer(t *testing.T) {
	g := chl.GenerateRoadGrid(6, 6, 1)
	_, fx := buildFrozen(t, g)
	dir := t.TempDir()
	m, err := fx.SaveShards(dir, 2, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	part, err := m.Partition()
	if err != nil {
		t.Fatal(err)
	}
	path, err := chl.ShardFilePath(filepath.Join(dir, shard.ManifestName), m, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, updating := range []bool{true, false} {
		s, err := chl.NewServer(path, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if updating {
			if err := s.EnableUpdates(g, ""); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.SetShard(0, part); (err == nil) == updating {
			t.Fatalf("updates enabled %v: SetShard returned %v", updating, err)
		}
	}
}

// TestCompactDescribesItsOwnGeneration interleaves /compact with /reload
// of a different file (same vertex space, compressed, so a different
// size): every /compact body must describe the generation the compaction
// installed — its generation, the compaction's path — never one a racing
// reload published after it, and no generation may be described twice.
func TestCompactDescribesItsOwnGeneration(t *testing.T) {
	dir := t.TempDir()
	g := chl.GenerateRandom(120, 320, 9, 13)
	path := saveFrozen(t, g, dir, "base.flat")
	ix, _ := buildFrozen(t, g)
	cfx, err := ix.FreezeCompressed()
	if err != nil {
		t.Fatal(err)
	}
	other := filepath.Join(dir, "other.cflat")
	if err := cfx.SaveFile(other); err != nil {
		t.Fatal(err)
	}
	s, err := chl.NewServer(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.EnableUpdates(g, ""); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	var edge string // "set u v " over some edge of g
	for u := 0; edge == ""; u++ {
		if heads, _ := g.Neighbors(u); len(heads) > 0 {
			edge = fmt.Sprintf("set %d %d ", u, heads[0])
		}
	}
	compacted := filepath.Join(dir, "compacted.flat")

	type described struct {
		Generation uint64 `json:"generation"`
		Path       string `json:"path"`
	}
	post := func(url, body string) (int, described) {
		resp, err := http.Post(url, "text/plain", strings.NewReader(body))
		if err != nil {
			t.Errorf("POST %s: %v", url, err)
			return 0, described{}
		}
		defer resp.Body.Close()
		var d described
		if resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&d); err != nil {
				t.Errorf("POST %s: %v", url, err)
			}
		}
		return resp.StatusCode, d
	}

	var (
		mu   sync.Mutex
		seen = map[uint64]string{} // generation -> the path its body named
	)
	note := func(who string, d described) {
		mu.Lock()
		defer mu.Unlock()
		if prev, dup := seen[d.Generation]; dup {
			t.Errorf("%s described generation %d (%s), already described as %s", who, d.Generation, d.Path, prev)
		}
		seen[d.Generation] = d.Path
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				// Refused (400) while updates are outstanding; lands between
				// a compaction and the next update.
				if code, d := post(ts.URL+"/reload?path="+other, ""); code == http.StatusOK {
					note("/reload", d)
				}
			}
		}()
	}
	for i := 0; i < 100; i++ {
		if code, _ := post(ts.URL+"/update", edge+fmt.Sprint(11+i%3)); code != http.StatusOK {
			t.Fatalf("update %d: status %d", i, code)
		}
		code, d := post(ts.URL+"/compact?path="+compacted, "")
		if code != http.StatusOK {
			t.Fatalf("compact %d: status %d", i, code)
		}
		if d.Path != compacted {
			t.Errorf("compact %d answered generation %d with path %q, not the %q it wrote", i, d.Generation, d.Path, compacted)
		}
		note("/compact", d)
	}
	close(stop)
	wg.Wait()
}

// shardTraffic counts, per shard, the requests a router's HTTP client
// sends, as "METHOD /path".
type shardTraffic struct {
	mu     sync.Mutex
	shards map[string]int // listener host -> shard id
	counts []map[string]int
}

// client is the router's HTTP client, counting every request it sends.
func (tr *shardTraffic) client() *http.Client {
	return &http.Client{Transport: roundTripFunc(func(req *http.Request) (*http.Response, error) {
		tr.mu.Lock()
		if sid, ok := tr.shards[req.URL.Host]; ok {
			tr.counts[sid][req.Method+" "+req.URL.Path]++
		}
		tr.mu.Unlock()
		return http.DefaultTransport.RoundTrip(req)
	})}
}

// watch names c's listeners by shard and starts counting from zero.
func (tr *shardTraffic) watch(c *testCluster) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.shards = map[string]int{}
	for sid, group := range c.backends {
		for _, ts := range group {
			tr.shards[strings.TrimPrefix(ts.URL, "http://")] = sid
		}
	}
	tr.counts = make([]map[string]int, len(c.backends))
	for sid := range tr.counts {
		tr.counts[sid] = map[string]int{}
	}
}

// take returns the counts since the last take, or since watch.
func (tr *shardTraffic) take() []map[string]int {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	out := tr.counts
	tr.counts = make([]map[string]int, len(out))
	for sid := range tr.counts {
		tr.counts[sid] = map[string]int{}
	}
	return out
}

// TestOverlayRoutesAsFrozen: an outstanding patch batch changes no route.
// On a 2-shard router with BaseGraph and one patch batch, a same-shard
// /dist reaches its shard as exactly one GET /dist, a same-shard /batch
// group as one POST /batch, neither fetches a row (/shardquery), and a
// repeated /dist of a corrected pair (hub -1) is answered from the
// router's cache without a shard request. Every answer is the patched
// graph's.
func TestOverlayRoutesAsFrozen(t *testing.T) {
	g := chl.GenerateRoadGrid(12, 12, 1)
	_, fx := buildFrozen(t, g)
	traffic := &shardTraffic{}
	c := newTestCluster(t, fx, clusterSpec{shards: 2, cacheSize: 1 << 10, tweak: func(cfg *chl.RouterConfig) {
		cfg.BaseGraph = g
		cfg.Client = traffic.client()
	}})
	defer c.close()
	traffic.watch(c)
	ts := httptest.NewServer(c.router.Handler())
	defer ts.Close()
	ops, err := chl.ParsePatchLog([]byte("add 0 143 1\n"))
	if err != nil {
		t.Fatal(err)
	}
	postUpdate(t, ts.URL, ops)
	patched, err := chl.ApplyPatch(g, ops)
	if err != nil {
		t.Fatal(err)
	}
	oracle := newParityOracle(patched)

	// A same-shard pair the new edge shortens (so its answer is
	// corrected, hub -1), and a group of other same-shard pairs on one
	// shard for /batch.
	n := g.NumVertices()
	cu, cv := -1, -1
	var group [][2]int
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			switch {
			case c.part.Owner(u) != c.part.Owner(v):
			case cu < 0 && oracle.from(u)[v] < fx.Query(u, v):
				cu, cv = u, v
			case len(group) < 6 && (len(group) == 0 || c.part.Owner(u) == c.part.Owner(group[0][0])):
				group = append(group, [2]int{u, v})
			}
		}
	}
	if cu < 0 || len(group) < 6 {
		t.Fatalf("fixture has no corrected same-shard pair (%d,%d) or too small a group %v", cu, cv, group)
	}
	// want checks that shard sid got exactly one request, path, and every
	// other shard none (sid -1: no shard got any).
	want := func(what string, got []map[string]int, sid int, path string) {
		t.Helper()
		for s, paths := range got {
			switch {
			case s == sid && (len(paths) != 1 || paths[path] != 1):
				t.Errorf("%s: shard %d got %v, want exactly one %s", what, s, paths, path)
			case s != sid && len(paths) != 0:
				t.Errorf("%s: shard %d got %v, want no request", what, s, paths)
			}
		}
	}
	traffic.take() // the update contacts no shard; start clean anyway

	dist := func() (float64, float64) {
		resp, err := http.Get(fmt.Sprintf("%s/dist?u=%d&v=%d", ts.URL, cu, cv))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		code, body := decodeJSON(t, resp)
		if code != http.StatusOK {
			t.Fatalf("/dist (%d,%d): status %d %v", cu, cv, code, body)
		}
		return body["dist"].(float64), body["hub"].(float64)
	}
	d, hub := dist()
	if d != oracle.from(cu)[cv] || hub != -1 {
		t.Fatalf("/dist (%d,%d) = %v hub %v, want the corrected %v hub -1", cu, cv, d, hub, oracle.from(cu)[cv])
	}
	want("same-shard /dist", traffic.take(), c.part.Owner(cu), "GET /dist")
	if d2, hub2 := dist(); d2 != d || hub2 != hub {
		t.Fatalf("repeated /dist (%d,%d) = %v hub %v, first %v hub %v", cu, cv, d2, hub2, d, hub)
	}
	want("repeated /dist of a corrected pair", traffic.take(), -1, "")

	body, _ := json.Marshal(group)
	resp, err := http.Post(ts.URL+"/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	code, got := decodeJSON(t, resp)
	resp.Body.Close()
	if code != http.StatusOK {
		t.Fatalf("/batch: status %d %v", code, got)
	}
	for i, p := range group {
		if d := got["dists"].([]any)[i].(float64); d != oracle.from(p[0])[p[1]] {
			t.Fatalf("/batch (%d,%d) = %v, patched Dijkstra says %v", p[0], p[1], d, oracle.from(p[0])[p[1]])
		}
	}
	want("same-shard /batch group", traffic.take(), c.part.Owner(group[0][0]), "POST /batch")
}

// TestRouterRefusedCacheEntryIsAMiss: /batch caches a cross-shard pair
// without its witness, so a later /dist, which needs one, routes the pair
// again — and the router's /stats counts that lookup a miss, not a hit.
func TestRouterRefusedCacheEntryIsAMiss(t *testing.T) {
	g := chl.GenerateRoadGrid(12, 12, 1)
	_, fx := buildFrozen(t, g)
	c := newTestCluster(t, fx, clusterSpec{shards: 2, cacheSize: 1 << 10})
	defer c.close()
	ts := httptest.NewServer(c.router.Handler())
	defer ts.Close()
	u, v := 0, 1
	for c.part.Owner(u) == c.part.Owner(v) {
		v++
	}
	if code := postRaw(t, ts.URL+"/batch", fmt.Sprintf("[[%d,%d]]", u, v)); code != http.StatusOK {
		t.Fatalf("/batch: status %d", code)
	}
	before := *c.router.Stats().Cache
	if code := getStatus(t, fmt.Sprintf("%s/dist?u=%d&v=%d", ts.URL, u, v)); code != http.StatusOK {
		t.Fatalf("/dist: status %d", code)
	}
	after := *c.router.Stats().Cache
	if after.Hits != before.Hits || after.Misses != before.Misses+1 {
		t.Fatalf("/dist of a /batch-cached pair: hits %d -> %d, misses %d -> %d; want hits unchanged, misses +1",
			before.Hits, after.Hits, before.Misses, after.Misses)
	}
}

// TestKNNUnderOverlayCountsOneQuery: under an overlay /knn answers each
// of its k winners through the tier's own pair path, but they are that
// /knn's answers, not queries of their own: one k=3 /knn adds exactly 1
// to queries_total on both tiers.
func TestKNNUnderOverlayCountsOneQuery(t *testing.T) {
	g := chl.GenerateRoadGrid(12, 12, 1)
	_, fx := buildFrozen(t, g)
	ops, err := chl.ParsePatchLog([]byte("add 0 143 1\n"))
	if err != nil {
		t.Fatal(err)
	}
	flat := chl.NewServerFromFlat(fx, 1<<10)
	defer flat.Close()
	if err := flat.EnableUpdates(g, ""); err != nil {
		t.Fatal(err)
	}
	c := newTestCluster(t, fx, clusterSpec{shards: 2, cacheSize: 1 << 10, tweak: func(cfg *chl.RouterConfig) { cfg.BaseGraph = g }})
	defer c.close()
	for _, tier := range []struct {
		name    string
		h       http.Handler
		queries func() int64
	}{
		{"server", flat.Handler(), func() int64 { return flat.Stats().Queries }},
		{"router", c.router.Handler(), func() int64 { return c.router.Stats().Queries }},
	} {
		t.Run(tier.name, func(t *testing.T) {
			ts := httptest.NewServer(tier.h)
			defer ts.Close()
			postUpdate(t, ts.URL, ops)
			before := tier.queries()
			resp, err := http.Get(ts.URL + "/knn?u=0&k=3")
			if err != nil {
				t.Fatal(err)
			}
			code, body := decodeJSON(t, resp)
			resp.Body.Close()
			if nbs, _ := body["neighbors"].([]any); code != http.StatusOK || len(nbs) != 3 {
				t.Fatalf("/knn?u=0&k=3: status %d %v, want 3 neighbors", code, body)
			}
			if got := tier.queries() - before; got != 1 {
				t.Fatalf("one /knn under an overlay added %d to queries_total, want 1", got)
			}
		})
	}
}

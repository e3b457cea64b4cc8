package chl_test

// The cross-stack parity harness: every query workload (/dist, /paths,
// /knn, /matrix), over every storage format (fixed-width packed,
// compressed), both directednesses, on every serving topology
// (single process, sharded 3×1, replicated 2×2), answered over HTTP and
// checked bit-for-bit against a naive in-memory Dijkstra oracle. Labels
// carry float32-exact integer weights and every tier sums legs in
// float64, so the assertions are ==, not approximately-equal: one bit
// of drift anywhere in the stack fails the matrix.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	chl "repro"
	"repro/internal/sssp"
)

// parityOracle answers by single-source Dijkstra over the original
// graph, memoized per source.
type parityOracle struct {
	g    *chl.Graph
	rows map[int][]float64
}

func newParityOracle(g *chl.Graph) *parityOracle {
	return &parityOracle{g: g, rows: map[int][]float64{}}
}

func (o *parityOracle) from(u int) []float64 {
	if d, ok := o.rows[u]; ok {
		return d
	}
	d := sssp.Dijkstra(o.g, u)
	o.rows[u] = d
	return d
}

// parityStack is one serving topology under test, reduced to the only
// thing the workload checks need: the base URL of its public HTTP
// surface.
type parityStack struct {
	name string
	base string
}

// parityStacks starts all three topologies over fx: the single-process
// server, a 3-shard cluster, and a 2×2 replicated cluster. Listeners
// and serving processes are torn down by t.Cleanup. A non-nil g enables
// dynamic updates on every stack (EnableUpdates on the flat server,
// RouterConfig.BaseGraph on the clusters) so the patched parity pass
// can POST /update to each.
func parityStacks(t *testing.T, fx *chl.FlatIndex, g *chl.Graph) []parityStack {
	t.Helper()
	flat := chl.NewServerFromFlat(fx, 1<<12)
	if g != nil {
		if err := flat.EnableUpdates(g, ""); err != nil {
			t.Fatal(err)
		}
	}
	flatTS := httptest.NewServer(flat.Handler())
	t.Cleanup(func() { flatTS.Close(); flat.Close() })

	tweak := func(cfg *chl.RouterConfig) { cfg.BaseGraph = g }
	sharded := newTestCluster(t, fx, clusterSpec{shards: 3, cacheSize: 1 << 12, tweak: tweak})
	shardedTS := httptest.NewServer(sharded.router.Handler())
	t.Cleanup(func() { shardedTS.Close(); sharded.close() })

	replicated := newTestCluster(t, fx, clusterSpec{shards: 2, replicas: 2, cacheSize: 1 << 12, tweak: tweak})
	replicatedTS := httptest.NewServer(replicated.router.Handler())
	t.Cleanup(func() { replicatedTS.Close(); replicated.close() })

	return []parityStack{
		{"flat", flatTS.URL},
		{"sharded", shardedTS.URL},
		{"replicated", replicatedTS.URL},
	}
}

// parityPatchOps derives a deterministic patch batch from g exercising
// all three op kinds: deletions and reweights of existing edges spread
// across the vertex range, insertions of absent ones. Weights stay
// small integers so every patched distance remains float32-exact and
// the parity assertions stay ==.
func parityPatchOps(g *chl.Graph) []chl.EdgeOp {
	n := g.NumVertices()
	var dels, sets []chl.EdgeOp
	for step := 0; step < n && len(dels)+len(sets) < 6; step++ {
		u := (step * 61) % n
		heads, _ := g.Neighbors(u)
		for _, h := range heads {
			v := int(h)
			if u == v || (!g.Directed() && v < u) {
				continue
			}
			if len(dels) < 3 {
				dels = append(dels, chl.EdgeOp{Kind: chl.EdgeOpDel, U: u, V: v})
			} else if len(sets) < 3 {
				sets = append(sets, chl.EdgeOp{Kind: chl.EdgeOpSet, U: u, V: v, W: float64(2 + step%7)})
			}
			break // at most one op per source vertex
		}
	}
	taken := map[[2]int]bool{}
	for _, op := range dels {
		taken[[2]int{op.U, op.V}] = true
	}
	for _, op := range sets {
		taken[[2]int{op.U, op.V}] = true
	}
	var adds []chl.EdgeOp
	for i := 1; len(adds) < 3 && i < 4*n; i++ {
		u, v := (i*53)%n, (i*97+29)%n
		if u == v || taken[[2]int{u, v}] || taken[[2]int{v, u}] {
			continue
		}
		if _, has := g.HasEdge(u, v); has {
			continue
		}
		if !g.Directed() {
			if _, has := g.HasEdge(v, u); has {
				continue
			}
		}
		taken[[2]int{u, v}] = true
		taken[[2]int{v, u}] = true
		adds = append(adds, chl.EdgeOp{Kind: chl.EdgeOpAdd, U: u, V: v, W: float64(1 + i%6)})
	}
	ops := append(append(dels, sets...), adds...)
	if len(ops) == 0 {
		panic("parityPatchOps: fixture graph yielded no ops")
	}
	return ops
}

// postUpdate POSTs ops as a text patch log to the stack's /update.
func postUpdate(t *testing.T, base string, ops []chl.EdgeOp) {
	t.Helper()
	resp, err := http.Post(base+"/update", "text/plain", bytes.NewReader(chl.FormatPatchLog(ops)))
	if err != nil {
		t.Fatalf("POST /update: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body := new(bytes.Buffer)
		body.ReadFrom(resp.Body)
		t.Fatalf("POST /update: status %d: %s", resp.StatusCode, body.String())
	}
}

// getParity GETs url and decodes the JSON body into out, failing the
// test on any non-200.
func getParity(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("GET %s: undecodable body: %v", url, err)
	}
}

type distParityResp struct {
	Reachable bool    `json:"reachable"`
	Dist      float64 `json:"dist"`
	Hub       int     `json:"hub"`
}

type pathsParityResp struct {
	Reachable bool    `json:"reachable"`
	Dist      float64 `json:"dist"`
	Path      []int   `json:"path"`
}

type knnParityResp struct {
	Neighbors []chl.Neighbor `json:"neighbors"`
}

// checkDistParity sweeps pairs through GET /dist against the oracle.
func checkDistParity(t *testing.T, base string, o *parityOracle, pairs [][2]int) {
	t.Helper()
	for _, p := range pairs {
		u, v := p[0], p[1]
		var r distParityResp
		getParity(t, fmt.Sprintf("%s/dist?u=%d&v=%d", base, u, v), &r)
		want := o.from(u)[v]
		if reach := want != chl.Infinity; r.Reachable != reach {
			t.Fatalf("/dist(%d,%d) reachable = %v, oracle says %v", u, v, r.Reachable, reach)
		}
		if r.Reachable && r.Dist != want {
			t.Fatalf("/dist(%d,%d) = %v, oracle says %v", u, v, r.Dist, want)
		}
	}
}

// checkPathsParity verifies GET /paths on each pair: the total is the
// oracle's distance, the sequence is a u→…→v walk whose every waypoint
// provably lies on a shortest path, and — the acceptance bar — the
// consecutive segments' own /dist answers re-sum to the total bit for
// bit.
func checkPathsParity(t *testing.T, base string, o *parityOracle, pairs [][2]int) {
	t.Helper()
	for _, p := range pairs {
		u, v := p[0], p[1]
		var r pathsParityResp
		getParity(t, fmt.Sprintf("%s/paths?u=%d&v=%d", base, u, v), &r)
		want := o.from(u)[v]
		if reach := want != chl.Infinity; r.Reachable != reach {
			t.Fatalf("/paths(%d,%d) reachable = %v, oracle says %v", u, v, r.Reachable, reach)
		}
		if !r.Reachable {
			if len(r.Path) != 0 {
				t.Fatalf("/paths(%d,%d) unreachable but returned a path %v", u, v, r.Path)
			}
			continue
		}
		if r.Dist != want {
			t.Fatalf("/paths(%d,%d) dist = %v, oracle says %v", u, v, r.Dist, want)
		}
		if len(r.Path) < 1 || r.Path[0] != u || r.Path[len(r.Path)-1] != v {
			t.Fatalf("/paths(%d,%d) sequence %v does not run u→v", u, v, r.Path)
		}
		seen := map[int]bool{}
		for _, w := range r.Path {
			if seen[w] {
				t.Fatalf("/paths(%d,%d) revisits vertex %d: %v", u, v, w, r.Path)
			}
			seen[w] = true
			// Every waypoint lies on a shortest u→v path.
			if o.from(u)[w]+o.from(w)[v] != want {
				t.Fatalf("/paths(%d,%d): waypoint %d is off every shortest path (%v + %v vs %v)",
					u, v, w, o.from(u)[w], o.from(w)[v], want)
			}
		}
		// Segments re-sum to the total through the same stack's /dist.
		var sum float64
		for i := 0; i+1 < len(r.Path); i++ {
			a, b := r.Path[i], r.Path[i+1]
			var seg distParityResp
			getParity(t, fmt.Sprintf("%s/dist?u=%d&v=%d", base, a, b), &seg)
			if !seg.Reachable || seg.Dist != o.from(a)[b] {
				t.Fatalf("/paths(%d,%d): segment (%d,%d) /dist = (%v,%v), oracle says %v",
					u, v, a, b, seg.Dist, seg.Reachable, o.from(a)[b])
			}
			sum += seg.Dist
		}
		if sum != r.Dist {
			t.Fatalf("/paths(%d,%d): segments re-sum to %v, total says %v", u, v, sum, r.Dist)
		}
	}
}

// checkKNNParity verifies GET /knn: the result is exactly the oracle's
// k nearest reachable targets under the (distance, vertex) order, and
// every neighbor's (dist, hub) is the stack's own /dist answer for that
// pair.
func checkKNNParity(t *testing.T, base string, o *parityOracle, n int, sources []int, ks []int) {
	t.Helper()
	for _, u := range sources {
		du := o.from(u)
		var all []chl.Neighbor
		for v := 0; v < n; v++ {
			if v != u && du[v] != chl.Infinity {
				all = append(all, chl.Neighbor{V: v, Dist: du[v]})
			}
		}
		// Already sorted by (dist, v)? No — by v; sort by (dist, v).
		for i := 1; i < len(all); i++ {
			for j := i; j > 0 && (all[j].Dist < all[j-1].Dist || (all[j].Dist == all[j-1].Dist && all[j].V < all[j-1].V)); j-- {
				all[j], all[j-1] = all[j-1], all[j]
			}
		}
		for _, k := range ks {
			if k < 1 || k > n {
				continue
			}
			var r knnParityResp
			getParity(t, fmt.Sprintf("%s/knn?u=%d&k=%d", base, u, k), &r)
			wantLen := k
			if len(all) < k {
				wantLen = len(all)
			}
			if len(r.Neighbors) != wantLen {
				t.Fatalf("/knn(%d,%d) returned %d neighbors, oracle says %d", u, k, len(r.Neighbors), wantLen)
			}
			for i, nb := range r.Neighbors {
				if nb.V != all[i].V || nb.Dist != all[i].Dist {
					t.Fatalf("/knn(%d,%d)[%d] = (%d,%v), oracle says (%d,%v)", u, k, i, nb.V, nb.Dist, all[i].V, all[i].Dist)
				}
				var d distParityResp
				getParity(t, fmt.Sprintf("%s/dist?u=%d&v=%d", base, u, nb.V), &d)
				if !d.Reachable || d.Dist != nb.Dist || d.Hub != nb.Hub {
					t.Fatalf("/knn(%d,%d)[%d]: neighbor (%d,%v,hub %d) disagrees with /dist (%v,%v,hub %d)",
						u, k, i, nb.V, nb.Dist, nb.Hub, d.Dist, d.Reachable, d.Hub)
				}
			}
		}
	}
}

// checkMatrixParity POSTs one sources × targets /matrix request and
// verifies the NDJSON stream line by line against the oracle: the
// header first, then one row per source in request order, -1 marking
// unreachable.
func checkMatrixParity(t *testing.T, base string, o *parityOracle, sources, targets []int) {
	t.Helper()
	body, _ := json.Marshal(map[string]any{"sources": sources, "targets": targets})
	resp, err := http.Post(base+"/matrix", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /matrix: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /matrix: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("POST /matrix: Content-Type %q, want application/x-ndjson", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	if !sc.Scan() {
		t.Fatal("/matrix stream ended before the header line")
	}
	var header struct {
		Targets []int `json:"targets"`
		Rows    int   `json:"rows"`
	}
	if err := json.Unmarshal(sc.Bytes(), &header); err != nil {
		t.Fatalf("/matrix header line: %v", err)
	}
	if header.Rows != len(sources) || len(header.Targets) != len(targets) {
		t.Fatalf("/matrix header = %d rows × %d targets, want %d × %d", header.Rows, len(header.Targets), len(sources), len(targets))
	}
	for i, tgt := range header.Targets {
		if tgt != targets[i] {
			t.Fatalf("/matrix header target[%d] = %d, want %d", i, tgt, targets[i])
		}
	}
	for _, u := range sources {
		if !sc.Scan() {
			t.Fatalf("/matrix stream ended before source %d's row", u)
		}
		var row struct {
			U     int       `json:"u"`
			Dists []float64 `json:"dists"`
			Error string    `json:"error"`
		}
		if err := json.Unmarshal(sc.Bytes(), &row); err != nil {
			t.Fatalf("/matrix row line: %v", err)
		}
		if row.Error != "" {
			t.Fatalf("/matrix stream aborted: %s", row.Error)
		}
		if row.U != u || len(row.Dists) != len(targets) {
			t.Fatalf("/matrix row u=%d with %d dists, want u=%d with %d", row.U, len(row.Dists), u, len(targets))
		}
		du := o.from(u)
		for j, v := range targets {
			want := du[v]
			if want == chl.Infinity {
				want = -1
			}
			if row.Dists[j] != want {
				t.Fatalf("/matrix row %d target %d = %v, oracle says %v", u, v, row.Dists[j], want)
			}
		}
	}
	if sc.Scan() {
		t.Fatalf("/matrix stream has trailing data after the last row: %q", sc.Text())
	}
}

// TestWorkloadParityMatrix is the harness: {packed, compressed} ×
// {undirected, directed} × {flat, sharded, replicated} × {dist, paths,
// knn, matrix}, all against the Dijkstra oracle. The undirected fixture
// is deliberately disconnected so Infinity flows through every workload
// and wire format.
func TestWorkloadParityMatrix(t *testing.T) {
	type fixture struct {
		g  *chl.Graph
		fx *chl.FlatIndex
	}
	fixtures := map[string]fixture{}
	{
		g := chl.GenerateRandom(240, 400, 9, 3)
		_, fx := buildFrozen(t, g)
		fixtures["undirected"] = fixture{g, fx}
	}
	{
		g := chl.GenerateRandomDirected(220, 1100, 9, 8)
		_, fx := buildDirectedFrozen(t, g)
		fixtures["directed"] = fixture{g, fx}
	}
	for dirName, f := range fixtures {
		for _, format := range []string{"packed", "compressed"} {
			fx := f.fx
			if format == "compressed" {
				fx = compress(t, fx)
			}
			t.Run(dirName+"/"+format, func(t *testing.T) {
				o := newParityOracle(f.g)
				n := fx.NumVertices()
				// Deterministic probe sets: a spread of pairs including
				// u==v and (on the sparse fixture) unreachable ones.
				var pairs [][2]int
				for i := 0; i < 40; i++ {
					pairs = append(pairs, [2]int{(i * 37) % n, (i*101 + 13) % n})
				}
				pairs = append(pairs, [2]int{5, 5})
				sources := []int{0, 7 % n, (n / 2) % n, n - 1}
				targets := []int{1, 3 % n, (n / 3) % n, (2 * n / 3) % n, n - 2, n - 1}

				// The patched pass mutates the serving state, so its
				// oracle is a fresh Dijkstra over the patched graph.
				ops := parityPatchOps(f.g)
				patched, err := chl.ApplyPatch(f.g, ops)
				if err != nil {
					t.Fatalf("applying parity patch: %v", err)
				}
				po := newParityOracle(patched)

				for _, st := range parityStacks(t, fx, f.g) {
					t.Run(st.name, func(t *testing.T) {
						checkDistParity(t, st.base, o, pairs)
						checkPathsParity(t, st.base, o, pairs[:24])
						checkKNNParity(t, st.base, o, n, sources, []int{1, 3, 9, n})
						checkMatrixParity(t, st.base, o, sources, targets)

						// Patched pass: POST the edge updates, then every
						// workload must answer from the mutated graph —
						// same == assertions, new oracle. No rebuild
						// happened; the stack serves frozen labels plus
						// the delta overlay correction.
						postUpdate(t, st.base, ops)
						checkDistParity(t, st.base, po, pairs)
						checkPathsParity(t, st.base, po, pairs[:24])
						checkKNNParity(t, st.base, po, n, sources, []int{1, 3, 9, n})
						checkMatrixParity(t, st.base, po, sources, targets)
					})
				}
			})
		}
	}
}

package chl_test

// Tests for /paths, the one shortest-path walk (walkPath) on every tier:
// FlatIndex.Path over the labels, a Dijkstra row under an overlay or at the
// router, and the witness triple where a tier holds no graph.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	chl "repro"
	"repro/internal/sssp"
)

// refWalk is the path the walk must take, computed apart from it: over a
// float64 Dijkstra row from u, from v back to u, each step to the smallest
// vertex w of all with an arc w→x and row[w] + w(w,x) == row[x].
func refWalk(g *chl.Graph, u, v int) []int {
	row := sssp.Dijkstra(g, u)
	if row[v] == chl.Infinity {
		return nil
	}
	path := []int{v}
	for x := v; x != u; {
		next := -1
		for w := 0; w < g.NumVertices() && next < 0; w++ {
			if wt, ok := g.HasEdge(w, x); ok && row[w] != chl.Infinity && row[w]+wt == row[x] {
				next = w
			}
		}
		if next < 0 {
			panic(fmt.Sprintf("refWalk: no shortest in-arc of %d from %d", x, u))
		}
		x = next
		path = append([]int{x}, path...)
	}
	return path
}

// checkWalk holds one answer of FlatIndex.Path to the graph: consecutive
// vertices share an arc, the arcs sum to dist exactly, dist is Dijkstra's,
// and the path is refWalk's.
func checkWalk(t *testing.T, g *chl.Graph, u, v int, dist float64, path []int, ok bool) {
	t.Helper()
	want := sssp.Dijkstra(g, u)[v]
	if !ok {
		if want != chl.Infinity || path != nil {
			t.Fatalf("(%d,%d): unreachable with path %v, Dijkstra says %v", u, v, path, want)
		}
		return
	}
	if dist != want {
		t.Fatalf("(%d,%d): dist %v, Dijkstra says %v", u, v, dist, want)
	}
	var sum float64
	for i := 0; i+1 < len(path); i++ {
		wt, arc := g.HasEdge(path[i], path[i+1])
		if !arc {
			t.Fatalf("(%d,%d): path %v steps %d→%d, which is no arc", u, v, path, path[i], path[i+1])
		}
		sum += wt
	}
	if sum != dist {
		t.Fatalf("(%d,%d): the arcs of %v sum to %v, dist is %v", u, v, path, sum, dist)
	}
	if ref := refWalk(g, u, v); fmt.Sprint(ref) != fmt.Sprint(path) {
		t.Fatalf("(%d,%d): path %v, the reference walk takes %v", u, v, path, ref)
	}
}

// pathsFuzzGraph builds the byte-steered graph of FuzzPaths: data[0] picks
// directedness and 2–13 vertices, then each triple (u, v, w) adds an arc
// (an edge when undirected) of weight 1, 2, 3 or 1/2.
func pathsFuzzGraph(data []byte) *chl.Graph {
	if len(data) == 0 {
		return nil
	}
	n, directed := 2+int(data[0]>>1)%12, data[0]&1 == 1
	b := chl.NewGraphBuilder(n, directed)
	weights := [4]float64{1, 2, 3, 0.5}
	for i := 1; i+2 < len(data) && i < 1+3*40; i += 3 {
		b.AddEdge(int(data[i])%n, int(data[i+1])%n, weights[data[i+2]%4])
	}
	return b.MustFinish()
}

// FuzzPaths holds FlatIndex.Path, on packed and compressed labels, to
// checkWalk for every pair of byte-steered directed and undirected graphs
// with 1/2/3/2^-1 weights.
func FuzzPaths(f *testing.F) {
	f.Add([]byte{16, 0, 1, 0, 1, 2, 0, 2, 3, 0, 0, 3, 2})                      // undirected cycle, two ways round
	f.Add([]byte{17, 0, 1, 1, 1, 2, 3, 2, 0, 0, 0, 3, 2, 3, 2, 3})             // directed, halves
	f.Add([]byte{24, 0, 1, 0, 0, 2, 0, 1, 3, 0, 2, 3, 0, 3, 4, 1, 1, 4, 2})    // ties: two equal paths to 3
	f.Add([]byte{9, 0, 1, 3, 2, 3, 3})                                         // disconnected
	f.Add([]byte{25, 0, 1, 0, 1, 0, 1, 1, 2, 3, 2, 3, 3, 3, 4, 0, 4, 0, 2})    // directed, asymmetric
	f.Add([]byte{20, 0, 5, 1, 5, 9, 2, 9, 3, 3, 0, 4, 0, 4, 3, 0, 3, 7, 1, 7}) // sparse ids
	f.Fuzz(func(t *testing.T, data []byte) {
		g := pathsFuzzGraph(data)
		if g == nil {
			return
		}
		ix, err := chl.Build(g, chl.Options{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		packed, err := ix.Freeze()
		if err != nil {
			t.Fatal(err)
		}
		compressed, err := packed.Compress()
		if err != nil {
			t.Fatal(err)
		}
		n := g.NumVertices()
		for _, fx := range []*chl.FlatIndex{packed, compressed} {
			for u := 0; u < n; u++ {
				for v := 0; v < n; v++ {
					dist, path, ok, err := fx.Path(g, u, v)
					if err != nil {
						t.Fatalf("compressed=%v (%d,%d): %v", fx.Compressed(), u, v, err)
					}
					checkWalk(t, g, u, v, dist, path, ok)
				}
			}
		}
	})
}

// TestFlatIndexPathRefusesOtherGraph: the labels describe one graph, and
// Path walks only a graph that can be it — the same vertex count,
// directedness and unit — or none at all.
func TestFlatIndexPathRefusesOtherGraph(t *testing.T) {
	g := chl.GenerateRoadGrid(5, 5, 1)
	_, fx := buildFrozen(t, g)
	for name, other := range map[string]*chl.Graph{
		"vertex count": chl.GenerateRoadGrid(5, 6, 1),
		"directedness": chl.GenerateRandomDirected(25, 60, 5, 1),
		"unit":         mapWeights(g, func(w float64) float64 { return w / 2 }),
		"nil":          nil,
	} {
		if d, path, ok, err := fx.Path(other, 0, 24); err == nil {
			t.Errorf("%s: Path over another graph = (%v, %v, %v), want a refusal", name, d, path, ok)
		}
	}
	if _, _, _, err := fx.Path(g, 0, 25); err == nil {
		t.Error("Path to vertex 25 of a 25-vertex index: no error")
	}
}

// getBody GETs url and returns the status and the body bytes.
func getBody(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	return resp.StatusCode, body
}

// pathsTiers starts the flat server and a 2-shard router over fx, each with
// g as its graph when g is non-nil (EnableUpdates, RouterConfig.BaseGraph).
func pathsTiers(t *testing.T, fx *chl.FlatIndex, g *chl.Graph) (flat, router string) {
	t.Helper()
	s := chl.NewServerFromFlat(fx, 1<<10)
	if g != nil {
		if err := s.EnableUpdates(g, ""); err != nil {
			t.Fatal(err)
		}
	}
	flatTS := httptest.NewServer(s.Handler())
	t.Cleanup(func() { flatTS.Close(); s.Close() })
	tc := newTestCluster(t, fx, clusterSpec{shards: 2, cacheSize: 1 << 10, tweak: func(cfg *chl.RouterConfig) { cfg.BaseGraph = g }})
	routerTS := httptest.NewServer(tc.router.Handler())
	t.Cleanup(func() { routerTS.Close(); tc.close() })
	return flatTS.URL, routerTS.URL
}

// samePathBodies asks both tiers /paths for every pair and fails unless
// the bodies are byte-identical, returning them.
func samePathBodies(t *testing.T, flat, router string, pairs [][2]int) [][]byte {
	t.Helper()
	var out [][]byte
	for _, p := range pairs {
		q := fmt.Sprintf("/paths?u=%d&v=%d", p[0], p[1])
		fc, fb := getBody(t, flat+q)
		rc, rb := getBody(t, router+q)
		if fc != http.StatusOK || rc != fc || !bytes.Equal(fb, rb) {
			t.Fatalf("%s: flat server %d %s, router %d %s", q, fc, fb, rc, rb)
		}
		out = append(out, fb)
	}
	return out
}

// TestPathsSameBytesBothTiers: with a graph, the flat server walks its
// labels and the router a Dijkstra row, and both give the same bytes —
// frozen, and after an /update, when both walk a row on the patched graph.
// Every path is the reference walk on the graph of its generation.
func TestPathsSameBytesBothTiers(t *testing.T) {
	for name, g := range map[string]*chl.Graph{
		"undirected": chl.GenerateRandom(150, 320, 9, 5),
		"directed":   chl.GenerateRandomDirected(150, 700, 9, 5),
	} {
		t.Run(name, func(t *testing.T) {
			ix, err := chl.Build(g, chl.Options{Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			fx, err := ix.Freeze()
			if err != nil {
				t.Fatal(err)
			}
			flat, router := pathsTiers(t, fx, g)
			var pairs [][2]int
			for i := 0; i < 60; i++ {
				pairs = append(pairs, [2]int{(i * 37) % 150, (i*101 + 13) % 150})
			}
			pairs = append(pairs, [2]int{4, 4})
			check := func(g *chl.Graph) {
				t.Helper()
				for i, body := range samePathBodies(t, flat, router, pairs) {
					var r pathsParityResp
					if err := json.Unmarshal(body, &r); err != nil {
						t.Fatal(err)
					}
					u, v := pairs[i][0], pairs[i][1]
					checkWalk(t, g, u, v, r.Dist, r.Path, r.Reachable)
				}
			}
			check(g)
			ops := parityPatchOps(g)
			patched, err := chl.ApplyPatch(g, ops)
			if err != nil {
				t.Fatal(err)
			}
			postUpdate(t, flat, ops)
			postUpdate(t, router, ops)
			check(patched)
		})
	}
}

// TestPathsWithoutGraphAnswersWitness: a tier with no graph answers the
// documented triple from one QueryHub — [u, h, v], [u, v] when the witness
// is an endpoint, [u] when u == v — the same bytes on both tiers.
func TestPathsWithoutGraphAnswersWitness(t *testing.T) {
	g := chl.GenerateScaleFree(200, 3, 7)
	_, fx := buildFrozen(t, g)
	flat, router := pathsTiers(t, fx, nil)
	var pairs [][2]int
	for i := 0; i < 40; i++ {
		pairs = append(pairs, [2]int{(i * 41) % 200, (i*7 + 3) % 200})
	}
	pairs = append(pairs, [2]int{9, 9})
	endpoints := 0
	for i, body := range samePathBodies(t, flat, router, pairs) {
		var r pathsParityResp
		if err := json.Unmarshal(body, &r); err != nil {
			t.Fatal(err)
		}
		u, v := pairs[i][0], pairs[i][1]
		d, h, ok := fx.QueryHub(u, v)
		want := []int{u, h, v}
		switch {
		case u == v:
			want = []int{u}
		case h == u || h == v:
			want, endpoints = []int{u, v}, endpoints+1
		}
		if !r.Reachable || !ok || r.Dist != d || fmt.Sprint(r.Path) != fmt.Sprint(want) {
			t.Fatalf("/paths(%d,%d) = %s, want dist %v path %v", u, v, body, d, want)
		}
	}
	if endpoints == 0 {
		t.Fatal("no pair has its witness at an endpoint; the [u, v] form is untested")
	}
}

// TestPathsDisagreeingGraphIs500: a server handed a graph its labels were
// not built from — here one with the right shape and no arcs at all —
// cannot walk it, and says at which vertex, as a 500.
func TestPathsDisagreeingGraphIs500(t *testing.T) {
	g := chl.GenerateRoadGrid(6, 6, 1)
	_, fx := buildFrozen(t, g)
	s := chl.NewServerFromFlat(fx, 0)
	defer s.Close()
	if err := s.EnableUpdates(chl.NewGraphBuilder(36, false).MustFinish(), ""); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	code, body := getBody(t, ts.URL+"/paths?u=0&v=35")
	if code != http.StatusInternalServerError || !strings.Contains(string(body), "labels and graph disagree at 35") {
		t.Fatalf("/paths over a disagreeing graph = %d %s, want a 500 naming vertex 35", code, body)
	}
}

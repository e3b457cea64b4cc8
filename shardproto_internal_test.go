package chl

// White-box tests of the shard protocol (shardproto.go) from both ends:
// what a Server stamps on every shard-facing body, what the Router's one
// call refuses, and that a cancelled client stops the fan-out without
// leaving a mark on any replica's health.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/shard"
)

// protoCluster is a 2-shard split of one index: the shard Servers and
// the manifest, nothing started.
type protoCluster struct {
	fx       *FlatIndex
	manifest *shard.Manifest
	part     *shard.Partition
	servers  []*Server
	byOwner  [2][]int
}

// quarterWeights returns undirected g with every weight divided by 4,
// which a frozen index counts in units of 2^-2.
func quarterWeights(g *Graph) *Graph {
	b := NewGraphBuilder(g.NumVertices(), false)
	for u := 0; u < g.NumVertices(); u++ {
		heads, wts := g.Neighbors(u)
		for i, h := range heads {
			if u < int(h) {
				b.AddEdge(u, int(h), g.FromUnits(uint64(wts[i]))/4)
			}
		}
	}
	return b.MustFinish()
}

func newProtoCluster(t *testing.T, g *Graph) *protoCluster {
	t.Helper()
	ix, err := Build(g, Options{Algorithm: AlgoSeqPLL, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	fx, err := ix.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	c := &protoCluster{fx: fx}
	if c.manifest, err = fx.SaveShards(dir, 2, 64, 1); err != nil {
		t.Fatal(err)
	}
	if c.part, err = c.manifest.Partition(); err != nil {
		t.Fatal(err)
	}
	for sid := 0; sid < 2; sid++ {
		path, err := ShardFilePath(filepath.Join(dir, shard.ManifestName), c.manifest, sid)
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewServer(path, 0)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		if err := s.SetShard(sid, c.part); err != nil {
			t.Fatal(err)
		}
		c.servers = append(c.servers, s)
	}
	for v := 0; v < fx.NumVertices(); v++ {
		o := c.part.Owner(v)
		c.byOwner[o] = append(c.byOwner[o], v)
	}
	if len(c.byOwner[0]) < 2 || len(c.byOwner[1]) < 2 {
		t.Fatal("fixture too small: a shard owns fewer than two vertices")
	}
	return c
}

// protoEndpoint is one row of the conformance table: a shard-facing
// endpoint, a request for it built from two vertices the shard owns,
// and the typed response its body decodes into.
type protoEndpoint struct {
	name    string
	request func(u, v int, run string) (method, target string, body any)
	decode  func(body []byte) (stamped, error)
	// public lists the stamp keys a plain server serves here too.
	public []string
}

func decodeAs[T stamped](body []byte) (stamped, error) {
	var out T
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields() // the typed response is the whole wire format
	err := dec.Decode(&out)
	return out, err
}

var protoEndpoints = []protoEndpoint{
	{"/dist", func(u, v int, _ string) (string, string, any) {
		return http.MethodGet, fmt.Sprintf("/dist?u=%d&v=%d", u, v), nil
	}, decodeAs[distResponse], nil},
	{"/batch", func(u, v int, _ string) (string, string, any) {
		return http.MethodPost, "/batch", [][2]int{{u, v}, {v, u}}
	}, decodeAs[batchResponse], nil},
	{"/shardquery", func(u, v int, _ string) (string, string, any) {
		return http.MethodPost, "/shardquery", shardQueryRequest{Vertices: []int{u}, Backward: []int{v}, HubIDs: []int{u}}
	}, decodeAs[shardQueryResponse], nil},
	{"/shardscan", func(u, v int, run string) (string, string, any) {
		return http.MethodPost, "/shardscan", shardScanRequest{Run: run, K: 2, Exclude: u, Targets: []int{v}}
	}, decodeAs[shardScanResponse], nil},
	{"/healthz", func(int, int, string) (string, string, any) {
		return http.MethodGet, "/healthz", nil
	}, decodeAs[healthResponse], []string{"generation"}},
	{"/reload", func(int, int, string) (string, string, any) {
		return http.MethodPost, "/reload", struct{}{}
	}, decodeAs[reloadResponse], []string{"generation"}},
}

// serve runs one request through h and returns status and body.
func serve(t *testing.T, h http.Handler, method, target string, body any) (int, []byte) {
	t.Helper()
	var rd bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&rd).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, target, &rd))
	return rec.Code, rec.Body.Bytes()
}

// Server side of the protocol: on a shard, every shard-facing endpoint
// stamps the complete, identical stamp within one snapshot, and the
// stamps move together across a reload; on a plain server no stamp key
// appears (generation excepted where it is public) and the row
// endpoints do not exist.
func TestShardProtocolConformance(t *testing.T) {
	for name, fixture := range map[string]struct {
		g       *Graph
		unitExp int
	}{
		"undirected":    {GenerateScaleFree(120, 3, 4), 0},
		"directed":      {GenerateRandomDirected(120, 700, 9, 4), 0},
		"quarter units": {quarterWeights(GenerateScaleFree(120, 3, 4)), 2},
	} {
		g := fixture.g
		t.Run(name, func(t *testing.T) {
			c := newProtoCluster(t, g)
			s, u, v := c.servers[0], c.byOwner[0][0], c.byOwner[0][1]
			run := encodePackedRun(c.fx.fwd.RunInto(nil, u))
			h := s.Handler()
			sweep := func(want shardStamp) {
				t.Helper()
				for _, ep := range protoEndpoints {
					if ep.name == "/reload" {
						continue // moves the stamp; driven explicitly below
					}
					method, target, body := ep.request(u, v, run)
					code, raw := serve(t, h, method, target, body)
					resp, err := ep.decode(raw)
					if code != http.StatusOK || err != nil {
						t.Fatalf("shard %s: status %d, decode error %v: %s", ep.name, code, err, raw)
					}
					if got := resp.stampOf(); got != want {
						t.Errorf("shard %s stamps %+v, want %+v", ep.name, got, want)
					}
				}
			}
			sn := s.Acquire()
			want := shardStamp{Generation: sn.Generation(), Epoch: s.epoch, Ident: sn.Ident(), N: g.NumVertices(), Directed: g.Directed(), UnitExp: fixture.unitExp}
			sn.Release()
			if want.Generation == 0 || want.Epoch == 0 || want.Ident == 0 {
				t.Fatalf("incomplete stamp to begin with: %+v", want)
			}
			sweep(want)

			reload := protoEndpoints[len(protoEndpoints)-1]
			method, target, body := reload.request(u, v, run)
			code, raw := serve(t, h, method, target, body)
			resp, err := reload.decode(raw)
			if code != http.StatusOK || err != nil {
				t.Fatalf("shard /reload: status %d, decode error %v: %s", code, err, raw)
			}
			want.Generation++ // same file: same content, next generation
			if got := resp.stampOf(); got != want {
				t.Errorf("shard /reload stamps %+v, want %+v", got, want)
			}
			sweep(want)

			// The unsharded index on a plain server (which takes c.fx over).
			path := filepath.Join(t.TempDir(), "plain.flat")
			if err := c.fx.SaveFile(path); err != nil {
				t.Fatal(err)
			}
			plain := NewServerFromFlat(c.fx, 0)
			defer plain.Close()
			for _, ep := range protoEndpoints {
				method, target, body := ep.request(u, v, run)
				if ep.name == "/reload" {
					target += "?path=" + path
				}
				code, raw := serve(t, plain.Handler(), method, target, body)
				if strings.HasPrefix(ep.name, "/shard") {
					if code != http.StatusNotFound {
						t.Errorf("plain %s: status %d, want 404", ep.name, code)
					}
					continue
				}
				var keys map[string]any
				if err := json.Unmarshal(raw, &keys); code != http.StatusOK || err != nil {
					t.Fatalf("plain %s: status %d, decode error %v: %s", ep.name, code, err, raw)
				}
				for _, key := range []string{"generation", "epoch", "ident", "n", "directed"} {
					_, present := keys[key]
					if public := len(ep.public) > 0 && ep.public[0] == key; present != public {
						t.Errorf("plain %s: stamp key %q present=%v, want %v (%s)", ep.name, key, present, public, raw)
					}
				}
			}
		})
	}
}

// A shard sends hub ids only for rows the same request fetches, each id
// the permutation image of the entry's hub; naming any other vertex is a
// 400.
func TestShardQueryHubIDs(t *testing.T) {
	c := newProtoCluster(t, GenerateScaleFree(120, 3, 4))
	h := c.servers[0].Handler()
	u, v := c.byOwner[0][0], c.byOwner[0][1]

	code, raw := serve(t, h, http.MethodPost, "/shardquery", shardQueryRequest{Vertices: []int{u, v}, HubIDs: []int{u}})
	var resp shardQueryResponse
	if err := json.Unmarshal(raw, &resp); code != http.StatusOK || err != nil {
		t.Fatalf("status %d, decode error %v: %s", code, err, raw)
	}
	run := c.fx.fwd.RunInto(nil, u)
	ids := resp.HubIDs[strconv.Itoa(u)]
	if len(ids) != len(run) || len(resp.HubIDs) != 1 {
		t.Fatalf("hub ids %v for a row of %d entries (all ids: %v)", ids, len(run), resp.HubIDs)
	}
	for i, e := range run {
		if want := c.fx.perm[e>>32]; ids[i] != want {
			t.Fatalf("hub id %d = %d, want %d", i, ids[i], want)
		}
	}

	code, raw = serve(t, h, http.MethodPost, "/shardquery", shardQueryRequest{Vertices: []int{u}, Backward: []int{v}, HubIDs: []int{v}})
	if want := fmt.Sprintf("hub_ids names vertex %d, which is not in vertices", v); code != http.StatusBadRequest || !strings.Contains(string(raw), want) {
		t.Fatalf("hub ids for an unfetched row: status %d %s, want 400 %q", code, raw, want)
	}
}

// Router side of the protocol: whatever path a response arrives on, a
// backend that stamps no identity, the wrong vertex space, or the wrong
// directedness is refused as a terminal ShardError naming the replica,
// with the same message. So are hostile hub ids on the row fetch that
// carries them: missing, misaligned with the row, or out of range.
func TestRouterStampCheckOnEveryPath(t *testing.T) {
	c := newProtoCluster(t, GenerateScaleFree(120, 3, 4))
	n := c.fx.NumVertices()
	u0, v0, u1 := c.byOwner[0][0], c.byOwner[0][1], c.byOwner[1][0]
	rowLen := len(c.fx.fwd.RunInto(nil, u0))

	// The backends rewrite the stamp of the responses the current case
	// aims at; everything else passes through untouched.
	type stampFault struct {
		aim    func(path string, reqBody []byte) bool
		tamper func(keys map[string]any)
	}
	var fault atomic.Pointer[stampFault]
	fault.Store(&stampFault{aim: func(string, []byte) bool { return false }})
	addrs := make([]string, 2)
	for sid, s := range c.servers {
		h := s.Handler()
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			var reqBody bytes.Buffer
			reqBody.ReadFrom(r.Body)
			r.Body = http.NoBody
			if reqBody.Len() > 0 {
				r.Body = readCloser{&reqBody}
			}
			f := fault.Load()
			hit := f.aim(r.URL.Path, reqBody.Bytes())
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, r)
			raw := rec.Body.Bytes()
			if hit && rec.Code == http.StatusOK {
				var keys map[string]any
				if err := json.Unmarshal(raw, &keys); err != nil {
					t.Errorf("backend wrote an undecodable body: %v", err)
				}
				f.tamper(keys)
				raw, _ = json.Marshal(keys)
			}
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(rec.Code)
			w.Write(raw)
		}))
		defer ts.Close()
		addrs[sid] = ts.URL
	}
	rt, err := NewRouter(RouterConfig{Manifest: c.manifest, Addrs: addrs})
	if err != nil {
		t.Fatal(err)
	}
	routerH := rt.Handler()

	// u0's hub ids, as the shard sent them.
	u0IDs := func(keys map[string]any) []any {
		return keys["hub_ids"].(map[string]any)[strconv.Itoa(u0)].([]any)
	}
	faults := []struct {
		name   string
		tamper func(keys map[string]any)
		want   string
		// hubs marks a fault in the hub ids, which only the row fetch
		// carrying them has.
		hubs bool
	}{
		{"no identity", func(keys map[string]any) { delete(keys, "generation") }, errNotShardBackend.Error(), false},
		{"wrong n", func(keys map[string]any) { keys["n"] = n + 1 },
			fmt.Sprintf("shard serves %d vertices but the manifest says %d — mismatched index files?", n+1, n), false},
		{"wrong directed", func(keys map[string]any) { keys["directed"] = true },
			"shard serves directed=true but the manifest says directed=false — mismatched index files?", false},
		{"wrong unit", func(keys map[string]any) { keys["unit_exp"] = 2 },
			"shard counts distances in units of 2^-2 but the manifest says 2^-0 — mismatched index files?", false},
		{"hub ids missing", func(keys map[string]any) { delete(keys, "hub_ids") },
			fmt.Sprintf("hub ids for vertex %d missing from response", u0), true},
		{"hub ids misaligned", func(keys map[string]any) {
			keys["hub_ids"].(map[string]any)[strconv.Itoa(u0)] = u0IDs(keys)[1:]
		}, fmt.Sprintf("%d hub ids for vertex %d's row of %d entries", rowLen-1, u0, rowLen), true},
		{"hub id out of range", func(keys map[string]any) { u0IDs(keys)[0] = n },
			fmt.Sprintf("hub id %d for vertex %d out of range [0,%d)", n, u0, n), true},
	}
	carriesHubs := func(body []byte) bool { return bytes.Contains(body, []byte(`"hub_ids"`)) }
	paths := []struct {
		name string
		aim  func(path string, reqBody []byte) bool
		call func() error
	}{
		{"/dist forward", func(p string, _ []byte) bool { return p == "/dist" },
			func() error { _, _, _, err := rt.QueryHub(u0, v0); return err }},
		{"/batch", func(p string, _ []byte) bool { return p == "/batch" },
			func() error { _, err := rt.Batch([]QueryPair{{U: u0, V: v0}}); return err }},
		{"rows", func(p string, b []byte) bool { return p == "/shardquery" && !carriesHubs(b) },
			func() error { _, err := rt.Query(u0, u1); return err }},
		{"rows with hub ids", func(p string, b []byte) bool { return p == "/shardquery" && carriesHubs(b) },
			func() error { _, _, _, err := rt.QueryHub(u0, u1); return err }},
		{"scan", func(p string, _ []byte) bool { return p == "/shardscan" },
			func() error { _, err := rt.KNN(u0, 3); return err }},
		{"health", func(p string, _ []byte) bool { return p == "/healthz" },
			func() error {
				for _, sh := range rt.Health() {
					if rh := sh.Replicas[0]; !rh.OK {
						return &ClusterError{Failed: []*ShardError{{Shard: sh.ID, Replica: rh.ID, Err: errors.New(rh.Error)}}}
					}
				}
				return nil
			}},
		{"reload proxy", func(p string, _ []byte) bool { return p == "/reload" },
			func() error {
				code, raw := serve(t, routerH, http.MethodPost, "/reload?shard=0", nil)
				var eb struct {
					Failed []struct {
						Replica int    `json:"replica"`
						Error   string `json:"error"`
					} `json:"failed_shards"`
				}
				if code == http.StatusOK {
					return nil
				}
				if err := json.Unmarshal(raw, &eb); err != nil || len(eb.Failed) == 0 {
					return fmt.Errorf("status %d: %s", code, raw)
				}
				return &ClusterError{Failed: []*ShardError{{Replica: eb.Failed[0].Replica, Err: errors.New(eb.Failed[0].Error)}}}
			}},
	}
	for _, p := range paths {
		for _, f := range faults {
			if f.hubs && p.name != "rows with hub ids" {
				continue
			}
			fault.Store(&stampFault{aim: p.aim, tamper: f.tamper})
			err := p.call()
			var ce *ClusterError
			if !errors.As(err, &ce) {
				t.Errorf("%s, %s: got %v, want a ClusterError", p.name, f.name, err)
				continue
			}
			// Every refusal names the replica that sent the response.
			if se := ce.Failed[0]; se.Err.Error() != f.want || se.Replica != 0 {
				t.Errorf("%s, %s: got replica %d: %q, want replica 0: %q", p.name, f.name, se.Replica, se.Err, f.want)
			}
		}
	}
	fault.Store(&stampFault{aim: func(string, []byte) bool { return false }})
	for _, p := range paths {
		if err := p.call(); err != nil {
			t.Errorf("%s with honest backends: %v", p.name, err)
		}
	}
}

type readCloser struct{ *bytes.Buffer }

func (readCloser) Close() error { return nil }

// A client that hangs up mid-/batch or mid-/matrix stops the fan-out:
// the handler returns while the shards are still stalled, the failure
// it reports is the cancellation, and no replica's health moved — not an
// error counted, not a consecutive failure, not an ejection, and the
// probe flag an attempt was holding is free again.
func TestRouterCancelledClientStopsFanOut(t *testing.T) {
	c := newProtoCluster(t, GenerateScaleFree(120, 3, 4))
	u0, v0, u1 := c.byOwner[0][0], c.byOwner[0][1], c.byOwner[1][0]
	arrived := make(chan struct{}, 64)
	release := make(chan struct{})
	groups := make([][]string, 2)
	for sid := range c.servers {
		for rid := 0; rid < 2; rid++ {
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				arrived <- struct{}{}
				select {
				case <-release:
				case <-r.Context().Done():
				}
			}))
			defer ts.Close()
			groups[sid] = append(groups[sid], ts.URL)
		}
	}
	defer close(release) // before the listeners close: they wait for their handlers
	clk := NewFakeClock(time.Unix(1_700_000_000, 0))
	rt, err := NewRouter(RouterConfig{Manifest: c.manifest, ReplicaAddrs: groups, Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	// Replica (0,1) is ejected with its probation over: the next request
	// to shard 0 takes its probe flag.
	probed := rt.shards[0].reps[1]
	probed.state.Store(replicaEjected)
	probed.retryAt.Store(clk.Now().Add(-time.Second).UnixNano())

	for _, req := range []struct {
		target, body string
		calls        int // shard calls the request fans out before it can go on
	}{
		{"/batch", fmt.Sprintf("[[%d,%d],[%d,%d]]", u0, v0, u0, u1), 3}, // shard 0's sub-batch, one row fetch per shard
		{"/matrix", fmt.Sprintf(`{"sources":[%d,%d],"targets":[%d]}`, u0, u1, v0), 2},
	} {
		ctx, cancel := context.WithCancel(context.Background())
		rec := httptest.NewRecorder()
		done := make(chan struct{})
		go func() {
			defer close(done)
			rt.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, req.target, strings.NewReader(req.body)).WithContext(ctx))
		}()
		for i := 0; i < req.calls; i++ {
			select {
			case <-arrived:
			case <-time.After(10 * time.Second):
				t.Fatalf("%s: %d of %d shard calls arrived", req.target, i, req.calls)
			}
		}
		if !probed.probing.Load() {
			t.Errorf("%s: fixture broken, the ejected replica is not being probed", req.target)
		}
		cancel()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: handler still fanning out after its client hung up", req.target)
		}
		if body := rec.Body.String(); rec.Code != http.StatusBadGateway || !strings.Contains(body, context.Canceled.Error()) || strings.Contains(body, "replicas failed") {
			t.Errorf("%s: status %d, body %s — want a 502 reporting the cancellation", req.target, rec.Code, body)
		}
		for _, group := range rt.shards {
			for _, rep := range group.reps {
				if rep.errors.Load() != 0 || rep.consecFails.Load() != 0 || rep.ejections.Load() != 0 || rep.probing.Load() || rep.inflight.Load() != 0 {
					t.Errorf("%s: replica (%d,%d) after a cancelled request: errors %d, consecutive failures %d, ejections %d, probing %v, in flight %d",
						req.target, rep.shard, rep.id, rep.errors.Load(), rep.consecFails.Load(), rep.ejections.Load(), rep.probing.Load(), rep.inflight.Load())
				}
			}
		}
	}
}

// TestShardReloadRefusesForeignRuns: a file with the cluster's vertex
// space, directedness and unit, but runs of vertices another shard owns,
// is refused by checkShardFile, which counts every run it must find empty
// (Store.LabelCount, a stream walk on a compressed file). The shard keeps
// serving the file it had. Both formats, and on a directed cluster a file
// whose forward runs are the shard's own and only the backward half is
// foreign.
func TestShardReloadRefusesForeignRuns(t *testing.T) {
	for _, g := range []*Graph{GenerateScaleFree(120, 3, 4), GenerateRandomDirected(120, 700, 9, 4)} {
		c := newProtoCluster(t, g)
		s, u, v := c.servers[0], c.byOwner[0][0], c.byOwner[0][1]
		want := c.fx.Query(u, v)
		for _, compressed := range []bool{false, true} {
			fx := c.fx
			if compressed {
				var err error
				if fx, err = fx.Compress(); err != nil {
					t.Fatal(err)
				}
			}
			owned := func(id int) func(int) bool { return func(w int) bool { return c.part.Owner(w) == id } }
			mine, theirs := fx.slice(owned(0)), fx.slice(owned(1))
			type foreign struct {
				fx     *FlatIndex
				refuse string
			}
			files := map[string]foreign{"shard 1's slice": {theirs, "holds labels for vertex"}}
			if g.Directed() {
				files["shard 1's backward runs"] = foreign{newFlatIndex(mine.fwd, theirs.bwd, mine.perm), "holds backward labels for vertex"}
			}
			for name, f := range files {
				t.Run(fmt.Sprintf("directed=%v/compressed=%v/%s", g.Directed(), compressed, name), func(t *testing.T) {
					path := filepath.Join(t.TempDir(), "foreign.flat")
					if err := f.fx.SaveFile(path); err != nil {
						t.Fatal(err)
					}
					before := s.Stats().Generation
					_, err := s.Reload(path)
					if err == nil || !strings.Contains(err.Error(), f.refuse) || !strings.Contains(err.Error(), "which shard 0 does not own") {
						t.Fatalf("reload of %s: %v, want a refusal naming %q and shard 0", name, err, f.refuse)
					}
					if after := s.Stats().Generation; after != before {
						t.Fatalf("refused reload moved the generation %d -> %d", before, after)
					}
					if got := s.Query(u, v); got != want {
						t.Fatalf("after the refused reload d(%d,%d) = %v, want %v", u, v, got, want)
					}
				})
			}
		}
	}
}

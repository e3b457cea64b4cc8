package chl_test

// Black-box tests of behavior the one shard call (Router.callShard)
// gives every path: the /reload proxy is accounted like any other shard
// request, and a patched cross-shard query stays exact with a reload
// landing between its two row responses. The white-box half —
// wire-format conformance and the cancelled-client fan-out — lives in
// shardproto_internal_test.go.

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	chl "repro"
)

// roundTripFunc adapts a function to http.RoundTripper.
type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(req *http.Request) (*http.Response, error) { return f(req) }

// A reload landing between the two shards' row responses of a patched
// cross-shard query is benign — same file, same content, new generation
// — and u's witness id rides u's own row, so nothing is left to race: the
// answer is the patched graph's, with no retry.
func TestRouterPatchedQuerySurvivesReloadRace(t *testing.T) {
	g := chl.GenerateRandom(160, 480, 9, 21)
	_, fx := buildFrozen(t, g)
	var (
		c *testCluster
		// race, while set, holds v's row request until u's row (the one
		// carrying hub ids) is in and every shard has reloaded.
		race   atomic.Pointer[chan struct{}]
		raced  atomic.Int64
		client = &http.Client{Transport: roundTripFunc(func(req *http.Request) (*http.Response, error) {
			gate := race.Load()
			if gate == nil || req.URL.Path != "/shardquery" {
				return http.DefaultTransport.RoundTrip(req)
			}
			body, err := io.ReadAll(req.Body)
			if err != nil {
				return nil, err
			}
			req.Body = io.NopCloser(bytes.NewReader(body))
			if !bytes.Contains(body, []byte(`"hub_ids"`)) {
				<-*gate
				return http.DefaultTransport.RoundTrip(req)
			}
			defer close(*gate)
			resp, err := http.DefaultTransport.RoundTrip(req)
			if err != nil {
				return nil, err
			}
			for _, s := range c.servers {
				if _, err := s.Reload(""); err != nil {
					return nil, err
				}
			}
			raced.Add(1)
			return resp, nil
		})}
	)
	c = newTestCluster(t, fx, clusterSpec{shards: 2, tweak: func(cfg *chl.RouterConfig) {
		cfg.BaseGraph = g
		cfg.Client = client
	}})
	defer c.close()
	ops := parityPatchOps(g)[:1]
	if _, err := c.router.Update(ops); err != nil {
		t.Fatal(err)
	}
	patched, err := chl.ApplyPatch(g, ops)
	if err != nil {
		t.Fatal(err)
	}
	oracle := newParityOracle(patched)

	// Race a reload into every cross-shard pair of a sweep; every answer
	// must be exact.
	n := g.NumVertices()
	for i := 0; i < n && raced.Load() < 8; i++ {
		u, v := (i*37)%n, (i*59+11)%n
		if c.part.Owner(u) == c.part.Owner(v) {
			continue // one row request: nothing to race between
		}
		gate := make(chan struct{})
		race.Store(&gate)
		d, _, ok, err := c.router.QueryHub(u, v)
		race.Store(nil)
		if err != nil {
			t.Fatalf("QueryHub(%d,%d) with a reload between its row responses: %v", u, v, err)
		}
		if want := oracle.from(u)[v]; ok != (want != chl.Infinity) || ok && d != want {
			t.Fatalf("QueryHub(%d,%d) = %v (reachable %v), patched Dijkstra says %v", u, v, d, ok, want)
		}
	}
	if raced.Load() < 8 {
		t.Fatalf("only %d cross-shard queries raced a reload: the race was not exercised", raced.Load())
	}
}

// The /reload proxy is a pinned shard call: while the replica is busy
// reloading, its in-flight count — what power-of-two-choices reads —
// says so, and the round trip lands in the same request counter and
// health state as any other.
func TestRouterReloadProxyIsAccounted(t *testing.T) {
	g := chl.GenerateScaleFree(150, 3, 5)
	fx, _ := buildFlat(t, g)
	entered, release := make(chan struct{}), make(chan struct{})
	c := newTestCluster(t, fx, clusterSpec{shards: 2, flaky: true})
	defer c.close()
	// Put a gate in front of shard 0's /reload.
	inner := *c.flaky[0][0].inner.Load()
	var gated http.Handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/reload" {
			close(entered)
			<-release
		}
		inner.ServeHTTP(w, r)
	})
	c.flaky[0][0].inner.Store(&gated)
	routerTS := httptest.NewServer(c.router.Handler())
	defer routerTS.Close()
	replica := func() chl.RouterReplicaStats { return c.router.Stats().Shards[0].Replicas[0] }

	before := replica()
	status := make(chan int, 1)
	go func() {
		resp, err := http.Post(routerTS.URL+"/reload?shard=0", "application/json", nil)
		if err != nil {
			status <- 0
			return
		}
		resp.Body.Close()
		status <- resp.StatusCode
	}()
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("the proxied reload never reached the replica")
	}
	if got := replica().InFlight; got != 1 {
		t.Errorf("replica mid-reload reports %d requests in flight, want 1", got)
	}
	close(release)
	if code := <-status; code != http.StatusOK {
		t.Fatalf("proxied reload: status %d", code)
	}
	after := replica()
	if after.InFlight != 0 || after.Requests != before.Requests+1 || after.Errors != before.Errors {
		t.Errorf("after the reload: in_flight %d, requests %d -> %d, errors %d -> %d",
			after.InFlight, before.Requests, after.Requests, before.Errors, after.Errors)
	}
	if after.Generation != 2 {
		t.Errorf("router tracks generation %d for the reloaded replica, want 2", after.Generation)
	}
}

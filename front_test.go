package chl_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	chl "repro"
)

// endpointRow is one refused request of the endpoint table: the status
// both tiers must answer it with, and whether their bodies must match
// byte for byte (false for the rows whose error names the tier).
type endpointRow struct {
	method, path, body string
	want               int
	sameBody           bool
}

// runEndpointTable runs rows against a plain server and a router over the
// same 120-vertex index: every row must draw its status, Content-Type and
// JSON error body identically from both tiers, except that a row with
// sameBody false need only agree on the status.
func runEndpointTable(t *testing.T, rows []endpointRow) {
	t.Helper()
	g := chl.GenerateScaleFree(120, 3, 37)
	fx, _ := buildFlat(t, g)
	server := chl.NewServerFromFlat(fx, 0)
	defer server.Close()
	tc := newTestCluster(t, fx, clusterSpec{shards: 2, cacheSize: 0})
	defer tc.close()
	tiers := []http.Handler{server.Handler(), tc.router.Handler()}

	for _, r := range rows {
		var got [2]*httptest.ResponseRecorder
		for i, h := range tiers {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(r.method, r.path, bytes.NewReader([]byte(r.body))))
			got[i] = rec
			var body struct {
				Error string `json:"error"`
			}
			if rec.Code != r.want {
				t.Errorf("%s %s (%q) on tier %d: status %d, want %d: %s", r.method, r.path, r.body, i, rec.Code, r.want, rec.Body)
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || body.Error == "" {
				t.Errorf("%s %s (%q) on tier %d: no JSON error body: %q", r.method, r.path, r.body, i, rec.Body)
			}
		}
		if got[0].Code != got[1].Code || got[0].Header().Get("Content-Type") != got[1].Header().Get("Content-Type") {
			t.Errorf("%s %s (%q): server %d %q, router %d %q", r.method, r.path, r.body,
				got[0].Code, got[0].Header().Get("Content-Type"), got[1].Code, got[1].Header().Get("Content-Type"))
		}
		if r.sameBody && got[0].Body.String() != got[1].Body.String() {
			t.Errorf("%s %s (%q): server body %q, router body %q", r.method, r.path, r.body, got[0].Body, got[1].Body)
		}
	}
}

// TestRouterBadRequests: bad /dist ids and malformed /batch bodies are
// 400s with the single-process server's JSON error bodies, and /reload of
// a shard the router does not have is a 400.
func TestRouterBadRequests(t *testing.T) {
	runEndpointTable(t, []endpointRow{
		{http.MethodGet, "/dist", "", 400, true},
		{http.MethodGet, "/dist?u=a&v=2", "", 400, true},
		{http.MethodGet, "/dist?u=1&v=120", "", 400, true},
		{http.MethodGet, "/dist?u=-1&v=2", "", 400, true},
		{http.MethodPost, "/batch", `[[1,2,3]]`, 400, true},
		{http.MethodPost, "/batch", `[[1,1000]]`, 400, true},
		{http.MethodPost, "/batch", `{"no":"pairs"}`, 400, true},
		{http.MethodPost, "/batch", `[[3,null]]`, 400, true},
		// A plain server reloads from a path it does not have; a router
		// needs a shard to proxy to.
		{http.MethodPost, "/reload?shard=9", "", 400, false},
	})
}

// TestWorkloadEndpointErrors: every malformed /paths, /knn and /matrix
// request draws the same status and JSON error body from the server and
// the router — bad ids and parameters must never reach a kernel.
func TestWorkloadEndpointErrors(t *testing.T) {
	runEndpointTable(t, []endpointRow{
		{http.MethodGet, "/paths", "", 400, true},
		{http.MethodGet, "/paths?u=0&v=120", "", 400, true},
		{http.MethodGet, "/paths?u=-1&v=0", "", 400, true},
		{http.MethodPost, "/paths?u=0&v=1", "", 405, true},
		{http.MethodGet, "/knn?u=0", "", 400, true},
		{http.MethodGet, "/knn?u=0&k=0", "", 400, true},
		{http.MethodGet, "/knn?u=0&k=121", "", 400, true},
		{http.MethodGet, "/knn?u=0&k=bogus", "", 400, true},
		{http.MethodGet, "/knn?u=120&k=3", "", 400, true},
		{http.MethodPost, "/knn?u=0&k=3", "", 405, true},
		{http.MethodGet, "/matrix", "", 405, true},
		{http.MethodPost, "/matrix", "not json", 400, true},
		{http.MethodPost, "/matrix", `{"sources":[],"targets":[1]}`, 400, true},
		{http.MethodPost, "/matrix", `{"sources":[1],"targets":[]}`, 400, true},
		{http.MethodPost, "/matrix", `{"sources":[500],"targets":[1]}`, 400, true},
		{http.MethodPost, "/matrix", `{"sources":[1],"targets":[-3]}`, 400, true},
	})
}

// TestEndpointTableBothTiers runs the endpoint table's remaining rows:
// /update and /reload bodies, and one usage text per shared endpoint for
// a wrong method.
func TestEndpointTableBothTiers(t *testing.T) {
	runEndpointTable(t, []endpointRow{
		{http.MethodPost, "/update", "not a patch log", 400, true},
		{http.MethodPost, "/update", "# comments only\n", 400, true},
		{http.MethodPost, "/reload", "{broken json", 400, true},
		// Neither tier enabled updates; each names its own remedy.
		{http.MethodPost, "/update", "add 0 1 2", 409, false},
		{http.MethodPost, "/dist?u=0&v=1", "", 405, true},
		{http.MethodGet, "/batch", "", 405, true},
		{http.MethodPost, "/stats", "", 405, true},
		{http.MethodPost, "/healthz", "", 405, true},
		{http.MethodGet, "/reload", "", 405, true},
		{http.MethodGet, "/update", "", 405, true},
		{http.MethodPut, "/metrics", "", 405, true},
	})
}

// TestEndpointUsageTexts pins the 405 bodies the table above only
// compares: GET /update's usage text (the tiers' texts differed before
// they shared one front) and POST /healthz, which a plain server used to
// answer 200.
func TestEndpointUsageTexts(t *testing.T) {
	fx, _ := buildFlat(t, chl.GenerateScaleFree(120, 3, 37))
	server := chl.NewServerFromFlat(fx, 0)
	defer server.Close()
	for _, c := range []struct{ method, path, want string }{
		{http.MethodGet, "/update", `{"error":"POST a text patch log (one \"add u v w\" / \"del u v\" / \"set u v w\" per line)"}`},
		{http.MethodPost, "/healthz", `{"error":"use GET /healthz"}`},
	} {
		rec := httptest.NewRecorder()
		server.Handler().ServeHTTP(rec, httptest.NewRequest(c.method, c.path, nil))
		body, _ := io.ReadAll(rec.Body)
		if rec.Code != http.StatusMethodNotAllowed || string(body) != c.want+"\n" {
			t.Errorf("%s %s: %d %q, want 405 %q", c.method, c.path, rec.Code, body, c.want+"\n")
		}
	}
}

//go:build !race

package chl

// Not built under -race, for the reason overlay_alloc_test.go gives.

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
)

// handlerAllocs counts the allocations of one request through h. req is
// reused across requests (a handler does not write to it), with body as a
// fresh Body each time; the recorder is new each time, and its 7
// allocations — itself, the header snapshot WriteHeader takes, the body
// buffer — are in the count.
func handlerAllocs(t *testing.T, h http.Handler, req *http.Request, body []byte) float64 {
	t.Helper()
	serve := func() {
		if body != nil {
			req.Body = io.NopCloser(bytes.NewReader(body))
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s %s: %d %s", req.Method, req.URL, rec.Code, rec.Body)
		}
	}
	serve() // fills the pools
	return testing.AllocsPerRun(100, serve)
}

// TestDistHandlerAllocs pins GET /dist's allocation budget (ROADMAP 2(a)):
// 14, against 15 before the reply was appended into a pooled buffer. The
// encoder itself never allocated — encoding/json pools its state — so
// the append path's own saving is CPU; the allocations that went are the
// metrics wrapper's status recorder and the Content-Type value, and
// Content-Length costs one back. What is left: the recorder's 7, the
// query-string parse (4), boxing the reply for writeJSON, Content-Length,
// and the header map's first bucket.
func TestDistHandlerAllocs(t *testing.T) {
	ix, err := Build(GenerateRoadGrid(24, 24, 1), Options{})
	if err != nil {
		t.Fatal(err)
	}
	fx, err := ix.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServerFromFlat(fx, 0)
	defer srv.Close()
	if allocs := handlerAllocs(t, srv.Handler(), httptest.NewRequest(http.MethodGet, "/dist?u=3&v=500", nil), nil); allocs > 14 {
		t.Errorf("GET /dist allocates %v times per request, want at most 14", allocs)
	}
}

// TestBatchHandlerAllocs pins POST /batch's: a 10,000-pair request is
// read, parsed, answered and encoded on pooled buffers — a constant few
// dozen allocations, where decoding into [][]int took two per pair.
func TestBatchHandlerAllocs(t *testing.T) {
	g := GenerateRoadGrid(24, 24, 1)
	ix, err := Build(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	fx, err := ix.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServerFromFlat(fx, 0)
	defer srv.Close()
	rng := rand.New(rand.NewSource(1))
	pairs := make([][2]int, 10_000)
	for i := range pairs {
		pairs[i] = [2]int{rng.Intn(g.NumVertices()), rng.Intn(g.NumVertices())}
	}
	body, err := json.Marshal(pairs)
	if err != nil {
		t.Fatal(err)
	}
	if allocs := handlerAllocs(t, srv.Handler(), httptest.NewRequest(http.MethodPost, "/batch", nil), body); allocs > 40 {
		t.Errorf("POST /batch of %d pairs allocates %v times per request, want at most 40", len(pairs), allocs)
	}
}

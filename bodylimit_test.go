//go:build !race

package chl_test

// Not built under -race: the test reads 64 MiB four times, and the
// detector's shadow memory multiplies every byte of it.

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	chl "repro"
)

// spaces is an endless request body of white space.
type spaces struct{}

func (spaces) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = ' '
	}
	return len(p), nil
}

// TestBulkBodyLimit413BothTiers: one byte past the 64 MiB body limit is a
// 413 with one body on both tiers, for /batch and /matrix — white space,
// so the size is the only thing wrong with it. Straight into the
// handlers: no need to push 256 MiB through loopback.
func TestBulkBodyLimit413BothTiers(t *testing.T) {
	if testing.Short() {
		t.Skip("reads 4 × 64 MiB")
	}
	fx, _ := buildFlat(t, chl.GenerateScaleFree(120, 3, 3))
	c := startCluster(t, fx, 2, 0)
	defer c.close()
	single := chl.NewServerFromFlat(fx, 0)
	defer single.Close()
	for _, path := range []string{"/batch", "/matrix"} {
		var bodies [2]string
		for i, h := range []http.Handler{c.router.Handler(), single.Handler()} {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, io.LimitReader(spaces{}, 64<<20+1)))
			if rec.Code != http.StatusRequestEntityTooLarge {
				t.Fatalf("POST %s over the limit: status %d, want 413", path, rec.Code)
			}
			bodies[i] = rec.Body.String()
		}
		if bodies[0] != bodies[1] || !strings.Contains(bodies[0], "request body too large") {
			t.Errorf("POST %s over the limit: router body %q, shard tier body %q", path, bodies[0], bodies[1])
		}
	}
}

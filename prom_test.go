package chl

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestMetricsLatencyBucketsFakeClock steps a FakeClock inside an
// instrumented handler and asserts exact histogram placement — the
// deterministic test the Clock threading in httpMetrics.wrap exists
// for: with the wall clock, a 6µs request could land in any of the
// first buckets depending on scheduler luck.
func TestMetricsLatencyBucketsFakeClock(t *testing.T) {
	fc := NewFakeClock(time.Unix(1000, 0))
	m := newHTTPMetrics(fc, "/dist")

	var advance time.Duration
	var status int
	h := m.wrap("/dist", func(w http.ResponseWriter, r *http.Request) {
		fc.Advance(advance)
		if status != 0 {
			w.WriteHeader(status)
		}
	})

	calls := []struct {
		d      time.Duration
		status int
		bucket int // index into latencyBuckets the duration must land in
	}{
		{800 * time.Nanosecond, 0, 0},     // ≤ 1µs: the ladder's first rung
		{6 * time.Microsecond, 0, 3},      // ≤ 10µs: a /dist handler
		{40 * time.Microsecond, 0, 5},     // ≤ 50µs: a loopback /dist
		{50 * time.Microsecond, 0, 5},     // ≤ 50µs, bound inclusive
		{3 * time.Millisecond, 0, 11},     // ≤ 5ms
		{700 * time.Millisecond, 503, 18}, // ≤ 1s
	}
	for _, c := range calls {
		advance, status = c.d, c.status
		h(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/dist", nil))
	}

	e := m.endpoint("/dist")
	if got := e.hist.count.Load(); got != int64(len(calls)) {
		t.Fatalf("count = %d, want %d", got, len(calls))
	}
	var wantSum time.Duration
	for _, c := range calls {
		wantSum += c.d
	}
	if got := e.hist.sumNanos.Load(); got != int64(wantSum) {
		t.Errorf("sumNanos = %d, want %d", got, int64(wantSum))
	}
	for i := range latencyBuckets {
		want := int64(0)
		for _, c := range calls {
			if c.bucket == i {
				want++
			}
		}
		if got := e.hist.buckets[i].Load(); got != want {
			t.Errorf("bucket %d (le %g): %d observations, want %d", i, latencyBuckets[i], got, want)
		}
	}
	if got := e.requests.Load(); got != int64(len(calls)) {
		t.Errorf("requests = %d, want %d", got, len(calls))
	}
	if got := e.errors.Load(); got != 1 {
		t.Errorf("errors = %d, want 1 (the 503)", got)
	}

	// The exposition reflects the same placements, cumulatively.
	var sb strings.Builder
	m.writeTo(&sb, "chl")
	for _, line := range []string{
		`chl_http_request_duration_seconds_bucket{endpoint="/dist",le="0.000001"} 1`,
		`chl_http_request_duration_seconds_bucket{endpoint="/dist",le="0.00001"} 2`,
		`chl_http_request_duration_seconds_bucket{endpoint="/dist",le="0.00005"} 4`,
		`chl_http_request_duration_seconds_bucket{endpoint="/dist",le="0.0001"} 4`,
		`chl_http_request_duration_seconds_bucket{endpoint="/dist",le="0.005"} 5`,
		`chl_http_request_duration_seconds_bucket{endpoint="/dist",le="1"} 6`,
		`chl_http_request_duration_seconds_count{endpoint="/dist"} 6`,
		`chl_http_request_errors_total{endpoint="/dist"} 1`,
	} {
		if !strings.Contains(sb.String(), line) {
			t.Errorf("exposition missing %q:\n%s", line, sb.String())
		}
	}
}

package chl

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Prometheus-format observability for the serving tier. The exposition is
// hand-rolled (the repository takes no dependencies): a fixed-bucket
// latency histogram per endpoint plus request/error counters, written in
// the text format any Prometheus scraper ingests. Server.Handler and
// Router.Handler mount it at GET /metrics alongside the JSON /stats —
// /stats is for humans and tests, /metrics for dashboards and alerting.

// promContentType is the Prometheus text exposition content type.
const promContentType = "text/plain; version=0.0.4; charset=utf-8"

// latencyBuckets are the histogram upper bounds in seconds: 1µs to 10s,
// roughly ×2.5 per step. The ladder starts where the system lives — the
// /dist handler is a few µs, a loopback /dist tens of µs (bench:
// serve.handler_dist_ns, dist_p50_us) — and is wide enough to separate a
// cache hit from a cross-shard fan-out from a stuck shard.
var latencyBuckets = [...]float64{
	0.000001, 0.0000025, 0.000005, 0.00001, 0.000025, 0.00005,
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 10,
}

// latencyHist is a lock-free fixed-bucket histogram of request durations.
type latencyHist struct {
	buckets  [len(latencyBuckets)]atomic.Int64
	count    atomic.Int64
	sumNanos atomic.Int64
}

// observe records one duration.
func (h *latencyHist) observe(d time.Duration) {
	s := d.Seconds()
	for i, ub := range latencyBuckets {
		if s <= ub {
			h.buckets[i].Add(1)
			break
		}
	}
	h.count.Add(1)
	h.sumNanos.Add(int64(d))
}

// endpointMetrics is the per-endpoint instrumentation record.
type endpointMetrics struct {
	name     string
	hist     latencyHist
	requests atomic.Int64
	errors   atomic.Int64 // responses with status >= 400
}

// httpMetrics instruments a fixed set of endpoints, declared up front so
// the hot path is an index into an array, not a map under a lock. Time
// flows through the injected Clock so tests can step a FakeClock and
// assert exact bucket placement.
type httpMetrics struct {
	clock     Clock
	endpoints []*endpointMetrics
}

func newHTTPMetrics(clock Clock, names ...string) *httpMetrics {
	m := &httpMetrics{clock: clock}
	for _, n := range names {
		m.endpoints = append(m.endpoints, &endpointMetrics{name: n})
	}
	sort.Slice(m.endpoints, func(i, j int) bool { return m.endpoints[i].name < m.endpoints[j].name })
	return m
}

func (m *httpMetrics) endpoint(name string) *endpointMetrics {
	for _, e := range m.endpoints {
		if e.name == name {
			return e
		}
	}
	return nil
}

// statusRecorder captures the status code a handler writes.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

// statusRecorders pools them: one per request is the wrapper's only
// allocation.
var statusRecorders = sync.Pool{New: func() any { return new(statusRecorder) }}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

// Flush forwards to the underlying writer when it supports streaming —
// embedding only promotes the ResponseWriter methods, so without this
// an instrumented streaming endpoint (/matrix flushes per row) would
// silently lose its flushes.
func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// wrap instruments a handler: duration into the endpoint's histogram,
// request and error counters alongside.
func (m *httpMetrics) wrap(name string, h http.HandlerFunc) http.HandlerFunc {
	e := m.endpoint(name)
	if e == nil {
		return h
	}
	return func(w http.ResponseWriter, r *http.Request) {
		rec := statusRecorders.Get().(*statusRecorder)
		rec.ResponseWriter, rec.status = w, http.StatusOK
		start := m.clock.Now()
		h(rec, r)
		e.hist.observe(m.clock.Now().Sub(start))
		e.requests.Add(1)
		if rec.status >= 400 {
			e.errors.Add(1)
		}
		rec.ResponseWriter = nil
		statusRecorders.Put(rec)
	}
}

// writeTo emits the per-endpoint histograms and counters in Prometheus
// text format. prefix namespaces the metric family (e.g. "chl" or
// "chl_router") so a shard server and a router scraped by the same
// Prometheus stay distinguishable.
func (m *httpMetrics) writeTo(w io.Writer, prefix string) {
	fmt.Fprintf(w, "# HELP %s_http_request_duration_seconds HTTP request latency by endpoint.\n", prefix)
	fmt.Fprintf(w, "# TYPE %s_http_request_duration_seconds histogram\n", prefix)
	for _, e := range m.endpoints {
		cum := int64(0)
		for i, ub := range latencyBuckets {
			cum += e.hist.buckets[i].Load()
			fmt.Fprintf(w, "%s_http_request_duration_seconds_bucket{endpoint=%q,le=%q} %d\n",
				prefix, e.name, formatBucket(ub), cum)
		}
		count := e.hist.count.Load()
		fmt.Fprintf(w, "%s_http_request_duration_seconds_bucket{endpoint=%q,le=\"+Inf\"} %d\n", prefix, e.name, count)
		fmt.Fprintf(w, "%s_http_request_duration_seconds_sum{endpoint=%q} %g\n",
			prefix, e.name, float64(e.hist.sumNanos.Load())/float64(time.Second))
		fmt.Fprintf(w, "%s_http_request_duration_seconds_count{endpoint=%q} %d\n", prefix, e.name, count)
	}
	fmt.Fprintf(w, "# HELP %s_http_requests_total HTTP requests served, by endpoint.\n", prefix)
	fmt.Fprintf(w, "# TYPE %s_http_requests_total counter\n", prefix)
	for _, e := range m.endpoints {
		fmt.Fprintf(w, "%s_http_requests_total{endpoint=%q} %d\n", prefix, e.name, e.requests.Load())
	}
	fmt.Fprintf(w, "# HELP %s_http_request_errors_total HTTP responses with status >= 400, by endpoint.\n", prefix)
	fmt.Fprintf(w, "# TYPE %s_http_request_errors_total counter\n", prefix)
	for _, e := range m.endpoints {
		fmt.Fprintf(w, "%s_http_request_errors_total{endpoint=%q} %d\n", prefix, e.name, e.errors.Load())
	}
}

// formatBucket renders a bucket bound the way Prometheus conventionally
// prints it (no scientific notation, even for the µs bounds).
func formatBucket(ub float64) string {
	return strconv.FormatFloat(ub, 'f', -1, 64)
}

// promGauge writes one unlabelled gauge with HELP/TYPE preamble.
func promGauge(w io.Writer, name, help string, v float64) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name, help, name, name, v)
}

// promCounter writes one unlabelled counter with HELP/TYPE preamble.
func promCounter(w io.Writer, name, help string, v int64) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
}

// promOverlayQueries writes the outstanding delta overlay's query counts,
// one series per path that can answer a query through it.
func promOverlayQueries(w io.Writer, name string, ps *PatchStats) {
	fmt.Fprintf(w, "# HELP %s Queries answered through the outstanding delta overlay, by path: frozen answer certified, corrected, or exact Dijkstra fallback. Restarts at every patch batch.\n# TYPE %s counter\n", name, name)
	fmt.Fprintf(w, "%s{path=\"frozen\"} %d\n", name, ps.Frozen)
	fmt.Fprintf(w, "%s{path=\"corrected\"} %d\n", name, ps.Corrected)
	fmt.Fprintf(w, "%s{path=\"fallback\"} %d\n", name, ps.Fallback)
}

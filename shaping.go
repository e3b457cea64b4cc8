package chl

// Traffic shaping for the Router's front door: singleflight collapsing of
// identical in-flight pairs, per-client token-bucket quotas, and the 429
// load-shedding contract. The hedging half of the shaping layer lives in
// router.go (callShard) because it is woven into replica selection; the
// pieces here are self-contained and unit-tested against a FakeClock.

import (
	"math"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"
)

// --- singleflight ---

// flightKind separates the workload keyspaces collapsible work lives
// in. Pair queries and top-k scans both pack two integers into
// flightKey.pair, so without the kind a /knn for (u=3, k=5) would
// collapse into an in-flight /dist for the pair (3,5) — a different
// question with the same bits. Same discipline as the answer cache,
// which never lets a non-pair workload mint pair keys (see Cache).
type flightKind uint8

const (
	flightDist flightKind = iota // pair query: pair = u<<32|v under the cache's pairKey rule
	flightKNN                    // top-k scan: pair = u<<32|k
)

// flightKey identifies one collapsible unit of in-flight work: a vertex
// pair under the cache's key discipline (canonicalized when the cluster
// is undirected, ordered when directed — the same pairKey rule, so two
// requests collapse exactly when the cache would have given one the
// other's answer). Every pair flight computes the witness hub, so Query
// and QueryHub callers of one pair share a flight.
type flightKey struct {
	kind flightKind
	pair uint64
	// pepoch is the delta-overlay patch epoch the flight was keyed under
	// (0 = no outstanding patches). A patch batch changes every answer's
	// provenance, so a flight led before the batch must not feed a query
	// arriving after it — the epoch splits their keyspaces the same way
	// the fresh answer cache splits cached answers.
	pepoch uint64
}

// flightKeyFor builds the singleflight key for one collapsible unit of
// work. It is the only place outside Cache.pairKey that packs a vertex
// pair into 64 bits: pair flights canonicalize (u,v) under the same
// rule as the answer cache (ordered when the cluster is directed,
// sorted when not — PR 5's aliasing fix), so two requests collapse
// exactly when the cache would share their answer. /knn flights pack
// (u,k), which is ordered by construction and never canonicalized.
func flightKeyFor(kind flightKind, directed bool, u, v int, pepoch uint64) flightKey {
	if kind == flightDist && !directed && u > v {
		u, v = v, u
	}
	return flightKey{
		kind:   kind,
		pair:   uint64(uint32(u))<<32 | uint64(uint32(v)),
		pepoch: pepoch,
	}
}

// flightResult is what a flight's leader hands every collapsed follower.
// Pair flights fill dist/hub/ok; /knn flights fill neighbors.
type flightResult struct {
	dist      float64
	hub       int
	ok        bool
	neighbors []Neighbor
	err       error
}

type flight struct {
	done chan struct{}
	res  flightResult
}

// flightGroup collapses concurrent duplicate work: the first caller for a
// key becomes the leader and runs fn; callers arriving while the leader
// is in flight wait for its result instead of repeating the backend
// round trip. Completed flights are forgotten immediately — this is
// duplicate suppression, not a cache (the answer cache sits in front).
type flightGroup struct {
	mu sync.Mutex
	m  map[flightKey]*flight
}

// do runs fn under key, collapsing duplicates. joined (optional) is
// called when this caller collapses into an existing flight, before
// blocking — the router counts collapses there, and tests use the count
// to know followers are parked.
func (g *flightGroup) do(key flightKey, joined func(), fn func() flightResult) flightResult {
	g.mu.Lock()
	if g.m == nil {
		g.m = make(map[flightKey]*flight)
	}
	if f, dup := g.m[key]; dup {
		g.mu.Unlock()
		if joined != nil {
			joined()
		}
		<-f.done
		return f.res
	}
	f := &flight{done: make(chan struct{})}
	g.m[key] = f
	g.mu.Unlock()
	f.res = fn()
	g.mu.Lock()
	delete(g.m, key)
	g.mu.Unlock()
	close(f.done)
	return f.res
}

// --- per-client quotas ---

// QuotaKeyHeader names the request header the router keys per-client
// quotas on; requests without it are keyed on the remote address's host.
const QuotaKeyHeader = "X-Client-ID"

// maxClientIDLen bounds the client id kept from the header; longer ids
// are truncated (clients sharing a 64-byte prefix share a bucket, which
// is an accepted degradation — the alternative is unbounded keys from
// hostile headers).
const maxClientIDLen = 64

// quotaKey derives the per-client quota key for a request: the sanitized
// X-Client-ID header value when one is usable, else the host half of the
// remote address. The two namespaces are prefixed so a header can never
// impersonate an address key (or vice versa), and the result is always
// non-empty printable ASCII of bounded length.
func quotaKey(clientID, remoteAddr string) string {
	if id := sanitizeClientID(clientID); id != "" {
		return "id:" + id
	}
	host := remoteAddr
	if h, _, err := net.SplitHostPort(remoteAddr); err == nil {
		host = h
	}
	host = sanitizeClientID(host)
	if host == "" {
		return "addr:unknown"
	}
	return "addr:" + host
}

// sanitizeClientID truncates s to maxClientIDLen bytes and rejects it
// entirely (returning "") if what remains is empty, has surrounding
// space, or contains anything outside printable ASCII — a header full of
// control bytes falls back to address keying rather than minting a
// garbage bucket key.
func sanitizeClientID(s string) string {
	if len(s) > maxClientIDLen {
		s = s[:maxClientIDLen]
	}
	if s == "" || strings.TrimSpace(s) != s {
		return ""
	}
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < '!' || c > '~' {
			return ""
		}
	}
	return s
}

// quotaMaxBuckets bounds the limiter's bucket map; when a new client
// would exceed it, fully refilled (idle) buckets are swept first. A
// hostile client minting keys can therefore hold at most this many
// buckets, each a few words.
const quotaMaxBuckets = 4096

// tokenBucket is one client's quota state: a token count refilled at the
// limiter's rate, capped at its burst.
type tokenBucket struct {
	tokens float64
	last   time.Time
}

// refill credits tokens for the time since last at rate, capping at
// burst. A clock step backwards credits nothing and re-anchors.
func (b *tokenBucket) refill(now time.Time, rate, burst float64) {
	if now.After(b.last) {
		b.tokens = math.Min(burst, b.tokens+now.Sub(b.last).Seconds()*rate)
	}
	b.last = now
}

// quotaLimiter admits requests against per-client token buckets: each
// client sustains rate requests per second with bursts up to burst.
// Clients are lazily materialized with a full bucket. Time comes from
// the injected Clock, never the real one.
type quotaLimiter struct {
	clock Clock
	rate  float64
	burst float64

	mu      sync.Mutex
	buckets map[string]*tokenBucket
}

// newQuotaLimiter returns a limiter at rate requests/second per client
// with the given burst (<= 0 defaults to max(1, rate)); a rate <= 0
// disables quotas and returns nil.
func newQuotaLimiter(clock Clock, rate float64, burst int) *quotaLimiter {
	if rate <= 0 {
		return nil
	}
	b := float64(burst)
	if b < 1 {
		b = math.Max(1, rate)
	}
	return &quotaLimiter{clock: clock, rate: rate, burst: b, buckets: make(map[string]*tokenBucket)}
}

// take spends one token from key's bucket. When the bucket is empty it
// reports false plus how long until a token accrues — the Retry-After
// hint for the 429.
func (q *quotaLimiter) take(key string) (ok bool, retryAfter time.Duration) {
	now := q.clock.Now()
	q.mu.Lock()
	defer q.mu.Unlock()
	b := q.buckets[key]
	if b == nil {
		if len(q.buckets) >= quotaMaxBuckets {
			q.sweep(now)
		}
		b = &tokenBucket{tokens: q.burst, last: now}
		q.buckets[key] = b
	} else {
		b.refill(now, q.rate, q.burst)
	}
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	need := 1 - b.tokens
	return false, time.Duration(need / q.rate * float64(time.Second))
}

// sweep drops buckets that have refilled completely — a full bucket is
// indistinguishable from a fresh one, so forgetting it changes nothing
// for that client. Called under q.mu when the map is at capacity.
func (q *quotaLimiter) sweep(now time.Time) {
	for k, b := range q.buckets {
		b.refill(now, q.rate, q.burst)
		if b.tokens >= q.burst {
			delete(q.buckets, k)
		}
	}
}

// --- the 429 contract ---

// Shed reasons, echoed in the 429 body so clients and dashboards can
// tell "the router is saturated" from "you, specifically, are over
// quota".
const (
	shedReasonCapacity = "over_capacity"
	shedReasonQuota    = "client_quota"
)

// shedCapacityRetry is the retry hint on concurrency-limit sheds: there
// is no bucket to predict from, so a short constant backoff.
const shedCapacityRetry = 50 * time.Millisecond

// shedBody is the JSON body of every 429 the router sheds — the same
// {"error": ...} contract as every other error body, plus machine-usable
// retry fields.
type shedBody struct {
	Error             string  `json:"error"`
	Reason            string  `json:"reason"`
	RetryAfterSeconds float64 `json:"retry_after_seconds"`
}

// clampRetryAfter turns a retry hint into a finite, non-negative number
// of seconds JSON can carry (json.Marshal rejects NaN/Inf).
func clampRetryAfter(d time.Duration) float64 {
	s := d.Seconds()
	if math.IsNaN(s) || s < 0 {
		return 0
	}
	const max = 3600
	if s > max || math.IsInf(s, 1) {
		return max
	}
	return s
}

// writeShed writes the 429: the JSON body plus a whole-second Retry-After
// header (rounded up — an HTTP Retry-After of 0 reads as "now").
func writeShed(w http.ResponseWriter, body shedBody) {
	secs := int(math.Ceil(body.RetryAfterSeconds))
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	writeJSON(w, http.StatusTooManyRequests, body)
}

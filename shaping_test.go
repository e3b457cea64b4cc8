package chl

// White-box tests for the router's traffic-shaping front door: the
// singleflight group, per-client token buckets, quota keying, the 429
// shed contract, the shape() HTTP gates, and the hedged-request path.
// Everything time-dependent runs on a FakeClock — no real sleeps, no
// wall-clock deadlines.

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/shard"
)

// --- singleflight ---

// One leader, many followers: followers arriving while the leader is in
// flight must not run fn, must all receive the leader's result, and the
// joined callback must fire once per follower (that is what the router
// counts as a collapse).
func TestFlightGroupCollapsesDuplicates(t *testing.T) {
	var g flightGroup
	key := flightKey{pair: 42}
	const followers = 7

	var calls, joins atomic.Int64
	leaderIn := make(chan struct{})
	release := make(chan struct{})
	results := make([]flightResult, followers+1)
	var wg sync.WaitGroup

	wg.Add(1)
	go func() {
		defer wg.Done()
		results[0] = g.do(key, func() { joins.Add(1) }, func() flightResult {
			calls.Add(1)
			close(leaderIn)
			<-release
			return flightResult{dist: 7, hub: 3, ok: true}
		})
	}()
	<-leaderIn
	for i := 1; i <= followers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = g.do(key, func() { joins.Add(1) }, func() flightResult {
				calls.Add(1)
				return flightResult{dist: -1}
			})
		}(i)
	}
	// joined fires before a follower parks, so this converges without the
	// leader ever finishing.
	for joins.Load() < followers {
		runtime.Gosched()
	}
	close(release)
	wg.Wait()

	if got := calls.Load(); got != 1 {
		t.Fatalf("fn ran %d times for %d concurrent callers, want 1", got, followers+1)
	}
	if got := joins.Load(); got != followers {
		t.Fatalf("joined fired %d times, want %d", got, followers)
	}
	for i, res := range results {
		if res.dist != 7 || res.hub != 3 || !res.ok {
			t.Fatalf("caller %d got %+v, want the leader's result", i, res)
		}
	}

	// Completed flights are forgotten: the next caller for the same key
	// leads a fresh flight.
	res := g.do(key, nil, func() flightResult { calls.Add(1); return flightResult{dist: 3} })
	if res.dist != 3 || calls.Load() != 2 {
		t.Fatalf("post-flight caller got %+v after %d calls, want a fresh flight", res, calls.Load())
	}
}

// Key discipline: callers collapse exactly when their keys match — a
// Query and a QueryHub of one pair share a flight (every pair flight
// computes the witness), and distinct pairs never share a flight.
func TestFlightGroupKeyDiscipline(t *testing.T) {
	cases := []struct {
		name         string
		a, b         flightKey
		wantCollapse bool
	}{
		{"same pair same kind", flightKey{pair: 9}, flightKey{pair: 9}, true},
		// Router.Query and Router.QueryHub both key a pair this way.
		{"same pair hub vs plain", flightKeyFor(flightDist, false, 0, 9, 0), flightKeyFor(flightDist, false, 0, 9, 0), true},
		{"different pair", flightKey{pair: 9}, flightKey{pair: 10}, false},
		// /knn(u=3,k=5) packs the same pair bits as /dist(3,5): the kind
		// field is what keeps the two workloads in separate flights.
		{"same bits dist vs knn", flightKey{kind: flightDist, pair: 3<<32 | 5},
			flightKey{kind: flightKNN, pair: 3<<32 | 5}, false},
		{"same knn key collapses", flightKey{kind: flightKNN, pair: 3<<32 | 5},
			flightKey{kind: flightKNN, pair: 3<<32 | 5}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var g flightGroup
			leaderIn := make(chan struct{})
			release := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				g.do(tc.a, nil, func() flightResult {
					close(leaderIn)
					<-release
					return flightResult{dist: 1}
				})
			}()
			<-leaderIn

			var joins atomic.Int64
			second := make(chan flightResult, 1)
			wg.Add(1)
			go func() {
				defer wg.Done()
				second <- g.do(tc.b, func() { joins.Add(1) }, func() flightResult {
					return flightResult{dist: 2}
				})
			}()
			if tc.wantCollapse {
				for joins.Load() == 0 {
					runtime.Gosched()
				}
				select {
				case res := <-second:
					t.Fatalf("follower returned %+v while its leader was still in flight", res)
				default:
				}
				close(release)
				if res := <-second; res.dist != 1 {
					t.Fatalf("collapsed follower got %+v, want the leader's result", res)
				}
			} else {
				// Independent keys never park: the second caller completes
				// its own flight while the first leader is still blocked.
				if res := <-second; res.dist != 2 || joins.Load() != 0 {
					t.Fatalf("independent flight got %+v (joins=%d), want its own result, 0 joins", res, joins.Load())
				}
				close(release)
			}
			wg.Wait()
		})
	}
}

// --- token buckets ---

func TestQuotaLimiterBurstAndRefill(t *testing.T) {
	clk := NewFakeClock(time.Unix(1_700_000_000, 0))
	q := newQuotaLimiter(clk, 2, 4) // 2 tokens/s, burst 4

	for i := 0; i < 4; i++ {
		if ok, _ := q.take("id:a"); !ok {
			t.Fatalf("take %d inside the burst was refused", i)
		}
	}
	ok, retry := q.take("id:a")
	if ok {
		t.Fatal("take beyond the burst was admitted")
	}
	if want := 500 * time.Millisecond; retry != want {
		t.Fatalf("empty bucket hinted retry after %v, want %v (1 token at 2/s)", retry, want)
	}

	// Half a token accrues in 250ms: still refused, hint shrinks.
	clk.Advance(250 * time.Millisecond)
	if ok, retry = q.take("id:a"); ok || retry != 250*time.Millisecond {
		t.Fatalf("after 250ms: ok=%v retry=%v, want refused with 250ms hint", ok, retry)
	}
	clk.Advance(250 * time.Millisecond)
	if ok, _ = q.take("id:a"); !ok {
		t.Fatal("a full second of refill did not admit one request")
	}
	if ok, _ = q.take("id:a"); ok {
		t.Fatal("the single refilled token admitted two requests")
	}

	// Idle time caps at the burst, never beyond it.
	clk.Advance(time.Hour)
	for i := 0; i < 4; i++ {
		if ok, _ := q.take("id:a"); !ok {
			t.Fatalf("take %d after a long idle was refused (burst not restored)", i)
		}
	}
	if ok, _ := q.take("id:a"); ok {
		t.Fatal("idle refill exceeded the burst cap")
	}

	// Buckets are per key.
	if ok, _ := q.take("id:b"); !ok {
		t.Fatal("a fresh client was refused because another client is over quota")
	}
}

func TestQuotaLimiterDefaultsAndBackwardsClock(t *testing.T) {
	if q := newQuotaLimiter(NewFakeClock(time.Unix(0, 0)), 0, 10); q != nil {
		t.Fatal("rate 0 should disable quotas (nil limiter)")
	}

	clk := NewFakeClock(time.Unix(1_700_000_000, 0))
	q := newQuotaLimiter(clk, 3, 0) // burst defaults to max(1, rate) = 3
	for i := 0; i < 3; i++ {
		if ok, _ := q.take("id:a"); !ok {
			t.Fatalf("take %d inside the default burst was refused", i)
		}
	}
	if ok, _ := q.take("id:a"); ok {
		t.Fatal("default burst admitted more than rate requests")
	}

	// A clock step backwards credits nothing and re-anchors: refill
	// resumes from the earlier instant.
	clk.Advance(-10 * time.Second)
	if ok, _ := q.take("id:a"); ok {
		t.Fatal("a backwards clock step minted tokens")
	}
	clk.Advance(time.Second) // 1s forward of the re-anchored instant: 3 tokens, capped... at burst
	for i := 0; i < 3; i++ {
		if ok, _ := q.take("id:a"); !ok {
			t.Fatalf("take %d after re-anchored refill was refused", i)
		}
	}
}

// At capacity the limiter sweeps fully refilled buckets; buckets holding
// live debt survive the sweep, so a hostile client minting keys cannot
// evict a real client's quota state.
func TestQuotaLimiterSweep(t *testing.T) {
	clk := NewFakeClock(time.Unix(1_700_000_000, 0))
	q := newQuotaLimiter(clk, 1, 1)
	for i := 0; i < quotaMaxBuckets; i++ {
		q.take(fmt.Sprintf("id:fill-%d", i))
	}
	// Every bucket just spent its token: nothing is sweepable, so the map
	// grows past the cap rather than forgetting live debt.
	q.take("id:straggler")
	q.mu.Lock()
	n := len(q.buckets)
	q.mu.Unlock()
	if n != quotaMaxBuckets+1 {
		t.Fatalf("sweep evicted un-refilled buckets: %d buckets, want %d", n, quotaMaxBuckets+1)
	}
	// The straggler's debt survived the failed sweep.
	if ok, _ := q.take("id:straggler"); ok {
		t.Fatal("straggler's empty bucket was forgotten at capacity")
	}

	// Once everyone refills, the next overflow sweeps them all away.
	clk.Advance(2 * time.Second)
	q.take("id:fresh")
	q.mu.Lock()
	n = len(q.buckets)
	q.mu.Unlock()
	if n != 1 {
		t.Fatalf("sweep left %d buckets, want 1 (only the fresh client)", n)
	}
}

// --- quota keying ---

func TestQuotaKey(t *testing.T) {
	long := strings.Repeat("x", maxClientIDLen+20)
	cases := []struct {
		name, clientID, remoteAddr, want string
	}{
		{"header wins", "alice", "1.2.3.4:5678", "id:alice"},
		{"header truncated", long, "1.2.3.4:5678", "id:" + long[:maxClientIDLen]},
		{"no header keys on host", "", "1.2.3.4:5678", "addr:1.2.3.4"},
		{"hostless addr kept whole", "", "10.9.8.7", "addr:10.9.8.7"},
		{"ipv6 host extracted", "", "[::1]:8080", "addr:::1"},
		{"inner space rejected", "a b", "1.2.3.4:1", "addr:1.2.3.4"},
		{"surrounding space rejected", " alice", "1.2.3.4:1", "addr:1.2.3.4"},
		{"control bytes rejected", "a\x00b", "1.2.3.4:1", "addr:1.2.3.4"},
		{"non-ascii rejected", "café", "1.2.3.4:1", "addr:1.2.3.4"},
		{"garbage everywhere", "\n", "\x01", "addr:unknown"},
		{"empty everything", "", "", "addr:unknown"},
	}
	for _, tc := range cases {
		if got := quotaKey(tc.clientID, tc.remoteAddr); got != tc.want {
			t.Errorf("%s: quotaKey(%q, %q) = %q, want %q", tc.name, tc.clientID, tc.remoteAddr, got, tc.want)
		}
	}
}

// --- the 429 contract ---

func TestClampRetryAfter(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want float64
	}{
		{0, 0},
		{-5 * time.Second, 0},
		{250 * time.Millisecond, 0.25},
		{2 * time.Hour, 3600},
		{math.MaxInt64, 3600},
	}
	for _, tc := range cases {
		if got := clampRetryAfter(tc.d); got != tc.want {
			t.Errorf("clampRetryAfter(%v) = %v, want %v", tc.d, got, tc.want)
		}
	}
}

func TestWriteShed(t *testing.T) {
	cases := []struct {
		secs       float64
		wantHeader string
	}{
		{0, "1"},   // Retry-After 0 reads as "now"; round up
		{0.2, "1"}, // sub-second rounds up to a whole second
		{3.5, "4"},
	}
	for _, tc := range cases {
		rec := httptest.NewRecorder()
		writeShed(rec, shedBody{Error: "shed", Reason: shedReasonQuota, RetryAfterSeconds: tc.secs})
		if rec.Code != http.StatusTooManyRequests {
			t.Fatalf("writeShed status %d, want 429", rec.Code)
		}
		if got := rec.Header().Get("Retry-After"); got != tc.wantHeader {
			t.Fatalf("Retry-After %q for %vs, want %q", got, tc.secs, tc.wantHeader)
		}
		var body shedBody
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			t.Fatalf("429 body is not JSON: %v", err)
		}
		if body.Error != "shed" || body.Reason != shedReasonQuota || body.RetryAfterSeconds != tc.secs {
			t.Fatalf("429 body round-tripped to %+v", body)
		}
	}
}

// --- the shape() HTTP gates ---

// The concurrency gate: with MaxInFlight 1 and one request parked in the
// handler, the next request is shed with reason over_capacity — and the
// gate releases as soon as the parked request finishes.
func TestShapeShedsOverCapacity(t *testing.T) {
	r := &Router{clock: realClock{}, maxInFlight: 1}
	entered := make(chan struct{})
	release := make(chan struct{})
	h := r.shape(func(w http.ResponseWriter, req *http.Request) {
		entered <- struct{}{}
		<-release
		w.WriteHeader(http.StatusOK)
	})
	req := httptest.NewRequest(http.MethodGet, "/dist?u=0&v=1", nil)

	first := make(chan int, 1)
	go func() {
		rec := httptest.NewRecorder()
		h(rec, req)
		first <- rec.Code
	}()
	<-entered

	rec := httptest.NewRecorder()
	h(rec, req)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("request over the in-flight cap got %d, want 429", rec.Code)
	}
	var body shedBody
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("shed body is not JSON: %v", err)
	}
	if body.Reason != shedReasonCapacity || body.Error == "" {
		t.Fatalf("shed body %+v, want reason %q with an error string", body, shedReasonCapacity)
	}
	if body.RetryAfterSeconds <= 0 || body.RetryAfterSeconds > 1 {
		t.Fatalf("capacity shed hinted retry after %vs, want a short positive hint", body.RetryAfterSeconds)
	}
	if rec.Header().Get("Retry-After") != "1" {
		t.Fatalf("Retry-After %q, want %q", rec.Header().Get("Retry-After"), "1")
	}

	close(release)
	if code := <-first; code != http.StatusOK {
		t.Fatalf("parked request finished with %d, want 200", code)
	}
	// Both the shed request and the parked one released their slots.
	if n := r.shapeInFlight.Load(); n != 0 {
		t.Fatalf("in-flight gauge %d after all requests finished, want 0", n)
	}
	if got := r.shed.Load(); got != 1 {
		t.Fatalf("shed counter %d, want 1", got)
	}
}

// The quota gate: per-client buckets keyed on X-Client-ID, with the
// remote host as fallback, refilling on the fake clock.
func TestShapeShedsClientQuota(t *testing.T) {
	clk := NewFakeClock(time.Unix(1_700_000_000, 0))
	r := &Router{clock: clk, quota: newQuotaLimiter(clk, 1, 2)}
	h := r.shape(func(w http.ResponseWriter, req *http.Request) { w.WriteHeader(http.StatusOK) })

	do := func(clientID, remoteAddr string) (int, shedBody) {
		req := httptest.NewRequest(http.MethodGet, "/dist?u=0&v=1", nil)
		if clientID != "" {
			req.Header.Set(QuotaKeyHeader, clientID)
		}
		req.RemoteAddr = remoteAddr
		rec := httptest.NewRecorder()
		h(rec, req)
		var body shedBody
		if rec.Code == http.StatusTooManyRequests {
			if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
				t.Fatalf("shed body is not JSON: %v", err)
			}
		}
		return rec.Code, body
	}

	// alice burns her burst of 2, then sheds with a refill-accurate hint.
	for i := 0; i < 2; i++ {
		if code, _ := do("alice", "1.1.1.1:10"); code != http.StatusOK {
			t.Fatalf("alice's request %d inside her burst got %d", i, code)
		}
	}
	code, body := do("alice", "1.1.1.1:10")
	if code != http.StatusTooManyRequests || body.Reason != shedReasonQuota {
		t.Fatalf("alice over quota got %d %+v, want 429 %s", code, body, shedReasonQuota)
	}
	if body.RetryAfterSeconds != 1 {
		t.Fatalf("over-quota retry hint %vs, want 1s (one token at 1/s)", body.RetryAfterSeconds)
	}

	// Other clients are unaffected — header-keyed or address-keyed.
	if code, _ := do("bob", "1.1.1.1:10"); code != http.StatusOK {
		t.Fatalf("bob shed because alice is over quota: %d", code)
	}
	if code, _ := do("", "2.2.2.2:10"); code != http.StatusOK {
		t.Fatalf("address-keyed client shed because alice is over quota: %d", code)
	}
	// Same host, different port: same bucket (one token left from burst 2).
	if code, _ := do("", "2.2.2.2:99"); code != http.StatusOK {
		t.Fatalf("same-host second request inside burst got %d", code)
	}
	if code, body := do("", "2.2.2.2:7"); code != http.StatusTooManyRequests || body.Reason != shedReasonQuota {
		t.Fatalf("same-host third request got %d %+v, want 429 (port must not split the bucket)", code, body)
	}

	// The fake clock refills alice.
	clk.Advance(time.Second)
	if code, _ := do("alice", "1.1.1.1:10"); code != http.StatusOK {
		t.Fatalf("alice still shed after her bucket refilled: %d", code)
	}

	if got := r.shed.Load(); got != 2 {
		t.Fatalf("shed counter %d, want 2", got)
	}
}

// TestWriteShedRetryContract pins the full 429 contract end to end
// through shape(), for both shed reasons, at refill times that land on
// fractional seconds: retry_after_seconds is always strictly positive
// (a zero hint reads as "retry immediately" and turns backoff loops
// into busy loops), and the Retry-After header is its ceiling, never
// below one whole second. The fractional cases are the regression
// surface: a truncating header (int(secs)) would serve "0" for every
// sub-second hint and pass the whole-second cases above.
func TestWriteShedRetryContract(t *testing.T) {
	cases := []struct {
		name       string
		rate       float64       // quota tokens/second (0 = capacity shed instead)
		burn       int           // requests to burn before the shed probe
		advance    time.Duration // partial refill between burn and probe
		wantReason string
		wantSecs   float64 // exact expected retry_after_seconds
		wantHeader string  // ceil(wantSecs), min 1
	}{
		{"capacity/50ms-constant", 0, 0, 0, shedReasonCapacity, 0.05, "1"},
		{"quota/fractional-sub-second", 2.5, 1, 0, shedReasonQuota, 0.4, "1"},
		{"quota/fractional-multi-second", 0.4, 1, 0, shedReasonQuota, 2.5, "3"},
		{"quota/partial-refill", 1, 1, 300 * time.Millisecond, shedReasonQuota, 0.7, "1"},
		{"quota/whole-second", 1, 1, 0, shedReasonQuota, 1, "1"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			clk := NewFakeClock(time.Unix(1_700_000_000, 0))
			r := &Router{clock: clk}
			var park chan struct{}
			if tc.rate > 0 {
				r.quota = newQuotaLimiter(clk, tc.rate, 1)
			} else {
				// Capacity shed: park one request in the handler so the
				// probe finds the single slot taken.
				r.maxInFlight = 1
				park = make(chan struct{})
			}
			entered := make(chan struct{}, 1)
			h := r.shape(func(w http.ResponseWriter, req *http.Request) {
				entered <- struct{}{}
				if park != nil {
					<-park
				}
				w.WriteHeader(http.StatusOK)
			})
			req := httptest.NewRequest(http.MethodGet, "/dist?u=0&v=1", nil)
			req.Header.Set(QuotaKeyHeader, "carol")
			if park != nil {
				go func() { h(httptest.NewRecorder(), req) }()
				<-entered
				defer close(park)
			}
			for i := 0; i < tc.burn; i++ {
				rec := httptest.NewRecorder()
				h(rec, req)
				if rec.Code != http.StatusOK {
					t.Fatalf("burn request %d got %d, want 200", i, rec.Code)
				}
			}
			if tc.advance > 0 {
				clk.Advance(tc.advance)
			}
			rec := httptest.NewRecorder()
			h(rec, req)
			if rec.Code != http.StatusTooManyRequests {
				t.Fatalf("shed probe got %d, want 429", rec.Code)
			}
			var body shedBody
			if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
				t.Fatalf("429 body is not JSON: %v", err)
			}
			if body.Reason != tc.wantReason || body.Error == "" {
				t.Fatalf("shed body %+v, want reason %q with an error string", body, tc.wantReason)
			}
			if body.RetryAfterSeconds <= 0 {
				t.Fatalf("retry_after_seconds = %v, must be strictly positive", body.RetryAfterSeconds)
			}
			//chlvet:allow floatexact -- retry_after_seconds is a duration that survives a JSON float round trip, not a distance answer under the bit-exact contract
			if math.Abs(body.RetryAfterSeconds-tc.wantSecs) > 1e-9 {
				t.Fatalf("retry_after_seconds = %v, want %v", body.RetryAfterSeconds, tc.wantSecs)
			}
			if got := rec.Header().Get("Retry-After"); got != tc.wantHeader {
				t.Fatalf("Retry-After header %q, want %q (ceil of %v, min 1)", got, tc.wantHeader, body.RetryAfterSeconds)
			}
			if hdr, _ := strconv.Atoi(rec.Header().Get("Retry-After")); float64(hdr) < body.RetryAfterSeconds || hdr < 1 {
				t.Fatalf("Retry-After %d rounds down below the %vs hint", hdr, body.RetryAfterSeconds)
			}
		})
	}
}

// --- hedging ---

// The hedge path end to end: the first attempt parks, the FakeClock
// advances past the hedge delay, the hedge fires at the sibling and wins,
// and the loser is canceled — health-neutral: no error counts, no
// ejection, no failover.
func TestHedgeFiresAndCancelsLoser(t *testing.T) {
	g := GenerateScaleFree(200, 3, 9)
	ix, err := Build(g, Options{Algorithm: AlgoSeqPLL})
	if err != nil {
		t.Fatal(err)
	}
	fx, err := ix.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	m, err := fx.SaveShards(dir, 1, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	part, err := m.Partition()
	if err != nil {
		t.Fatal(err)
	}
	path, err := ShardFilePath(filepath.Join(dir, shard.ManifestName), m, 0)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if err := srv.SetShard(0, part); err != nil {
		t.Fatal(err)
	}
	inner := srv.Handler()

	// Both replicas share one handler: the first /dist to arrive parks
	// until its context is canceled; everything else is served for real.
	var distCalls atomic.Int64
	arrived := make(chan struct{}, 1)
	parked := make(chan struct{}, 1)
	h := http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path == "/dist" && distCalls.Add(1) == 1 {
			arrived <- struct{}{}
			<-req.Context().Done()
			parked <- struct{}{}
			return
		}
		inner.ServeHTTP(w, req)
	})
	ts1 := httptest.NewServer(h)
	defer ts1.Close()
	ts2 := httptest.NewServer(h)
	defer ts2.Close()

	clk := NewFakeClock(time.Unix(1_700_000_000, 0))
	r, err := NewRouter(RouterConfig{
		Manifest:     m,
		ReplicaAddrs: [][]string{{ts1.URL, ts2.URL}},
		HedgeDelay:   2 * time.Millisecond,
		Clock:        clk,
	})
	if err != nil {
		t.Fatal(err)
	}

	want := fx.Query(0, 1)
	done := make(chan struct{})
	var got float64
	var qerr error
	go func() {
		got, qerr = r.Query(0, 1)
		close(done)
	}()
	// The hedge timer is registered before the first attempt launches, so
	// once that attempt has observably arrived, Advance reliably fires it.
	<-arrived
	clk.Advance(5 * time.Millisecond)
	<-done
	if qerr != nil {
		t.Fatalf("hedged query failed: %v", qerr)
	}
	if got != want {
		t.Fatalf("hedged query = %v, want %v", got, want)
	}
	// The loser's context was canceled on the winner's return.
	<-parked

	st := r.Stats()
	if st.Hedges != 1 {
		t.Fatalf("hedges counter %d, want 1", st.Hedges)
	}
	if st.Failovers != 0 {
		t.Fatalf("a canceled hedge loser was counted as a failover (%d)", st.Failovers)
	}
	var reqs int64
	for _, rs := range st.Shards[0].Replicas {
		reqs += rs.Requests
		if rs.Errors != 0 || rs.Ejected {
			t.Fatalf("canceled hedge loser dinged replica health: %+v", rs)
		}
	}
	if reqs != 2 {
		t.Fatalf("replicas saw %d requests for one hedged query, want 2", reqs)
	}
}

// --- fuzz: quota keying and the 429 body ---

// FuzzQuotaKey throws arbitrary header/address bytes at the quota key
// parser and arbitrary durations at the 429 writer, checking the
// invariants the shaping layer relies on: keys are non-empty, bounded,
// printable, namespaced, and deterministic; 429 bodies always carry a
// finite non-negative retry hint that survives a JSON round trip with a
// whole-second header of at least 1.
func FuzzQuotaKey(f *testing.F) {
	f.Add("alice", "1.2.3.4:5678", int64(0))
	f.Add("", "[::1]:8080", int64(time.Second))
	f.Add(strings.Repeat("k", 100), "host-no-port", int64(-5))
	f.Add("a b", "\x00", int64(math.MaxInt64))
	f.Add("\xff\xfe", "", int64(7*time.Hour))
	f.Fuzz(func(t *testing.T, clientID, remoteAddr string, retryNanos int64) {
		key := quotaKey(clientID, remoteAddr)
		if key == "" {
			t.Fatal("empty quota key")
		}
		id := strings.HasPrefix(key, "id:")
		if !id && !strings.HasPrefix(key, "addr:") {
			t.Fatalf("key %q carries no namespace prefix", key)
		}
		if len(key) > maxClientIDLen+len("addr:") {
			t.Fatalf("key %q exceeds the length bound", key)
		}
		for i := 0; i < len(key); i++ {
			if c := key[i]; c < '!' || c > '~' {
				t.Fatalf("key %q contains non-printable byte %#x", key, c)
			}
		}
		// Namespacing: the header wins exactly when it sanitizes cleanly,
		// so an address can never mint an id-keyed bucket.
		if sane := sanitizeClientID(clientID); (sane != "") != id {
			t.Fatalf("key %q namespace disagrees with sanitizeClientID(%q) = %q", key, clientID, sane)
		} else if id && key != "id:"+sane {
			t.Fatalf("key %q != id:%s", key, sane)
		}
		if again := quotaKey(clientID, remoteAddr); again != key {
			t.Fatalf("quotaKey is not deterministic: %q then %q", key, again)
		}

		// The 429 contract under arbitrary retry hints.
		secs := clampRetryAfter(time.Duration(retryNanos))
		if math.IsNaN(secs) || math.IsInf(secs, 0) || secs < 0 || secs > 3600 {
			t.Fatalf("clampRetryAfter(%d) = %v, want finite in [0,3600]", retryNanos, secs)
		}
		rec := httptest.NewRecorder()
		writeShed(rec, shedBody{Error: "shed", Reason: shedReasonQuota, RetryAfterSeconds: secs})
		if rec.Code != http.StatusTooManyRequests {
			t.Fatalf("writeShed status %d", rec.Code)
		}
		ra, err := strconv.Atoi(rec.Header().Get("Retry-After"))
		if err != nil || ra < 1 {
			t.Fatalf("Retry-After %q, want a whole second >= 1", rec.Header().Get("Retry-After"))
		}
		var body shedBody
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			t.Fatalf("429 body is not JSON: %v", err)
		}
		if body.RetryAfterSeconds != secs || body.Reason != shedReasonQuota || body.Error != "shed" {
			t.Fatalf("429 body %+v does not round-trip (want retry %v)", body, secs)
		}
	})
}

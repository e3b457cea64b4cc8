package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	chl "repro"
)

// service is one handler listening on loopback.
type service struct {
	url  string
	hs   *http.Server
	done chan struct{}
}

func startService(h http.Handler) (*service, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &service{
		url:  "http://" + l.Addr().String(),
		hs:   &http.Server{Handler: h},
		done: make(chan struct{}),
	}
	go func() {
		defer close(s.done)
		_ = s.hs.Serve(l) // returns ErrServerClosed from stop
	}()
	return s, nil
}

// stop closes the listener and every connection and waits for Serve to
// return.
func (s *service) stop() {
	_ = s.hs.Close()
	<-s.done
}

// newClient returns a keep-alive client of its own, so each simulated
// caller holds one connection.
func newClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 2, DisableCompression: true},
		Timeout:   60 * time.Second,
	}
}

func closeClient(c *http.Client) {
	c.Transport.(*http.Transport).CloseIdleConnections()
}

// distAnswer is the part of a /dist reply the benchmark checks.
type distAnswer struct {
	Reachable bool    `json:"reachable"`
	Dist      float64 `json:"dist"`
}

// matches reports whether the reply is exactly the distance want.
func (a distAnswer) matches(want float64) bool {
	if want == chl.Infinity {
		return !a.Reachable
	}
	return a.Reachable && a.Dist == want
}

// exchange issues one request, reads the whole reply inside the timed
// window and requires a 200.
func exchange(c *http.Client, method, url, contentType string, body []byte) ([]byte, time.Duration, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	sent := time.Now()
	resp, err := c.Do(req)
	if err != nil {
		return nil, 0, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	took := time.Since(sent)
	if err != nil {
		return nil, 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, 0, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
	}
	return raw, took, nil
}

// getJSON issues one GET and decodes the reply into v.
func getJSON(c *http.Client, url string, v any) (time.Duration, error) {
	raw, took, err := exchange(c, http.MethodGet, url, "", nil)
	if err != nil {
		return 0, err
	}
	return took, json.Unmarshal(raw, v)
}

// post issues one POST whose reply only has to be a 200.
func post(c *http.Client, url, contentType string, body []byte) (time.Duration, error) {
	_, took, err := exchange(c, http.MethodPost, url, contentType, body)
	return took, err
}

// getDist issues one GET /dist and decodes the reply.
func getDist(c *http.Client, url string, u, v int) (a distAnswer, err error) {
	_, err = getJSON(c, url+"/dist?u="+strconv.Itoa(u)+"&v="+strconv.Itoa(v), &a)
	return a, err
}

// readLoop is one closed-loop caller: it walks the pair pool from offset,
// waits for each reply, and keeps the latency (µs) of every reply verify
// accepts. It stops when until reports true.
func readLoop(ops *opCount, url string, pairs []chl.QueryPair, offset int, until func() bool, verify func(i int, a distAnswer, sent time.Time) bool) []float64 {
	c := newClient()
	defer closeClient(c)
	lat := make([]float64, 0, 1<<18)
	for k := 0; !until(); k++ {
		i := (offset + k) % len(pairs)
		sent := time.Now()
		a, err := getDist(c, url, pairs[i].U, pairs[i].V)
		took := time.Since(sent)
		switch {
		case err != nil:
			ops.fail("GET /dist u=%d v=%d: %v", pairs[i].U, pairs[i].V, err)
		case !verify(i, a, sent):
			ops.fail("GET /dist u=%d v=%d: wrong answer %+v", pairs[i].U, pairs[i].V, a)
		default:
			ops.ok()
			lat = append(lat, float64(took.Nanoseconds())/1e3)
		}
	}
	return lat
}

// distStats are the caller-visible figures of one window of /dist
// traffic.
type distStats struct {
	rps, p50, p90, p95, p99, p999 float64
	samples                       int
}

// scaled returns the window's figures at the reference speed, given the
// host's slowdown over it.
func (d distStats) scaled(slow float64) distStats {
	d.rps *= slow
	d.p50, d.p90, d.p95, d.p99, d.p999 = d.p50/slow, d.p90/slow, d.p95/slow, d.p99/slow, d.p999/slow
	return d
}

// medianWindow reduces windows to the median of each figure, so that one
// noisy second on a shared host does not set a percentile.
func medianWindow(ws []distStats) distStats {
	pick := func(f func(distStats) float64) float64 {
		xs := make([]float64, len(ws))
		for i, w := range ws {
			xs[i] = f(w)
		}
		return median(xs)
	}
	out := distStats{
		rps:  pick(func(w distStats) float64 { return w.rps }),
		p50:  pick(func(w distStats) float64 { return w.p50 }),
		p90:  pick(func(w distStats) float64 { return w.p90 }),
		p95:  pick(func(w distStats) float64 { return w.p95 }),
		p99:  pick(func(w distStats) float64 { return w.p99 }),
		p999: pick(func(w distStats) float64 { return w.p999 }),
	}
	for _, w := range ws {
		out.samples += w.samples
	}
	return out
}

// runReaders runs `clients` closed-loop readers against url for dur (and,
// when busy is non-nil, until it reports false) and merges their samples.
func runReaders(ops *opCount, url string, pairs []chl.QueryPair, clients int, dur time.Duration, busy func() bool, verify func(i int, a distAnswer, sent time.Time) bool) distStats {
	start := time.Now()
	deadline := start.Add(dur)
	until := func() bool {
		return time.Now().After(deadline) && (busy == nil || !busy())
	}
	lats := make([][]float64, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lats[c] = readLoop(ops, url, pairs, c*len(pairs)/clients, until, verify)
		}()
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	var all []float64
	for _, l := range lats {
		all = append(all, l...)
	}
	sort.Float64s(all)
	return distStats{
		rps:     float64(len(all)) / elapsed,
		p50:     percentile(all, 50),
		p90:     percentile(all, 90),
		p95:     percentile(all, 95),
		p99:     percentile(all, 99),
		p999:    percentile(all, 99.9),
		samples: len(all),
	}
}

// batchBody renders pairs as the JSON array POST /batch takes.
func batchBody(pairs []chl.QueryPair) []byte {
	arr := make([][2]int, len(pairs))
	for i, p := range pairs {
		arr[i] = [2]int{p.U, p.V}
	}
	b, err := json.Marshal(arr)
	if err != nil {
		panic(err) // ints always marshal
	}
	return b
}

// runBatches is one closed-loop caller posting the same batch for dur (at
// least three times); it returns pairs answered per second, one sample per
// request whose every distance equals want.
func runBatches(ops *opCount, url string, pairs []chl.QueryPair, want []float64, dur time.Duration) []float64 {
	c := newClient()
	defer closeClient(c)
	body := batchBody(pairs)
	deadline := time.Now().Add(dur)
	var rates []float64
	for n := 0; n < 3 || time.Now().Before(deadline); n++ {
		sent := time.Now()
		dists, err := postBatch(c, url, body)
		took := time.Since(sent)
		if err == nil && len(dists) != len(want) {
			err = fmt.Errorf("%d distances for %d pairs", len(dists), len(want))
		}
		for i := 0; err == nil && i < len(want); i++ {
			w := want[i]
			if w == chl.Infinity {
				w = -1 // the wire encoding of unreachable
			}
			if dists[i] != w {
				err = fmt.Errorf("pair %d (%d,%d): got %v want %v", i, pairs[i].U, pairs[i].V, dists[i], w)
			}
		}
		if err != nil {
			ops.fail("POST /batch: %v", err)
			continue
		}
		ops.ok()
		rates = append(rates, float64(len(pairs))/took.Seconds())
	}
	return rates
}

func postBatch(c *http.Client, url string, body []byte) ([]float64, error) {
	raw, _, err := exchange(c, http.MethodPost, url+"/batch", "application/json", body)
	if err != nil {
		return nil, err
	}
	var out struct {
		Dists []float64 `json:"dists"`
	}
	return out.Dists, json.Unmarshal(raw, &out)
}

// liveState is what the writer publishes so a reader can tell which graph
// states a reply may legitimately reflect: every update the server had
// acknowledged before the request left, up to every update the writer had
// sent by the time the reply arrived.
type liveState struct {
	epoch          time.Time
	started, acked []atomic.Int64 // per update: ns since epoch (+1), 0 = not yet
	running        atomic.Bool
}

func newLiveState(updates int) *liveState {
	return &liveState{
		epoch:   time.Now(),
		started: make([]atomic.Int64, updates),
		acked:   make([]atomic.Int64, updates),
	}
}

func (st *liveState) stamp(slot *atomic.Int64) { slot.Store(int64(time.Since(st.epoch)) + 1) }

// window returns the range [lo, hi] of update counts a reply to a request
// sent at `sent` and received now may reflect.
func (st *liveState) window(sent time.Time) (lo, hi int) {
	sentNs := int64(sent.Sub(st.epoch)) + 1
	for lo < len(st.acked) {
		if t := st.acked[lo].Load(); t == 0 || t > sentNs {
			break
		}
		lo++
	}
	for hi = lo; hi < len(st.started) && st.started[hi].Load() != 0; hi++ {
	}
	return lo, hi
}

// writeCycle is one cycle of the writer's schedule: liveUpdates updates
// `spacing` apart, then a compaction. It appends the wall time of every
// acknowledged update (ms) and of the compaction (s) to t.
func writeCycle(ops *opCount, url string, live *liveInputs, cycle int, spacing time.Duration, st *liveState, t *liveTimes) {
	c := newClient()
	defer closeClient(c)
	defer st.running.Store(false)
	for b := cycle * liveUpdates; b < (cycle+1)*liveUpdates; b++ {
		st.stamp(&st.started[b])
		took, err := post(c, url+"/update", "text/plain", chl.FormatPatchLog(live.updates[b]))
		if err != nil {
			ops.fail("POST /update %d: %v", b, err)
			return
		}
		st.stamp(&st.acked[b])
		ops.ok()
		t.applyMs = append(t.applyMs, float64(took.Nanoseconds())/1e6)
		time.Sleep(spacing)
	}
	took, err := post(c, url+"/compact", "application/json", nil)
	if err != nil {
		ops.fail("POST /compact, cycle %d: %v", cycle, err)
		return
	}
	ops.ok()
	t.compactS = append(t.compactS, took.Seconds())
}

// liveTimes are the writer's figures.
type liveTimes struct {
	applyMs, compactS []float64
}

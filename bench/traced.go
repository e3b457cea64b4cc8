package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	chl "repro"
	"repro/internal/gll"
	"repro/internal/label"
	"repro/internal/metrics"
	"repro/internal/plant"
	"repro/internal/shard"
	"repro/internal/sssp"
)

// tracedRun is the state of one traced run: the runner, the span
// recorder and the per-layer values collected so far.
type tracedRun struct {
	*runner
	tr   *tracer
	m    map[string]float64
	unit time.Duration // length of one loopback rung; in-process rungs take a third
	in   *inputs

	served *chl.Index // the GLL labeling, gated against seqPLL's and the oracle
	want   []float64  // its distance for every pool pair
}

// runTraced is the traced run: every per-layer metric, each measured from
// this side of a public call, with a span around it. Layers the workload
// does not exercise report 0.
func (r *runner) runTraced(spanFile string) (map[string]float64, error) {
	t := &tracedRun{
		runner: r,
		tr:     newTracer(r.w.Name),
		m:      map[string]float64{},
		unit:   time.Duration(r.seconds / runSeconds * float64(time.Second)),
	}
	for _, d := range perLayer {
		t.m[d.Name] = 0
	}
	err := t.run()
	if werr := t.tr.write(spanFile); err == nil {
		err = werr
	}
	return t.m, err
}

// pace reads the reference kernel once; the traced run's figures are as
// measured, and host.slowdown says what the host was doing meanwhile.
func (t *tracedRun) pace() {
	t.read()
	t.m["host.slowdown"] = median(t.slowdowns())
}

func (t *tracedRun) run() error {
	t.pace()
	defer t.pace()
	setup, done := t.tr.open(0, "setup")
	in, err := makeInputs(t.w, t.p, t.seed, t.tr, setup)
	done()
	if err != nil {
		return err
	}
	t.in = in
	t.m["graph.gen_s"], t.m["graph.permute_s"], t.m["order.rank_s"] = in.genS, in.permuteS, in.rankS

	served, ranked, err := t.builds()
	if err != nil {
		return err
	}
	t.served = served
	t.want = make([]float64, len(in.pairs))
	for i, p := range in.pairs {
		t.want[i] = served.Query(p.U, p.V)
	}

	t.pace()
	files, err := t.labelLayer(served, ranked)
	if err != nil {
		return err
	}
	defer files.mapped.Close()
	t.pace()
	if err := t.ladder(files); err != nil {
		return err
	}
	t.pace()
	if t.w.router {
		if err := t.routerLayer(files.mapped); err != nil {
			return err
		}
	}
	if t.w.variants {
		if err := t.variantLayers(files); err != nil {
			return err
		}
	}
	if t.w.live {
		return t.deltaLayer(served)
	}
	return nil
}

// builds runs every instrumented constructor once under a span and reads
// its counters from Index.Metrics. It returns the GLL index (gated like
// the untraced run's) and the same labeling in rank space, which the join
// kernels take.
func (t *tracedRun) builds() (*chl.Index, *label.Index, error) {
	in := t.in
	parent, done := t.tr.open(0, "builds")
	defer done()

	builders := append(e2eBuilders(in.ord),
		builder{"lcc", chl.Options{Algorithm: chl.AlgoLCC, Workers: procs, Order: in.ord}},
		builder{"dgll", chl.Options{Algorithm: chl.AlgoDGLL, Nodes: procs, WorkersPerNode: 1, Order: in.ord}},
	)
	var (
		served *chl.Index
		ref    identity
		total  = map[string]float64{} // the constructor's own total, without Build's permutation
	)
	record := func(name string, bm *metrics.Build) {
		t.m[name+".construct_s"] = bm.ConstructTime.Seconds()
		t.m[name+".clean_s"] = bm.CleanTime.Seconds()
		t.m[name+".labels_generated"] = float64(bm.LabelsGenerated)
		t.m[name+".labels_cleaned"] = float64(bm.LabelsCleaned)
		t.m[name+".vertices_explored"] = float64(bm.VerticesExplored)
		t.m[name+".distance_queries"] = float64(bm.DistanceQueries)
		total[name] = bm.TotalTime.Seconds()
	}
	for _, b := range builders {
		var ix *chl.Index
		t.tr.do(parent, "build."+b.name, func() int64 {
			ix, _ = t.timedBuild(in.g, b)
			return 1
		})
		if ix == nil {
			continue
		}
		record(b.name, ix.Metrics())
		switch b.name {
		case "seqpll":
			id, err := identify(ix)
			if err != nil {
				return nil, nil, err
			}
			ref = id
			t.gateOracle(ix, in)
			t.notef("fixture %s: %d vertices, %d edges, %d labels", t.w.fixture, in.g.NumVertices(), in.g.NumEdges(), id.labels)
		default:
			t.gateCanonical(b.name, ix, ref)
		}
		bm := ix.Metrics()
		switch b.name {
		case "gll":
			served = ix
		case "plant":
			t.m["plant.psi"] = bm.Psi()
		case "hybrid":
			t.m["hybrid.switched_at_tree"] = float64(bm.SwitchedAtTree)
			t.m["hybrid.bytes_sent"] = float64(bm.BytesSent)
		case "dgll":
			t.m["dgll.bytes_sent"] = float64(bm.BytesSent)
			t.m["dgll.synchronizations"] = float64(bm.Synchronizations)
		}
	}
	if served == nil {
		return nil, nil, fmt.Errorf("no index to serve: %v", t.ops.msgs)
	}

	// One worker each, for the 2-worker speed-up. GLL runs in rank space
	// directly, which also yields the labels the join kernels are timed on.
	rg, _ := in.g.Permute(in.ord.Perm)
	var ranked *label.Index
	t.tr.do(parent, "build.gll.1w", func() int64 {
		runtime.GC()
		var bm *metrics.Build
		ranked, bm = gll.Run(rg, gll.Options{Workers: 1})
		t.m["gll.speedup_2w"] = bm.TotalTime.Seconds() / total["gll"]
		return 1
	})
	t.ops.ok()
	t.tr.do(parent, "build.plant.1w", func() int64 {
		ix, _ := t.timedBuild(in.g, builder{"plant.1w", chl.Options{Algorithm: chl.AlgoPLaNT, Workers: 1, Order: in.ord}})
		if ix != nil {
			t.m["plant.speedup_2w"] = ix.Metrics().TotalTime.Seconds() / total["plant"]
		}
		return 1
	})
	return served, ranked, nil
}

// indexFiles are the two saved forms of the served index and the opened
// packed one.
type indexFiles struct {
	packed, compressed string
	mapped             *chl.FlatIndex
}

// labelLayer times the label store: freezing, compressing, saving, opening
// and the join kernels on rank-space runs.
func (t *tracedRun) labelLayer(served *chl.Index, ranked *label.Index) (*indexFiles, error) {
	parent, done := t.tr.open(0, "label")
	defer done()
	var (
		fx, cfx *chl.FlatIndex
		err     error
		f       = &indexFiles{packed: filepath.Join(t.tmp, "traced.flat"), compressed: filepath.Join(t.tmp, "traced.cflat")}
	)
	step := func(metric string, fn func() error) {
		d := t.tr.do(parent, metric, func() int64 {
			if err == nil {
				err = fn()
			}
			return 1
		})
		t.m[metric] = d.Seconds()
	}
	step("label.freeze_s", func() error { fx, err = served.Freeze(); return err })
	step("label.compress_s", func() error { cfx, err = fx.Compress(); return err })
	step("label.save_packed_s", func() error { return fx.SaveFile(f.packed) })
	step("label.save_compressed_s", func() error { return cfx.SaveFile(f.compressed) })
	step("label.open_mmap_s", func() error { f.mapped, err = chl.OpenFlat(f.packed); return err })
	step("label.load_heap_s", func() error { _, err = chl.LoadFlatFile(f.packed); return err })
	if err != nil {
		return nil, err
	}
	st, err := os.Stat(f.packed)
	if err != nil {
		return nil, err
	}
	t.m["label.bytes_per_label_packed"] = float64(st.Size()) / float64(fx.TotalLabels())
	if !f.mapped.Mapped() {
		t.notef("index file is not memory-mapped on this host: it is served from the heap")
	}

	// The kernels compare rank-space hub ids, so the pool is translated
	// once.
	rank := make([]int, len(t.in.ord.Perm))
	for r, v := range t.in.ord.Perm {
		rank[v] = r
	}
	lf := label.Freeze(ranked)
	lc, err := label.Compress(lf)
	if err != nil {
		return nil, err
	}
	var entries int64
	for _, p := range t.in.pairs {
		entries += int64(lf.LabelCount(rank[p.U]) + lf.LabelCount(rank[p.V]))
	}
	t.m["label.entries_per_join"] = float64(entries) / float64(len(t.in.pairs))
	t.m["label.join_packed_ns"] = t.rung(parent, "label.JoinPacked", t.unit/3, func(i int) float64 {
		p := t.in.pairs[i]
		d, _, _ := label.JoinPacked(lf.PackedRun(rank[p.U]), lf.PackedRun(rank[p.V]))
		return d
	})
	t.m["label.join_compressed_ns"] = t.rung(parent, "label.JoinCompressed", t.unit/3, func(i int) float64 {
		p := t.in.pairs[i]
		d, _, _ := label.JoinCompressed(lc.Run(rank[p.U]), lc.Run(rank[p.V]))
		return d
	})
	return f, nil
}

// rung runs one in-process layer over the pair pool, in pool order, for
// dur, under a span carrying the query count; query(i) answers pool pair i.
// Every answer must equal the expected distance. It returns ns per query.
func (t *tracedRun) rung(parent int, name string, dur time.Duration, query func(i int) float64) float64 {
	return t.rungOver(parent, name, dur, t.want, query)
}

func (t *tracedRun) rungOver(parent int, name string, dur time.Duration, want []float64, query func(i int) float64) float64 {
	var n, bad int64
	took := t.tr.do(parent, name, func() int64 {
		deadline := time.Now().Add(dur)
		// The clock is read once per 256 queries: a read costs about as
		// much as a short join.
		for time.Now().Before(deadline) {
			for k := 0; k < 256; k++ {
				i := int(n) % len(want)
				if query(i) != want[i] {
					bad++
				}
				n++
			}
		}
		return n
	})
	if bad > 0 {
		t.ops.fail("%s: %d of %d answers differ from the index", name, bad, n)
	} else {
		t.ops.ok()
	}
	return float64(took.Nanoseconds()) / float64(n)
}

// mallocs returns the heap objects and bytes allocated while f runs.
func mallocs(f func()) (objects, bytes float64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs - before.Mallocs), float64(after.TotalAlloc - before.TotalAlloc)
}

// discardWriter is the in-memory http.ResponseWriter of the handler rung:
// it keeps the last body so the answer can be checked and counts nothing
// else.
type discardWriter struct {
	h    http.Header
	code int
	body bytes.Buffer
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) WriteHeader(code int)        { w.code = code }
func (w *discardWriter) Write(b []byte) (int, error) { return w.body.Write(b) }
func (w *discardWriter) reset()                      { clear(w.h); w.code = http.StatusOK; w.body.Reset() }

// ladder sends the same pool, in the same order, through each serving
// layer from the flat index outwards; a layer's own cost is its rung minus
// the rung below (label.JoinPacked, in the label span, is the bottom one).
func (t *tracedRun) ladder(f *indexFiles) error {
	parent, done := t.tr.open(0, "ladder")
	defer done()
	pairs := t.in.pairs
	inproc := t.unit / 3

	fx := f.mapped
	t.m["engine.query_ns"] = t.rung(parent, "FlatIndex.QueryHub", inproc, func(i int) float64 {
		d, _, _ := fx.QueryHub(pairs[i].U, pairs[i].V)
		return d
	})
	eng := chl.NewBatchEngineFlat(fx)
	var queries float64
	objects, _ := mallocs(func() {
		t.m["engine.queryhub_ns"] = t.rung(parent, "BatchEngine.QueryHub", inproc, func(i int) float64 {
			queries++
			d, _, _ := eng.QueryHub(pairs[i].U, pairs[i].V)
			return d
		})
	})
	t.m["engine.allocs_per_query"] = objects / queries

	batch, dst := t.in.batch, make([]float64, len(t.in.batch))
	var batches int64
	took := t.tr.do(parent, "BatchEngine.BatchInto", func() int64 {
		for deadline := time.Now().Add(inproc); time.Now().Before(deadline); batches++ {
			eng.BatchInto(dst, batch)
		}
		return batches * int64(len(batch))
	})
	t.m["engine.batch_pairs_per_s"] = float64(batches) * float64(len(batch)) / took.Seconds()
	t.check("BatchEngine.BatchInto", dst, t.want[:len(batch)])

	t.cacheRungs(parent, fx)

	srv, err := chl.NewServer(f.packed, 0)
	if err != nil {
		return err
	}
	defer srv.Close()
	t.m["serve.query_ns"] = t.rung(parent, "Server.Query", inproc, func(i int) float64 {
		return srv.Query(pairs[i].U, pairs[i].V)
	})

	// The handler with no socket: one request value whose query string is
	// rewritten, one writer that keeps the body.
	h := srv.Handler()
	req, err := http.NewRequest(http.MethodGet, "/dist", nil)
	if err != nil {
		return err
	}
	w := &discardWriter{h: http.Header{}}
	var served float64
	objects, heapBytes := mallocs(func() {
		t.m["serve.handler_dist_ns"] = t.rung(parent, "Server.Handler /dist", inproc, func(i int) float64 {
			served++
			w.reset()
			req.URL.RawQuery = "u=" + strconv.Itoa(pairs[i].U) + "&v=" + strconv.Itoa(pairs[i].V)
			h.ServeHTTP(w, req)
			var a distAnswer
			if w.code != http.StatusOK || json.Unmarshal(w.body.Bytes(), &a) != nil || !a.Reachable {
				return chl.Infinity
			}
			return a.Dist
		})
	})
	// Both counts include this rung's own query string and reply decoding.
	t.m["serve.handler_dist_allocs"] = objects / served
	t.m["serve.handler_dist_bytes"] = heapBytes / served

	svc, err := startService(h)
	if err != nil {
		return err
	}
	defer svc.stop()
	// One caller over loopback, twice plain and twice with a span recorded
	// per request, alternating so that a slow spell of the host lands on
	// both: the rung is the plain windows, the difference of the medians
	// is what recording costs.
	plain := func(i int, a distAnswer, _ time.Time) bool { return a.matches(t.want[i]) }
	var off, on []distStats
	for rep := 0; rep < 2; rep++ {
		took := t.tr.do(parent, "loopback /dist", func() int64 {
			off = append(off, runReaders(&t.ops, svc.url, pairs, 1, t.unit/2, nil, plain))
			return int64(off[rep].samples)
		})
		t.m["serve.loopback_dist_us"] += took.Seconds() * 1e6 / float64(off[rep].samples) / 2
		t.tr.do(parent, "loopback /dist, span per request", func() int64 {
			requests, done := t.tr.open(parent, "requests")
			defer done()
			on = append(on, runReaders(&t.ops, svc.url, pairs, 1, t.unit/2, nil, func(i int, a distAnswer, sent time.Time) bool {
				t.tr.add(requests, "GET /dist", sent, time.Now(), 1)
				return a.matches(t.want[i])
			}))
			return int64(on[rep].samples)
		})
	}
	ds := medianWindow(off)
	t.m["serve.dist_p99_us"], t.m["serve.dist_p999_us"] = ds.p99, ds.p999
	t.m["trace.overhead_pct"] = 100 * (medianWindow(on).p50 - ds.p50) / ds.p50

	return t.richEndpoints(parent, svc.url)
}

// check counts one operation: got must equal want exactly.
func (t *tracedRun) check(name string, got, want []float64) {
	for i := range want {
		if got[i] != want[i] {
			t.ops.fail("%s: pair %d: got %v want %v", name, i, got[i], want[i])
			return
		}
	}
	t.ops.ok()
}

// cacheRungs times the answer cache, which no end-to-end phase turns on:
// a hit, a miss, and the hit ratio it reaches on Zipf-distributed pairs.
func (t *tracedRun) cacheRungs(parent int, fx *chl.FlatIndex) {
	const capacity = 1 << 16
	pairs := t.in.pairs
	eng := chl.NewBatchEngineFlat(fx)

	// Every pool pair once into an empty cache: all misses.
	eng.SetCache(chl.NewCache(capacity))
	took := t.tr.do(parent, "cache miss", func() int64 {
		for _, p := range pairs {
			eng.QueryHub(p.U, p.V)
		}
		return int64(len(pairs))
	})
	t.m["cache.miss_ns"] = float64(took.Nanoseconds()) / float64(len(pairs))

	// A hot set that fits, asked again and again: all hits.
	hot := pairs[:min(1024, len(pairs))]
	eng.SetCache(chl.NewCache(capacity))
	for _, p := range hot {
		eng.QueryHub(p.U, p.V)
	}
	t.m["cache.hit_ns"] = t.rungOver(parent, "cache hit", t.unit/3, t.want[:len(hot)], func(i int) float64 {
		d, _, _ := eng.QueryHub(hot[i].U, hot[i].V)
		return d
	})

	cache := chl.NewCache(capacity)
	eng.SetCache(cache)
	rng := rand.New(rand.NewSource(t.seed))
	zipf := rand.NewZipf(rng, 1.1, 1, uint64(len(pairs)-1))
	const draws = 200000
	t.tr.do(parent, "cache zipf", func() int64 {
		for k := 0; k < draws; k++ {
			p := pairs[zipf.Uint64()]
			eng.QueryHub(p.U, p.V)
		}
		return draws
	})
	st := cache.Stats()
	t.m["cache.hit_ratio_zipf"] = float64(st.Hits) / float64(st.Hits+st.Misses)
}

// richEndpoints times /knn, /paths and /matrix over loopback, one caller,
// each reply checked against the index.
func (t *tracedRun) richEndpoints(parent int, url string) error {
	c := newClient()
	defer closeClient(c)
	pairs := t.in.pairs
	// medianUs runs one request per pool pair until dur is up and returns
	// the median latency of the correct replies.
	medianUs := func(name string, dur time.Duration, request func(i int) (time.Duration, error)) float64 {
		var lat []float64
		t.tr.do(parent, name, func() int64 {
			deadline := time.Now().Add(dur)
			for i := 0; i < 3 || time.Now().Before(deadline); i++ {
				took, err := request(i % len(pairs))
				if err != nil {
					t.ops.fail("%s: %v", name, err)
					continue
				}
				t.ops.ok()
				lat = append(lat, float64(took.Nanoseconds())/1e3)
			}
			return int64(len(lat))
		})
		return median(lat)
	}

	const k = 10
	knn := func(i int) (time.Duration, error) {
		var out struct {
			Neighbors []chl.Neighbor `json:"neighbors"`
		}
		u := pairs[i].U
		took, err := getJSON(c, fmt.Sprintf("%s/knn?u=%d&k=%d", url, u, k), &out)
		if err == nil && len(out.Neighbors) != k {
			err = fmt.Errorf("u=%d: %d neighbors, want %d", u, len(out.Neighbors), k)
		}
		for j, nb := range out.Neighbors {
			if err == nil && (nb.Dist != t.distance(u, nb.V) || (j > 0 && nb.Dist < out.Neighbors[j-1].Dist)) {
				err = fmt.Errorf("u=%d: neighbor %+v is not at its exact distance, in order", u, nb)
			}
		}
		return took, err
	}
	if _, err := knn(0); err != nil { // builds the inverted index, once per snapshot
		return fmt.Errorf("/knn warm-up: %w", err)
	}
	t.m["serve.knn_p50_us"] = medianUs("loopback /knn", t.unit/2, knn)

	t.m["serve.paths_p50_us"] = medianUs("loopback /paths", t.unit/2, func(i int) (time.Duration, error) {
		var out struct {
			distAnswer
			Path []int `json:"path"`
		}
		p := pairs[i]
		took, err := getJSON(c, fmt.Sprintf("%s/paths?u=%d&v=%d", url, p.U, p.V), &out)
		if err == nil && !out.matches(t.want[i]) {
			err = fmt.Errorf("u=%d v=%d: dist %v, want %v", p.U, p.V, out.Dist, t.want[i])
		}
		if err == nil && out.Reachable && (len(out.Path) == 0 || out.Path[0] != p.U || out.Path[len(out.Path)-1] != p.V) {
			err = fmt.Errorf("u=%d v=%d: path %v does not join them", p.U, p.V, out.Path)
		}
		return took, err
	})

	// One matrix shape, asked repeatedly: 16 sources × 256 targets.
	sources, targets := make([]int, 16), make([]int, 256)
	for i := range sources {
		sources[i] = pairs[i].U
	}
	for i := range targets {
		targets[i] = pairs[i].V
	}
	body, err := json.Marshal(map[string][]int{"sources": sources, "targets": targets})
	if err != nil {
		return err
	}
	cells := float64(len(sources) * len(targets))
	var rates []float64
	t.tr.do(parent, "loopback /matrix", func() int64 {
		deadline := time.Now().Add(t.unit / 2)
		for i := 0; i < 3 || time.Now().Before(deadline); i++ {
			took, err := t.postMatrix(c, url, body, sources, targets)
			if err != nil {
				t.ops.fail("POST /matrix: %v", err)
				continue
			}
			t.ops.ok()
			rates = append(rates, cells/took.Seconds())
		}
		return int64(len(rates)) * int64(cells)
	})
	t.m["serve.matrix_cells_per_s"] = median(rates)
	return nil
}

// distance is the exact u–v distance, from the gated in-memory index.
func (t *tracedRun) distance(u, v int) float64 { return t.served.Query(u, v) }

// postMatrix posts one /matrix request and checks every streamed cell.
func (t *tracedRun) postMatrix(c *http.Client, url string, body []byte, sources, targets []int) (time.Duration, error) {
	sent := time.Now()
	resp, err := c.Post(url+"/matrix", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("status %d", resp.StatusCode)
	}
	type line struct {
		U     int       `json:"u"`
		Dists []float64 `json:"dists"`
	}
	var rows []line
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(nil, 1<<20)
	for first := true; sc.Scan(); first = false {
		if first {
			continue // the header line
		}
		var l line
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			return 0, err
		}
		rows = append(rows, l)
	}
	took := time.Since(sent)
	if err := sc.Err(); err != nil {
		return 0, err
	}
	if len(rows) != len(sources) {
		return 0, fmt.Errorf("%d rows for %d sources", len(rows), len(sources))
	}
	for i, l := range rows {
		if l.U != sources[i] || len(l.Dists) != len(targets) {
			return 0, fmt.Errorf("row %d is for source %d with %d cells", i, l.U, len(l.Dists))
		}
		for j, d := range l.Dists {
			if !(distAnswer{Reachable: d >= 0, Dist: d}).matches(t.distance(l.U, targets[j])) {
				return 0, fmt.Errorf("cell (%d,%d) = %v, want %v", l.U, targets[j], d, t.distance(l.U, targets[j]))
			}
		}
	}
	return took, nil
}

// routerLayer serves the index as 2 shards behind a router, everything on
// loopback, and times the in-process router, then its front door with all
// pairs, same-shard pairs only and cross-shard pairs only.
func (t *tracedRun) routerLayer(fx *chl.FlatIndex) error {
	parent, done := t.tr.open(0, "router")
	defer done()
	dir := filepath.Join(t.tmp, "cluster")
	m, err := fx.SaveShards(dir, procs, 64, 1)
	if err != nil {
		return err
	}
	part, err := m.Partition()
	if err != nil {
		return err
	}
	addrs := make([]string, m.Shards)
	for id := range addrs {
		path, err := chl.ShardFilePath(filepath.Join(dir, shard.ManifestName), m, id)
		if err != nil {
			return err
		}
		srv, err := chl.NewServer(path, 0)
		if err != nil {
			return err
		}
		defer srv.Close()
		if err := srv.SetShard(id, part); err != nil {
			return err
		}
		svc, err := startService(srv.Handler())
		if err != nil {
			return err
		}
		defer svc.stop()
		addrs[id] = svc.url
	}
	rt, err := chl.NewRouter(chl.RouterConfig{Manifest: m, Addrs: addrs})
	if err != nil {
		return err
	}

	pairs := t.in.pairs
	var sameIdx, crossIdx []int
	for i, p := range pairs {
		if part.Owner(p.U) == part.Owner(p.V) {
			sameIdx = append(sameIdx, i)
		} else {
			crossIdx = append(crossIdx, i)
		}
	}
	t.notef("router: %d of %d pool pairs cross shards", len(crossIdx), len(pairs))

	t.m["router.query_inproc_us"] = t.rung(parent, "Router.QueryHub", t.unit/2, func(i int) float64 {
		d, _, ok, err := rt.QueryHub(pairs[i].U, pairs[i].V)
		if err != nil || !ok {
			return chl.Infinity
		}
		return d
	}) / 1e3

	svc, err := startService(rt.Handler())
	if err != nil {
		return err
	}
	defer svc.stop()
	before := rt.Stats()
	phase := func(name string, idx []int, clients int) distStats {
		sub := make([]chl.QueryPair, len(idx))
		for k, i := range idx {
			sub[k] = pairs[i]
		}
		var ds distStats
		t.tr.do(parent, name, func() int64 {
			ds = runReaders(&t.ops, svc.url, sub, clients, t.unit, nil,
				func(k int, a distAnswer, _ time.Time) bool { return a.matches(t.want[idx[k]]) })
			return int64(ds.samples)
		})
		return ds
	}
	all := make([]int, len(pairs))
	for i := range all {
		all[i] = i
	}
	t.m["router.dist_p50_us"] = phase("router /dist, 2 callers", all, procs).p50
	after := rt.Stats()
	queries := float64(after.Queries - before.Queries)
	t.m["router.cross_join_ratio"] = float64(after.CrossJoins-before.CrossJoins) / queries
	t.m["router.shard_requests_per_query"] = float64(shardRequests(after)-shardRequests(before)) / queries
	t.m["router.same_shard_p50_us"] = phase("router /dist, same shard", sameIdx, 1).p50
	t.m["router.cross_shard_p50_us"] = phase("router /dist, cross shard", crossIdx, 1).p50
	return nil
}

func shardRequests(st chl.RouterStats) (n int64) {
	for _, s := range st.Shards {
		n += s.Requests
	}
	return n
}

// variantLayers times /batch on the compressed file and on the directed
// fixture, and the directed join kernel.
func (t *tracedRun) variantLayers(f *indexFiles) error {
	parent, done := t.tr.open(0, "variants")
	defer done()

	batchRate := func(name, path string, pairs []chl.QueryPair, want []float64) (float64, error) {
		srv, err := chl.NewServer(path, 0)
		if err != nil {
			return 0, err
		}
		defer srv.Close()
		svc, err := startService(srv.Handler())
		if err != nil {
			return 0, err
		}
		defer svc.stop()
		var rates []float64
		t.tr.do(parent, name, func() int64 {
			rates = runBatches(&t.ops, svc.url, pairs, want, t.unit)
			return int64(len(rates) * len(pairs))
		})
		return median(rates), nil
	}
	var err error
	t.m["serve.batch_compressed_pairs_per_s"], err = batchRate("loopback /batch, compressed", f.compressed, t.in.batch, t.want[:len(t.in.batch)])
	if err != nil {
		return err
	}

	// The directed fixture: forward and backward labels, built by PLaNT.
	g := chl.GenerateRandomDirected(t.p.dirN, t.p.dirM, 9, fixtureSeed)
	ord := chl.RankByDegree(g)
	rg, rank := g.Permute(ord.Perm)
	var dx *label.DirectedIndex
	t.tr.do(parent, "build.plant.directed", func() int64 {
		dx, _ = plant.RunDirected(rg, plant.Options{Workers: procs})
		return 1
	})
	t.ops.ok()
	ix, _ := t.timedBuild(g, builder{"plant.directed", chl.Options{Algorithm: chl.AlgoPLaNT, Workers: procs, Order: ord}})
	if ix == nil {
		return fmt.Errorf("directed build failed: %v", t.ops.msgs)
	}
	rng := rand.New(rand.NewSource(t.seed))
	pairs := make([]chl.QueryPair, len(t.in.batch))
	want := make([]float64, len(pairs))
	for i := range pairs {
		pairs[i] = chl.QueryPair{U: rng.Intn(t.p.dirN), V: rng.Intn(t.p.dirN)}
		want[i] = ix.Query(pairs[i].U, pairs[i].V)
	}
	// Gate the directed index on a few Dijkstra rows before trusting it.
	for _, p := range pairs[:8] {
		row := sssp.Dijkstra(g, p.U)
		for v, d := range row {
			if ix.Query(p.U, v) != d {
				t.ops.fail("directed index d(%d→%d)=%v, Dijkstra %v", p.U, v, ix.Query(p.U, v), d)
				break
			}
		}
		t.ops.ok()
	}
	fwd, bwd := label.Freeze(dx.Forward), label.Freeze(dx.Backward)
	t.m["label.join_directed_ns"] = t.rungOver(parent, "label.JoinPacked, directed", t.unit/3, want, func(i int) float64 {
		d, _, _ := label.JoinPacked(fwd.PackedRun(rank[pairs[i].U]), bwd.PackedRun(rank[pairs[i].V]))
		return d
	})
	fx, err := ix.Freeze()
	if err != nil {
		return err
	}
	path := filepath.Join(t.tmp, "directed.flat")
	if err := fx.SaveFile(path); err != nil {
		return err
	}
	t.notef("fixture directed: %d vertices, %d arcs, %d labels", g.NumVertices(), g.NumArcs(), fx.TotalLabels())
	t.m["serve.batch_directed_pairs_per_s"], err = batchRate("loopback /batch, directed", path, pairs, want)
	return err
}

// patchedQueryRung times the corrected query in process, on the server's
// current snapshot: the engine with the overlay attached.
func (t *tracedRun) patchedQueryRung(parent int, srv *chl.Server, want []float64) {
	sn := srv.Acquire()
	defer sn.Release()
	eng, pairs := sn.Engine(), t.in.pairs
	t.m["delta.patched_query_us"] = t.rungOver(parent, "BatchEngine.QueryHub, overlay", t.unit/2, want, func(i int) float64 {
		d, _, ok := eng.QueryHub(pairs[i].U, pairs[i].V)
		if !ok {
			return chl.Infinity
		}
		return d
	}) / 1e3
}

// deltaLayer times the update path: the writer's schedule beside a
// reader, as the untraced run has it but shorter; then, in process, the
// cost of applying a batch as the patch log grows, the corrected query,
// and the rebuild a compaction waits for.
func (t *tracedRun) deltaLayer(served *chl.Index) error {
	parent, done := t.tr.open(0, "delta")
	defer done()
	in := t.in

	st, err := t.openStack(served, in.g, "delta-live")
	if err != nil {
		return err
	}
	state := newLiveState(len(in.live.updates))
	var lt liveTimes
	var windows []distStats
	for c := 0; c < liveCycles; c++ {
		t.tr.do(parent, "live cycle", func() int64 {
			ds := t.liveSlice(st, in, c, 2*t.unit, state, &lt)
			windows = append(windows, ds)
			return int64(ds.samples)
		})
	}
	st.stop()
	t.m["delta.update_apply_ms"] = median(lt.applyMs)
	t.m["delta.compact_s"] = median(lt.compactS)
	t.m["delta.live_dist_p99_us"] = medianWindow(windows).p99

	// In process, no compaction: the patch log grows by liveOps per batch.
	st, err = t.openStack(served, in.g, "delta-inproc")
	if err != nil {
		return err
	}
	defer st.stop()
	const batches = 32 / liveOps
	for b := 0; b < batches; b++ {
		took := t.tr.do(parent, "Server.Update", func() int64 {
			if _, err := st.srv.Update(in.live.updates[b]); err != nil {
				t.ops.fail("Server.Update %d: %v", b, err)
			} else {
				t.ops.ok()
			}
			return liveOps
		})
		switch b {
		case 0:
			t.m["delta.apply_ms_4ops"] = took.Seconds() * 1e3
		case batches - 1:
			t.m["delta.apply_ms_32ops"] = took.Seconds() * 1e3
		}
	}
	if ps := st.srv.Stats().Patch; ps != nil {
		t.m["delta.patch_vertices"] = float64(ps.Vertices)
	}
	rows := in.live.rows[batches]
	want := make([]float64, len(in.pairs))
	for i, p := range in.pairs {
		want[i] = rows[in.pairRow[i]][p.V]
	}
	t.patchedQueryRung(parent, st.srv, want)

	// What Compact rebuilds: default options on the patched graph.
	patched := in.live.last
	took := t.tr.do(parent, "compaction rebuild", func() int64 {
		if _, err := chl.Build(patched, chl.Options{}); err != nil {
			t.ops.fail("rebuild: %v", err)
		} else {
			t.ops.ok()
		}
		return 1
	})
	t.m["delta.compact_rebuild_s"] = took.Seconds()
	return nil
}

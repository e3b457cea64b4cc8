package chl

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"slices"
	"strconv"

	"repro/internal/delta"
)

// The HTTP front both serving tiers share. A Server and a Router answer
// the same public API (README.md "HTTP API"); everything about HTTP — the
// routes and their methods, parameter and body decoding, the request
// metrics, admission control and the mapping from an error to its status
// and body — lives here once, over the backend each tier implements.

// backend is what the front asks of a serving tier, acquired once per
// request and released once the reply is written, so the whole request is
// answered from one state: a Server's backend is the snapshot current
// when the request arrived (decoding bounds, ownership, the answer and
// its stamp all come from that one generation), a Router's the router.
type backend interface {
	vertices() int // bounds every vertex id a request names
	// shard is the id of the one shard whose slice the backend serves (-1:
	// the whole vertex space), owns whether it answers for vertex v, and
	// stamp the shard protocol's stamp on its answers (zero otherwise).
	shard() int
	owns(v int) bool
	stamp() shardStamp
	dist(u, v int) (d float64, hub int, ok bool, err error)
	batch(ctx context.Context, dst []float64, pairs []QueryPair) error
	paths(u, v int) (d float64, path []int, ok bool, err error)
	knn(u, k int) ([]Neighbor, error)
	matrix(ctx context.Context, sources, targets []int, emit func(u int, dists []float64) error) error
	update(ops []EdgeOp) (any, error)
	// reload loads path ("" = the current file); q is the request's query,
	// which names the replica a router proxies the reload to.
	reload(ctx context.Context, path string, q url.Values) (any, error)
	stats() any
	health() (code int, body any)
	gauges(w io.Writer) // the tier's Prometheus gauges and counters
	release()
}

// route is one endpoint of the front: a request with another method is a
// 405 with usage (method "" leaves the check to serve); serve answers the
// rest, and an error it returns is written by writeError.
type route struct {
	path, method, usage string
	serve               func(w http.ResponseWriter, r *http.Request, b backend) error
}

// queryRoutes are the five query endpoints, the only ones a tier's
// admission gate sheds: health, stats and the operator endpoints must
// keep answering under overload, that is what they are for.
var queryRoutes = []route{
	{"/dist", http.MethodGet, "use GET /dist?u=&v=", serveDist},
	{"/batch", http.MethodPost, "POST a JSON array of [u,v] pairs", serveBatch},
	{"/paths", http.MethodGet, "use GET /paths?u=&v=", servePaths},
	{"/knn", http.MethodGet, "use GET /knn?u=&k=", serveKNN},
	{"/matrix", http.MethodPost, `POST a JSON {"sources":[...],"targets":[...]} body`, serveMatrix},
}

// publicRoutes are the rest of the API both tiers serve.
var publicRoutes = []route{
	{"/stats", http.MethodGet, "use GET /stats", serveStats},
	{"/healthz", http.MethodGet, "use GET /healthz", serveHealthz},
	{"/reload", http.MethodPost, "use POST /reload; a router takes the shard and replica to reload as ?shard= and ?replica=", serveReload},
	{"/update", http.MethodPost, "POST a text patch log (one \"add u v w\" / \"del u v\" / \"set u v w\" per line)", serveUpdate},
}

// newFront builds a tier's HTTP API: the shared routes plus the tier's
// own, each instrumented under its path in one set of request metrics
// (whose families /metrics prefixes with prefix). acquire yields the
// backend each request is answered from; gate, when non-nil, is the
// tier's admission control on the query routes.
func newFront(clock Clock, prefix string, acquire func() backend, gate func(http.HandlerFunc) http.HandlerFunc, own ...route) *http.ServeMux {
	routes := slices.Concat(queryRoutes, publicRoutes, own)
	names := make([]string, len(routes))
	for i, rt := range routes {
		names[i] = rt.path
	}
	metrics := newHTTPMetrics(clock, names...)
	mux := http.NewServeMux()
	for i, rt := range routes {
		h := rt.handler(acquire)
		if gate != nil && i < len(queryRoutes) {
			h = gate(h)
		}
		mux.HandleFunc(rt.path, metrics.wrap(rt.path, h))
	}
	// Deliberately not instrumented: scrapes must not pollute the serving
	// histograms.
	mux.HandleFunc("/metrics", route{"/metrics", http.MethodGet, "use GET /metrics",
		func(w http.ResponseWriter, r *http.Request, b backend) error {
			w.Header().Set("Content-Type", promContentType)
			metrics.writeTo(w, prefix)
			b.gauges(w)
			return nil
		}}.handler(acquire))
	return mux
}

// handler is the route's HTTP handler: the method check, then one
// backend acquired for the whole request.
func (rt route) handler(acquire func() backend) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if rt.method != "" && r.Method != rt.method {
			httpError(w, http.StatusMethodNotAllowed, rt.usage)
			return
		}
		b := acquire()
		defer b.release()
		if err := rt.serve(w, r, b); err != nil {
			writeError(w, err)
		}
	}
}

// --- the shared endpoints ---

func serveDist(w http.ResponseWriter, r *http.Request, b backend) error {
	u, v, err := pairParams(r, b.vertices())
	if err == nil {
		err = owned(b, u, v)
	}
	if err != nil {
		return err
	}
	d, hub, ok, err := b.dist(u, v)
	if err != nil {
		return err
	}
	pair := pairResponse{U: u, V: v, Reachable: ok, shardStamp: b.stamp()}
	if !ok {
		writeJSON(w, http.StatusOK, pair)
		return nil
	}
	writeJSON(w, http.StatusOK, distResponse{pairResponse: pair, Dist: d, Hub: hub})
	return nil
}

func serveBatch(w http.ResponseWriter, r *http.Request, b backend) error {
	bb, err := decodeBatchBody(w, r, b.vertices())
	if err != nil {
		return err
	}
	defer bb.release()
	if b.shard() >= 0 {
		for _, p := range bb.pairs {
			if err := owned(b, p.U, p.V); err != nil {
				return err
			}
		}
	}
	// Never nil: an empty batch is answered "dists":[], not null.
	if bb.dists == nil || cap(bb.dists) < len(bb.pairs) {
		bb.dists = make([]float64, len(bb.pairs))
	}
	bb.dists = bb.dists[:len(bb.pairs)]
	if err := b.batch(r.Context(), bb.dists, bb.pairs); err != nil {
		return err
	}
	writeJSON(w, http.StatusOK, batchResponse{Dists: wireDists(bb.dists), shardStamp: b.stamp()})
	return nil
}

// richWorkloads is the 421 of a rich workload (/paths, /knn, /matrix) sent
// straight to a shard server: path waypoints and knn/matrix targets land
// on arbitrary shards, so only a tier serving the whole vertex space
// answers them.
const richWorkloads = "shard %d serves only its owned label rows; route rich query workloads through the cluster's router"

func servePaths(w http.ResponseWriter, r *http.Request, b backend) error {
	if err := whole(b, richWorkloads); err != nil {
		return err
	}
	u, v, err := pairParams(r, b.vertices())
	if err != nil {
		return err
	}
	d, path, ok, err := b.paths(u, v)
	if err != nil {
		return err
	}
	pair := pairResponse{U: u, V: v, Reachable: ok}
	if !ok {
		writeJSON(w, http.StatusOK, pair)
		return nil
	}
	writeJSON(w, http.StatusOK, pathResponse{pairResponse: pair, Dist: d, Path: path})
	return nil
}

func serveKNN(w http.ResponseWriter, r *http.Request, b backend) error {
	if err := whole(b, richWorkloads); err != nil {
		return err
	}
	u, k, err := knnParams(r, b.vertices())
	if err != nil {
		return err
	}
	neighbors, err := b.knn(u, k)
	if err != nil {
		return err
	}
	if neighbors == nil {
		neighbors = []Neighbor{} // an isolated source answers [], not null
	}
	writeJSON(w, http.StatusOK, map[string]any{"u": u, "k": k, "neighbors": neighbors})
	return nil
}

func serveMatrix(w http.ResponseWriter, r *http.Request, b backend) error {
	if err := whole(b, richWorkloads); err != nil {
		return err
	}
	req, err := decodeMatrixBody(w, r, b.vertices())
	if err != nil {
		return err
	}
	return streamMatrix(w, req, func(sources, targets []int, emit func(u int, dists []float64) error) error {
		return b.matrix(r.Context(), sources, targets, emit)
	})
}

func serveStats(w http.ResponseWriter, _ *http.Request, b backend) error {
	writeJSON(w, http.StatusOK, b.stats())
	return nil
}

func serveHealthz(w http.ResponseWriter, _ *http.Request, b backend) error {
	code, body := b.health()
	writeJSON(w, code, body)
	return nil
}

func serveReload(w http.ResponseWriter, r *http.Request, b backend) error {
	q := r.URL.Query()
	path, err := pathParam(w, r, q)
	if err != nil {
		return err
	}
	resp, err := b.reload(r.Context(), path, q)
	if err == nil {
		writeJSON(w, http.StatusOK, resp)
	}
	return err
}

// serveUpdate is POST /update: the body is a text patch log (one "add u v
// w" / "del u v" / "set u v w" op per line, '#' comments); the response
// describes the overlay that now serves it.
func serveUpdate(w http.ResponseWriter, r *http.Request, b backend) error {
	if err := whole(b, "shard %d serves a frozen slice; route edge updates through the cluster's router"); err != nil {
		return err
	}
	ops, err := decodePatchBody(w, r)
	if err != nil {
		return err
	}
	resp, err := b.update(ops)
	if err == nil {
		writeJSON(w, http.StatusOK, resp)
	}
	return err
}

// streamMatrix writes the NDJSON matrix stream: a header line
// {"targets":[...],"rows":N}, then a line {"u":u,"dists":[...]} per source
// (-1 marks unreachable pairs), each flushed as it is written; rows is
// shaped like FlatIndex.MatrixRows. The header waits for the first row, so
// a failure before it is returned for writeError; a failure after it ends
// the stream with an {"error": ...} line — the status line is long gone.
func streamMatrix(w http.ResponseWriter, req matrixRequest, rows func(sources, targets []int, emit func(u int, dists []float64) error) error) error {
	flusher, _ := w.(http.Flusher)
	started := false
	send := func(line []byte) error {
		_, err := w.Write(line)
		if flusher != nil {
			flusher.Flush()
		}
		return err
	}
	wire := make([]float64, len(req.Targets))
	buf := wireBufs.Get().(*[]byte)
	defer putWireBuf(buf)
	err := rows(req.Sources, req.Targets, func(u int, dists []float64) error {
		if !started {
			started = true
			w.Header().Set("Content-Type", "application/x-ndjson")
			b := append(matrixHeader{Targets: req.Targets, Rows: len(req.Sources)}.appendJSON((*buf)[:0]), '\n')
			*buf = b
			if err := send(b); err != nil {
				return err
			}
		}
		copy(wire, dists) // the row source reuses dists between emits
		b := appendIntField((*buf)[:0], `{"u":`, int64(u))
		b = append(appendDists(append(b, `,"dists":`...), wireDists(wire)), "}\n"...)
		*buf = b
		return send(b)
	})
	if err == nil || !started {
		return err
	}
	b, _ := json.Marshal(map[string]string{"error": err.Error()})
	_ = send(append(b, '\n')) // best effort: the client may be the reason rows stopped
	return nil
}

// --- decoding ---

// requestError is a request refused with its own status: 400, 404, 405
// or 413 for a malformed one, 421 for one a shard server cannot answer (a
// vertex it does not own, or a workload that needs the whole vertex
// space) — the router never sends those, so a 421 means a client bypassed
// it or the cluster's manifests disagree. The body is {"error": msg},
// plus the refusing shard on a 421.
type requestError struct {
	code, shard int
	msg         string
}

func (e *requestError) Error() string { return e.msg }

// badRequest is the 400 requestError.
func badRequest(msg string) error { return &requestError{code: http.StatusBadRequest, msg: msg} }

// whole refuses a request that needs the whole vertex space on a backend
// serving one shard's slice; format names the shard.
func whole(b backend, format string) error {
	if id := b.shard(); id >= 0 {
		return &requestError{code: http.StatusMisdirectedRequest, shard: id, msg: fmt.Sprintf(format, id)}
	}
	return nil
}

// owned refuses ids the backend's shard does not own.
func owned(b backend, ids ...int) error {
	for _, id := range ids {
		if !b.owns(id) {
			return whole(b, "vertex "+strconv.Itoa(id)+" is not owned by shard %d; route through the cluster's router")
		}
	}
	return nil
}

// inRange refuses an id outside [0,n), with the one body both tiers serve.
func inRange(n int, ids ...int) error {
	for _, id := range ids {
		if id < 0 || id >= n {
			return &VertexRangeError{ID: id, N: n}
		}
	}
	return nil
}

// intParam parses one integer query parameter.
func intParam(q url.Values, name string) (int, bool) {
	x, err := strconv.Atoi(q.Get(name))
	return x, err == nil
}

// intPair parses two integer query parameters; a missing or malformed
// one is a 400 with msg.
func intPair(r *http.Request, a, b, msg string) (x, y int, err error) {
	q := r.URL.Query()
	x, okX := intParam(q, a)
	y, okY := intParam(q, b)
	if !okX || !okY {
		return 0, 0, badRequest(msg)
	}
	return x, y, nil
}

// pairParams parses and bounds-checks the u and v of /dist and /paths for
// an n-vertex index.
func pairParams(r *http.Request, n int) (u, v int, err error) {
	u, v, err = intPair(r, "u", "v", "u and v must be integer vertex ids")
	if err == nil {
		err = inRange(n, u, v)
	}
	return u, v, err
}

// knnParams parses and bounds-checks /knn's u and k for an n-vertex
// index.
func knnParams(r *http.Request, n int) (u, k int, err error) {
	u, k, err = intPair(r, "u", "k", "u and k must be integers")
	if err == nil {
		err = inRange(n, u)
	}
	if err == nil && (k < 1 || k > n) {
		err = badRequest(fmt.Sprintf("k must be in [1,%d]", n))
	}
	return u, k, err
}

// maxBatchBytes bounds a /batch or /matrix request body (and the shard
// protocol's); past this the decoder never runs, so a hostile client
// cannot make the server buffer gigabytes.
const maxBatchBytes = 64 << 20

// maxPatchBytes bounds a /update request body — patch logs are text,
// and a batch bigger than this is an operator error, not a workload.
const maxPatchBytes = 8 << 20

// bodyError is a request-body read failure, its message prefixed: 413
// when the size limit tripped, 400 otherwise.
func bodyError(prefix string, err error) error {
	code := http.StatusBadRequest
	if errors.As(err, new(*http.MaxBytesError)) {
		code = http.StatusRequestEntityTooLarge
	}
	return &requestError{code: code, msg: prefix + err.Error()}
}

// decodeBody decodes a JSON request body of at most limit bytes into dst;
// on failure the error says the body must be want. With optional set an
// empty body is fine and leaves dst untouched.
func decodeBody(w http.ResponseWriter, r *http.Request, limit int64, dst any, want string, optional bool) error {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit)).Decode(dst)
	if err == nil || optional && errors.Is(err, io.EOF) {
		return nil
	}
	return bodyError("body must be "+want+": ", err)
}

// pathParam reads the file path /reload and /compact take: ?path= (from
// q, the request's query), else an optional JSON body {"path": "..."}; an
// empty body means "the current file". A malformed body is a 400, not a
// silent action on a file the operator didn't ask for.
func pathParam(w http.ResponseWriter, r *http.Request, q url.Values) (string, error) {
	if path := q.Get("path"); path != "" {
		return path, nil
	}
	var body struct {
		Path string `json:"path"`
	}
	err := decodeBody(w, r, 1<<20, &body, `empty or a JSON object {"path":"..."}`, true)
	return body.Path, err
}

// decodeBatchBody reads and parses a /batch request body — a JSON array
// of [u,v] pairs — into a pooled batchBuf, bounds-checking every id
// against n; the caller releases the buffer once it has replied. A
// malformed pair is a 400, not a quietly wrong answer (see parsePairs).
func decodeBatchBody(w http.ResponseWriter, r *http.Request, n int) (*batchBuf, error) {
	const want = "a JSON array of [u,v] pairs"
	body := wireBufs.Get().(*[]byte)
	defer putWireBuf(body)
	var err error
	if *body, err = readBody(w, r, maxBatchBytes, *body); err != nil {
		return nil, bodyError("body must be "+want+": ", err)
	}
	bb := batchBufs.Get().(*batchBuf)
	if bb.pairs, err = parsePairs(*body, n, bb.pairs); err != nil {
		bb.release()
		msg := err.Error()
		if errors.As(err, new(*syntaxError)) {
			msg = "body must be " + want + ": " + msg
		}
		return nil, badRequest(msg)
	}
	return bb, nil
}

// matrixRequest is the /matrix body: distances from every source to
// every target, streamed row by row.
type matrixRequest struct {
	Sources idList `json:"sources"`
	Targets idList `json:"targets"`
}

// decodeMatrixBody parses and bounds-checks a /matrix request body for
// an n-vertex index.
func decodeMatrixBody(w http.ResponseWriter, r *http.Request, n int) (matrixRequest, error) {
	const want = `a JSON object {"sources":[...],"targets":[...]}`
	var req matrixRequest
	buf := wireBufs.Get().(*[]byte)
	defer putWireBuf(buf)
	var err error
	if *buf, err = readBody(w, r, maxBatchBytes, *buf); err != nil {
		return req, bodyError("body must be "+want+": ", err)
	}
	// Unmarshal, not a Decoder: bytes after the object are an error, not
	// ignored; the id lists hold themselves to the strict grammar (idList).
	if err := json.Unmarshal(*buf, &req); err != nil {
		return req, badRequest("body must be " + want + ": " + err.Error())
	}
	if len(req.Sources) == 0 || len(req.Targets) == 0 {
		return req, badRequest("sources and targets must both be non-empty")
	}
	if err := inRange(n, req.Sources...); err != nil {
		return req, err
	}
	return req, inRange(n, req.Targets...)
}

// decodePatchBody reads a /update body — a text patch log of at most
// maxPatchBytes — into its ops; an unreadable, malformed, or empty log is
// a 400 (413 past the limit).
func decodePatchBody(w http.ResponseWriter, r *http.Request) ([]EdgeOp, error) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxPatchBytes))
	if err != nil {
		return nil, bodyError("reading patch log body: ", err)
	}
	ops, err := ParsePatchLog(body)
	if err == nil && len(ops) == 0 {
		err = errors.New("empty update: the body held no add/del/set ops")
	}
	if err != nil {
		return nil, badRequest(err.Error())
	}
	return ops, nil
}

// wireDists rewrites a distance row for the wire in place: JSON has no
// +Inf, so -1 marks an unreachable pair.
func wireDists(dists []float64) []float64 {
	for i, d := range dists {
		if d == Infinity {
			dists[i] = -1
		}
	}
	return dists
}

// --- the one error writer ---

// writeError answers a request that failed with err, on either tier:
//
//   - a requestError: its own status (a 421 names the shard too);
//   - *VertexRangeError: 400, "vertex ids must be in [0,n)";
//   - errUpdatesDisabled: 409; what the patch log refuses (delta.Refused): 400;
//   - *ClusterError: 502 naming each failed shard in failed_shards;
//   - a replica's response the router relays (*statusError): written back
//     unchanged;
//   - anything else: 500.
func writeError(w http.ResponseWriter, err error) {
	var (
		req   *requestError
		vr    *VertexRangeError
		ce    *ClusterError
		relay *statusError
	)
	switch {
	case errors.As(err, &req) && req.code == http.StatusMisdirectedRequest:
		writeJSON(w, req.code, map[string]any{"error": req.msg, "shard": req.shard})
	case req != nil:
		httpError(w, req.code, req.msg)
	case errors.As(err, &vr):
		httpError(w, http.StatusBadRequest, fmt.Sprintf("vertex ids must be in [0,%d)", vr.N))
	case errors.Is(err, errUpdatesDisabled):
		httpError(w, http.StatusConflict, err.Error())
	case delta.Refused(err):
		httpError(w, http.StatusBadRequest, err.Error())
	case errors.As(err, &ce):
		failed := make([]map[string]any, len(ce.Failed))
		for i, f := range ce.Failed {
			failed[i] = map[string]any{"shard": f.Shard, "replica": f.Replica, "addr": f.Addr, "error": f.Err.Error()}
		}
		writeJSON(w, http.StatusBadGateway, map[string]any{"error": ce.Error(), "failed_shards": failed})
	case errors.As(err, &relay):
		w.Header()["Content-Type"] = jsonContentType
		w.WriteHeader(relay.code)
		w.Write(relay.body)
	default:
		httpError(w, http.StatusInternalServerError, err.Error())
	}
}

func httpError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}

// jsonContentType is shared by every JSON response, so setting the header
// allocates nothing; header values are replaced or copied, never written
// through.
var jsonContentType = []string{"application/json"}

// writeJSON writes every JSON response. The hot replies encode
// themselves (wirecodec.go) into a pooled buffer and go out in one Write
// with their Content-Length; everything else is encoding/json's — the
// bytes are the same either way.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header()["Content-Type"] = jsonContentType
	buf := wireBufs.Get().(*[]byte)
	defer putWireBuf(buf)
	b := (*buf)[:0]
	switch v := v.(type) {
	case distResponse:
		b = v.appendJSON(b)
	case pairResponse:
		b = v.appendJSON(b)
	case batchResponse:
		b = v.appendJSON(b)
	default:
		w.WriteHeader(code)
		json.NewEncoder(w).Encode(v)
		return
	}
	b = append(b, '\n')
	*buf = b
	w.Header().Set("Content-Length", strconv.Itoa(len(b)))
	w.WriteHeader(code)
	w.Write(b)
}

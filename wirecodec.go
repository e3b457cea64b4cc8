package chl

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"strconv"
	"sync"
)

// The bulk endpoints' wire codec. /batch moves ten thousand pairs per
// request, and reflecting that body through encoding/json cost more than
// the join kernel answering it; this file parses the request and encodes
// the reply by hand, on pooled buffers. Two rules bind it:
//
//   - the parser is strict where encoding/json is lax: a null where an id
//     belongs, a fraction, bytes after the closing bracket are errors, not
//     a quietly wrong answer (json.Decoder reads null into an int as a
//     no-op and stops after the first value);
//   - the encoder is byte-identical to encoding/json: field order,
//     omitempty stamp keys, float text, the trailing newline
//     (TestAppendJSONMatchesEncodingJSON holds it to that).

// maxPooledBytes bounds what a request may leave in a buffer pool: a
// buffer one huge request grew past it is dropped for the collector
// rather than pinned for every later request.
const maxPooledBytes = 1 << 20

// wireBufs pools byte buffers: request bodies in, encoded replies out.
var wireBufs = sync.Pool{New: func() any { return new([]byte) }}

func putWireBuf(b *[]byte) {
	if cap(*b) <= maxPooledBytes {
		wireBufs.Put(b)
	}
}

// batchBuf is the memory of one /batch request past its body: the pairs
// parsed from it and the distances answering them.
type batchBuf struct {
	pairs []QueryPair
	dists []float64
}

var batchBufs = sync.Pool{New: func() any { return new(batchBuf) }}

// release hands the buffers back once the reply has been written.
func (bb *batchBuf) release() {
	if cap(bb.pairs) > maxPooledBytes/16 {
		bb.pairs = nil
	}
	if cap(bb.dists) > maxPooledBytes/8 {
		bb.dists = nil
	}
	batchBufs.Put(bb)
}

// readBody reads a request body of at most limit bytes into buf[:0],
// growing it as needed. On failure it answers 400 (413 past the limit)
// saying the body must be want, and reports false.
func readBody(w http.ResponseWriter, r *http.Request, limit int64, buf []byte, want string) ([]byte, bool) {
	body := http.MaxBytesReader(w, r.Body, limit)
	buf = buf[:0]
	for {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, 4096)
		}
		n, err := body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, true
		}
		if err != nil {
			httpError(w, bodyErrorCode(err), "body must be "+want+": "+err.Error())
			return buf, false
		}
	}
}

// syntaxError is a body that is not the JSON its endpoint takes — as
// opposed to well-formed JSON that names a bad pair.
type syntaxError struct{ msg string }

func (e *syntaxError) Error() string { return e.msg }

// wireReader is a cursor over one JSON body. It knows the one shape the
// bulk endpoints take: arrays of integer vertex ids.
type wireReader struct {
	b   []byte
	pos int
}

func (r *wireReader) skipSpace() {
	for r.pos < len(r.b) {
		switch r.b[r.pos] {
		case ' ', '\t', '\r', '\n':
			r.pos++
		default:
			return
		}
	}
}

// fail is the syntax error at the cursor, which wanted want.
func (r *wireReader) fail(want string) error {
	if r.pos >= len(r.b) {
		return &syntaxError{fmt.Sprintf("unexpected end of body at offset %d, want %s", r.pos, want)}
	}
	return &syntaxError{fmt.Sprintf("invalid character %q at offset %d, want %s", r.b[r.pos], r.pos, want)}
}

// open consumes the '[' that starts an array.
func (r *wireReader) open() error {
	r.skipSpace()
	if r.pos >= len(r.b) || r.b[r.pos] != '[' {
		return r.fail("'['")
	}
	r.pos++
	return nil
}

// more reports whether the open array holds another element, consuming
// the ',' before it or the ']' that ends the array. first says no element
// has been read yet.
func (r *wireReader) more(first bool) (bool, error) {
	r.skipSpace()
	switch {
	case r.pos < len(r.b) && r.b[r.pos] == ']':
		r.pos++
		return false, nil
	case first:
		return true, nil
	case r.pos < len(r.b) && r.b[r.pos] == ',':
		r.pos++
		return true, nil
	}
	return false, r.fail("',' or ']'")
}

// end accepts only white space up to the end of the body.
func (r *wireReader) end() error {
	r.skipSpace()
	if r.pos < len(r.b) {
		return r.fail("the end of the body")
	}
	return nil
}

// int reads one JSON integer: an optional '-', then 0 or a digit string
// without a leading zero. A fraction or exponent is left for the caller
// to trip over — vertex ids have neither.
func (r *wireReader) int() (int, error) {
	r.skipSpace()
	neg := r.pos < len(r.b) && r.b[r.pos] == '-'
	if neg {
		r.pos++
	}
	start := r.pos
	var x uint64
	for ; r.pos < len(r.b) && '0' <= r.b[r.pos] && r.b[r.pos] <= '9'; r.pos++ {
		d := uint64(r.b[r.pos] - '0')
		if x > (math.MaxInt-d)/10 {
			return 0, &syntaxError{fmt.Sprintf("integer at offset %d does not fit a vertex id", start)}
		}
		x = x*10 + d
	}
	if r.pos == start {
		return 0, r.fail("an integer")
	}
	if r.b[start] == '0' && r.pos-start > 1 {
		return 0, &syntaxError{fmt.Sprintf("integer at offset %d has a leading zero", start)}
	}
	if neg {
		return -int(x), nil
	}
	return int(x), nil
}

// ints reads one array of integers onto dst.
func (r *wireReader) ints(dst []int) ([]int, error) {
	if err := r.open(); err != nil {
		return dst, err
	}
	for first := true; ; first = false {
		more, err := r.more(first)
		if err != nil || !more {
			return dst, err
		}
		x, err := r.int()
		if err != nil {
			return dst, err
		}
		dst = append(dst, x)
	}
}

// parsePairs parses a /batch body — a JSON array of [u,v] pairs — onto
// dst[:0] in one pass, checking every id against [0,n) as it goes. The
// returned slice is dst's memory (possibly regrown) even on error, so the
// caller can pool it.
func parsePairs(body []byte, n int, dst []QueryPair) ([]QueryPair, error) {
	r := wireReader{b: body}
	dst = dst[:0]
	if err := r.open(); err != nil {
		return dst, err
	}
	for i := 0; ; i++ {
		more, err := r.more(i == 0)
		if err != nil {
			return dst, err
		}
		if !more {
			return dst, r.end()
		}
		var two [2]int
		p, err := r.ints(two[:0])
		if err != nil {
			return dst, err
		}
		if len(p) != 2 {
			return dst, fmt.Errorf("pair %d has %d elements, want [u,v]", i, len(p))
		}
		if p[0] < 0 || p[1] < 0 || p[0] >= n || p[1] >= n {
			return dst, fmt.Errorf("pair %d = [%d,%d] out of range [0,%d)", i, p[0], p[1], n)
		}
		dst = append(dst, QueryPair{U: p[0], V: p[1]})
	}
}

// idList is a JSON array of vertex ids held to the strict integer
// grammar above when encoding/json decodes the object around it (/matrix).
type idList []int

func (l *idList) UnmarshalJSON(b []byte) error {
	r := wireReader{b: b}
	ids, err := r.ints(nil)
	if err == nil {
		err = r.end()
	}
	*l = ids
	if err != nil {
		return fmt.Errorf("id list: %w", err) // the offset counts from the list's '['
	}
	return nil
}

// appendFloat appends f as encoding/json writes a float64: integers as
// integers (every distance over integer weights), otherwise the shortest
// text that round-trips, exponent form below 1e-6 and from 1e21.
func appendFloat(b []byte, f float64) []byte {
	if -1<<53 <= f && f <= 1<<53 {
		if i := int64(f); float64(i) == f && (i != 0 || !math.Signbit(f)) {
			return strconv.AppendInt(b, i, 10)
		}
	}
	if math.IsInf(f, 0) || math.IsNaN(f) {
		// encoding/json refuses these; no distance is either (Infinity is
		// finite, and wireDists rewrites it).
		panic(fmt.Sprintf("chl: non-finite value %v in a JSON reply", f))
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1] // e-09 → e-9
		b = b[:n-1]
	}
	return b
}

// appendDists appends a distance array.
func appendDists(b []byte, dists []float64) []byte {
	if dists == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i, d := range dists {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendFloat(b, d)
	}
	return append(b, ']')
}

func appendIntField(b []byte, key string, x int64) []byte {
	return strconv.AppendInt(append(b, key...), x, 10)
}

func appendUintField(b []byte, key string, x uint64) []byte {
	return strconv.AppendUint(append(b, key...), x, 10)
}

// The encoders below are what writeJSON runs in place of encoding/json
// for the hot replies. Only the types it names take the fast path; the
// methods are not an interface writeJSON asserts, because embedding
// would promote a pairResponse's or a stamp's encoder onto every
// response that embeds one, and cut those replies short.

// appendStamp appends the stamp's non-zero keys, each after a comma.
func (s shardStamp) appendStamp(b []byte) []byte {
	if s.Generation != 0 {
		b = appendUintField(b, `,"generation":`, s.Generation)
	}
	if s.Epoch != 0 {
		b = appendUintField(b, `,"epoch":`, s.Epoch)
	}
	if s.Ident != 0 {
		b = appendUintField(b, `,"ident":`, s.Ident)
	}
	if s.N != 0 {
		b = appendIntField(b, `,"n":`, int64(s.N))
	}
	if s.Directed {
		b = append(b, `,"directed":true`...)
	}
	return b
}

// appendPair appends the object up to, not including, its closing brace.
func (p pairResponse) appendPair(b []byte) []byte {
	b = appendIntField(b, `{"u":`, int64(p.U))
	b = appendIntField(b, `,"v":`, int64(p.V))
	b = strconv.AppendBool(append(b, `,"reachable":`...), p.Reachable)
	return p.appendStamp(b)
}

func (p pairResponse) appendJSON(b []byte) []byte {
	return append(p.appendPair(b), '}')
}

func (d distResponse) appendJSON(b []byte) []byte {
	b = appendFloat(append(d.appendPair(b), `,"dist":`...), d.Dist)
	return append(appendIntField(b, `,"hub":`, int64(d.Hub)), '}')
}

func (r batchResponse) appendJSON(b []byte) []byte {
	b = appendDists(append(b, `{"dists":`...), r.Dists)
	return append(r.appendStamp(b), '}')
}

// matrixHeader is the first line of a /matrix stream, in the documented
// key order. Targets is never empty (decodeMatrixBody refuses that).
type matrixHeader struct {
	Targets []int `json:"targets"`
	Rows    int   `json:"rows"`
}

func (h matrixHeader) appendJSON(b []byte) []byte {
	b = append(b, `{"targets":[`...)
	for i, t := range h.Targets {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(t), 10)
	}
	return append(appendIntField(b, `],"rows":`, int64(h.Rows)), '}')
}

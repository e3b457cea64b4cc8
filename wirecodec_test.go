package chl

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

// FuzzParsePairs holds the strict /batch parser to encoding/json: a body
// is accepted exactly when encoding/json decodes it into [][]int with no
// null anywhere, nothing but white space after the array, two elements in
// every pair and every id in [0,n) — and then to the same pairs.
func FuzzParsePairs(f *testing.F) {
	for _, seed := range []string{
		`[[0,1],[2,2]]`, `[[17,4242],[0,99]]`, `[]`, `[[1,2,3]]`, // README
		`[[3,null]]`, `[[null,null]]`, `null`, `[null]`, `[[1,2]] trailing garbage`, `[[1,2]]]`,
		`[[1.5,2]]`, `[[1e2,2]]`, `[[01,2]]`, `[[1,2]`, `[[1,2],]`, `[,[1,2]]`, `[[1,,2]]`, `[[1,2,]]`,
		`[[9223372036854775808,1]]`, `[[-9223372036854775808,1]]`, `[[99999999999999999999999,1]]`,
		" [ [ 1 , 2 ] , [ 3 , 4 ] ] ", "\t[\n[\r1\t,\n2\r]\t]\n", `[[-0,1]]`, `[[1,-1]]`, `[[1,500]]`,
		`{"no":"pairs"}`, `[[]]`, `[1,2]`, `[[[1,2]]]`, `[["1",2]]`, `[[+1,2]]`, `[[-,2]]`, ``, `[`, `[[`,
	} {
		f.Add([]byte(seed), 100)
	}
	f.Fuzz(func(t *testing.T, body []byte, n int) {
		var want []QueryPair
		var raw [][]int
		accept := json.Unmarshal(body, &raw) == nil && !bytes.Contains(body, []byte("null"))
		for _, p := range raw {
			if len(p) != 2 || p[0] < 0 || p[1] < 0 || p[0] >= n || p[1] >= n {
				accept = false
				break
			}
			want = append(want, QueryPair{U: p[0], V: p[1]})
		}
		got, err := parsePairs(body, n, nil)
		switch {
		case accept && err != nil:
			t.Fatalf("parsePairs(%q, %d) = %v, encoding/json decodes it to %v", body, n, err, raw)
		case !accept && err == nil:
			t.Fatalf("parsePairs(%q, %d) accepted %v; encoding/json or the pair rules reject it", body, n, got)
		case accept && !slices.Equal(got, want):
			t.Fatalf("parsePairs(%q, %d) = %v, want %v", body, n, got, want)
		}
	})
}

// TestParsePairsMessages pins the two documented pair errors and that
// everything else is a syntax error naming an offset.
func TestParsePairsMessages(t *testing.T) {
	for body, want := range map[string]string{
		`[[1,2,3]]`:                 "pair 0 has 3 elements, want [u,v]",
		`[[1,2],[]]`:                "pair 1 has 0 elements, want [u,v]",
		`[[1,2],[3,500]]`:           "pair 1 = [3,500] out of range [0,120)",
		`[[1,-1]]`:                  "pair 0 = [1,-1] out of range [0,120)",
		`[[3,null]]`:                "invalid character 'n' at offset 4, want an integer",
		`null`:                      "invalid character 'n' at offset 0, want '['",
		`[[1,2]]]`:                  "invalid character ']' at offset 7, want the end of the body",
		`[[1.5,2]]`:                 "invalid character '.' at offset 3, want ',' or ']'",
		`[[1,2]`:                    "unexpected end of body at offset 6, want ',' or ']'",
		`[[01,2]]`:                  "integer at offset 2 has a leading zero",
		`[[1,9223372036854775808]]`: "integer at offset 4 does not fit a vertex id",
	} {
		_, err := parsePairs([]byte(body), 120, nil)
		if err == nil || err.Error() != want {
			t.Errorf("parsePairs(%s) = %v, want %q", body, err, want)
		}
	}
}

// wireFloats are the distances the encoder is most likely to get wrong:
// both formats' cutoffs, the integer fast path's edges, exponent cleanup.
var wireFloats = []float64{
	-1, 0, math.Copysign(0, -1), 1, 42, 0.5, 1.0 / 3, 1 << 53, 1<<53 + 2, -(1 << 53), 1<<53 - 1, 1 << 62,
	1e20, 999999999999999900000, 1e21, 1.5e21, 1e-6, 9.99e-7, 1e-7, 1.5e-9, 1e-10, 1e100, 1.234e-100,
	math.MaxFloat32, math.SmallestNonzeroFloat32, math.MaxFloat64, math.SmallestNonzeroFloat64, 5e-324 * 3,
	2.2250738585072014e-308, 123456.789, 0.000001234, 100000000000000000000, -3.25,
}

// TestAppendJSONMatchesEncodingJSON holds writeJSON's fast path to the
// bytes encoding/json writes for the same value, over every omitempty
// combination of the stamp and distances random and hand-picked.
func TestAppendJSONMatchesEncodingJSON(t *testing.T) {
	check := func(v any) bool {
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(v); err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		writeJSON(rec, http.StatusOK, v)
		if !bytes.Equal(rec.Body.Bytes(), want.Bytes()) {
			t.Errorf("writeJSON(%#v)\n got %s\nwant %s", v, rec.Body.Bytes(), want.Bytes())
			return false
		}
		if cl := rec.Header().Get("Content-Length"); cl != "" && cl != strconv.Itoa(want.Len()) {
			t.Errorf("Content-Length %q for a %d-byte body", cl, want.Len())
			return false
		}
		return true
	}
	property := func(st shardStamp, u, v, hub int, raw []float64, ints []int64, scale []int8) bool {
		dists := append([]float64{}, wireFloats...)
		for i, x := range raw {
			dists = append(dists, x)
			if i < len(scale) { // quick's floats are all huge; spread them over the exponents
				dists = append(dists, x/math.MaxFloat64*math.Pow(10, float64(scale[i]%40)))
			}
		}
		for _, i := range ints {
			dists = append(dists, float64(i%(1<<54)), float64(i))
		}
		ok := true
		for mask := 0; mask < 64 && ok; mask++ {
			s := st
			s.Directed = true
			for bit, zero := range []func(){
				func() { s.Generation = 0 }, func() { s.Epoch = 0 }, func() { s.Ident = 0 },
				func() { s.N = 0 }, func() { s.Directed = false }, func() { s.UnitExp = 0 },
			} {
				if mask&(1<<bit) != 0 {
					zero()
				}
			}
			pair := pairResponse{U: u, V: v, Reachable: mask%2 == 0, shardStamp: s}
			ok = check(pair) && check(batchResponse{Dists: dists, shardStamp: s}) &&
				check(distResponse{pairResponse: pair, Dist: dists[(mask*7)%len(dists)], Hub: hub})
		}
		for _, d := range dists {
			ok = ok && check(distResponse{Dist: d})
		}
		return ok && check(batchResponse{}) && check(batchResponse{Dists: []float64{}})
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, batchResponse{Dists: wireFloats})
	if rec.Header().Get("Content-Length") != strconv.Itoa(rec.Body.Len()) {
		t.Errorf("fast path left Content-Length %q on a %d-byte body", rec.Header().Get("Content-Length"), rec.Body.Len())
	}
	// The other stamped replies stay on encoding/json: none may pick up an
	// embedded type's encoder and lose its own fields.
	pair := pairResponse{U: 1, V: 2, Reachable: true, shardStamp: shardStamp{Generation: 3, N: 9}}
	check(pathResponse{pairResponse: pair, Dist: 4, Path: []int{1, 5, 2}})
	check(healthResponse{OK: true, shardStamp: pair.shardStamp})
	check(&reloadResponse{Path: "x", Vertices: 9, shardStamp: pair.shardStamp})
}

// TestMatrixHeaderWireOrder pins the first line of a /matrix stream to
// the bytes README and ARCHITECTURE document — targets, then rows —
// through the handler, and the encoder to encoding/json's rendering of
// the same struct.
func TestMatrixHeaderWireOrder(t *testing.T) {
	h := matrixHeader{Targets: []int{800, 12, 3}, Rows: 2}
	want, err := json.Marshal(h)
	if err != nil {
		t.Fatal(err)
	}
	if got := h.appendJSON(nil); !bytes.Equal(got, want) || string(got) != `{"targets":[800,12,3],"rows":2}` {
		t.Fatalf("appendJSON = %s, encoding/json = %s", got, want)
	}
	ix, err := Build(GenerateRoadGrid(4, 4, 1), Options{})
	if err != nil {
		t.Fatal(err)
	}
	fx, err := ix.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServerFromFlat(fx, 0)
	defer srv.Close()
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/matrix", strings.NewReader(`{"sources":[3,0],"targets":[15,12,3]}`)))
	first, _, _ := strings.Cut(rec.Body.String(), "\n")
	if rec.Code != http.StatusOK || first != `{"targets":[15,12,3],"rows":2}` {
		t.Fatalf("/matrix status %d, header line %q", rec.Code, first)
	}
}

// TestBatchPooledBuffersUnderConcurrency posts different batches from 8
// goroutines at once and checks every reply against Index.Query: a
// pooled body, pair or distance buffer handed back before its reply was
// written would show as another request's answers (run with -race
// -count=10).
func TestBatchPooledBuffersUnderConcurrency(t *testing.T) {
	g := GenerateRoadGrid(16, 16, 1)
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
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	n := g.NumVertices()
	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c)))
			for round := 0; round < 20; round++ {
				pairs := make([][2]int, 1+rng.Intn(400)) // sizes differ, so buffers are regrown and reused
				for i := range pairs {
					pairs[i] = [2]int{rng.Intn(n), rng.Intn(n)}
				}
				body, _ := json.Marshal(pairs)
				resp, err := http.Post(ts.URL+"/batch", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				var out batchResponse
				err = json.NewDecoder(resp.Body).Decode(&out)
				resp.Body.Close()
				if err != nil || len(out.Dists) != len(pairs) {
					t.Errorf("client %d round %d: %d distances for %d pairs (%v)", c, round, len(out.Dists), len(pairs), err)
					return
				}
				for i, p := range pairs {
					if want := ix.Query(p[0], p[1]); out.Dists[i] != want {
						t.Errorf("client %d round %d: pair %v = %v, want %v", c, round, p, out.Dists[i], want)
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
}

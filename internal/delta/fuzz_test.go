package delta

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/label"
)

// fuzzSeeds is the regression corpus for the patch-log parser: every
// op kind, comments, blank lines, float weights, and a spread of the
// malformed shapes the parser must reject without panicking.
var fuzzSeeds = []string{
	"",
	"add 1 2 3\n",
	"del 4 5\n",
	"set 0 9 7.25\n",
	"# comment only\n\n",
	"add 1 2 3 # trailing\ndel 1 2\n",
	"add 1 2 3.5e2\n",
	"add 0 1 0.0001\nset 0 1 1e9\ndel 0 1\n",
	"frob 1 2 3\n",
	"add 1 2\n",
	"add -1 2 3\n",
	"add 1 1 3\n",
	"add 1 2 -5\n",
	"add 1 2 NaN\n",
	"add 1 2 Inf\n",
	"add 99999999999999999999 2 3\n",
	"set one two three\n",
	"\x00\xff\n",
}

// FuzzParsePatchLog drives the patch-log parser with arbitrary bytes:
// it must never panic, and on accepted input the canonical rendering
// must round-trip to the same ops (parse ∘ format ∘ parse = parse).
func FuzzParsePatchLog(f *testing.F) {
	for _, seed := range fuzzSeeds {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ops, err := ParsePatchLog(data)
		if err != nil {
			return
		}
		for _, op := range ops {
			if op.U < 0 || op.V < 0 || op.U == op.V {
				t.Fatalf("accepted op with bad endpoints: %+v", op)
			}
			if op.Kind != OpDel && !(op.W > 0) {
				t.Fatalf("accepted op with non-positive weight: %+v", op)
			}
		}
		again, err := ParsePatchLog(FormatPatchLog(ops))
		if err != nil {
			t.Fatalf("canonical rendering failed to re-parse: %v", err)
		}
		if len(again) != len(ops) {
			t.Fatalf("round trip changed op count: %d -> %d", len(ops), len(again))
		}
		for i := range ops {
			if again[i] != ops[i] {
				t.Fatalf("round trip changed op %d: %+v -> %+v", i, ops[i], again[i])
			}
		}
	})
}

// fuzzCorpus seeds the fuzzers that steer a graph and a log by bytes.
func fuzzCorpus(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50; i++ {
		seed := make([]byte, 8+rng.Intn(90))
		rng.Read(seed)
		f.Add(seed)
	}
}

// edgeSet is a graph's edges by endpoints, normalized u < v when
// undirected, with their weights.
type edgeSet map[[2]int]float64

// fuzzLog steers a small base graph, directed or not, and a valid op log
// over it by bytes (nil when data is too short). Few vertices and four
// weights, all multiples of half a unit, make the logs revisit edges: ops
// that cancel, a del then an add of one edge, a set to the weight the edge
// has. edges is the edge set the log leaves.
func fuzzLog(data []byte) (base *graph.Graph, ops []Op, edges edgeSet) {
	if len(data) < 2 {
		return nil, nil, nil
	}
	n, directed, m := 2+int(data[0]%7), data[0] >= 128, int(data[1]%24)
	data = data[2:]
	norm := func(u, v int) [2]int {
		if !directed && u > v {
			u, v = v, u
		}
		return [2]int{u, v}
	}
	weight := func(c byte) float64 { return float64(1+c%4) / 2 }
	b := graph.NewBuilder(n, directed)
	for ; m > 0 && len(data) >= 3; m, data = m-1, data[3:] {
		b.AddEdge(int(data[0])%n, int(data[1])%n, weight(data[2]))
	}
	base = b.MustFinish()
	// edges is the edge set, replayed op by op.
	edges = edgeSet{}
	for u := 0; u < n; u++ {
		heads, wts := base.Neighbors(u)
		for i, h := range heads {
			edges[norm(u, int(h))] = base.FromUnits(uint64(wts[i]))
		}
	}
	for ; len(data) >= 3; data = data[3:] {
		u, v, w := int(data[0])%n, int(data[1])%n, weight(data[2])
		if u == v {
			continue
		}
		k := norm(u, v)
		switch _, has := edges[k]; {
		case !has:
			ops = append(ops, Op{Kind: OpAdd, U: u, V: v, W: w})
			edges[k] = w
		case data[2]&4 != 0:
			ops = append(ops, Op{Kind: OpDel, U: u, V: v})
			delete(edges, k)
		default:
			ops = append(ops, Op{Kind: OpSet, U: u, V: v, W: w})
			edges[k] = w
		}
	}
	return base, ops, edges
}

// FuzzMaterialize holds the spliced patched graph to a Builder-built
// reference over fuzzLog's graphs and logs. Equal rows in both directions
// and an equal arc count are equal CSR arrays.
func FuzzMaterialize(f *testing.F) {
	fuzzCorpus(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		base, ops, edges := fuzzLog(data)
		if base == nil {
			return
		}
		n, directed := base.NumVertices(), base.Directed()
		got, err := ApplyPatch(base, ops)
		if err != nil {
			t.Fatalf("valid log %v refused: %v", ops, err)
		}
		ref := graph.NewBuilder(n, directed)
		for k, w := range edges {
			ref.AddEdge(k[0], k[1], w)
		}
		want := ref.MustFinish()
		if got.NumArcs() != want.NumArcs() || got.WeightUnitExp() != want.WeightUnitExp() {
			t.Fatalf("directed=%v %v: %d arcs in units of 2^-%d, Builder made %d in 2^-%d", directed, ops,
				got.NumArcs(), got.WeightUnitExp(), want.NumArcs(), want.WeightUnitExp())
		}
		for u := 0; u < n; u++ {
			for _, rows := range []func(*graph.Graph, int) ([]uint32, []uint32){(*graph.Graph).Neighbors, (*graph.Graph).InNeighbors} {
				gh, gw := rows(got, u)
				wh, ww := rows(want, u)
				if !slices.Equal(gh, wh) || !slices.Equal(gw, ww) {
					t.Fatalf("directed=%v %v: row %d is %v %v, Builder made %v %v", directed, ops, u, gh, gw, wh, ww)
				}
			}
		}
	})
}

// FuzzOverlayQuery holds every pair's Overlay.Query, over labels frozen
// from fuzzLog's base graph by pll.Sequential (SequentialDirected when
// directed), to a Dijkstra on the patched graph with ==. An answer flagged
// frozen must be the frozen join's, with a witness hub on a patched
// shortest path. Overlay.Correct then corrects all n² frozen answers in one
// run, sources interleaved, and each must equal the oracle and Query's,
// counted once.
func FuzzOverlayQuery(f *testing.F) {
	fuzzCorpus(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		base, ops, _ := fuzzLog(data)
		if base == nil {
			return
		}
		red, err := Reduce(base, ops)
		if err != nil {
			t.Fatalf("valid log %v refused: %v", ops, err)
		}
		fl := freezeLabels(base)
		ov := NewOverlay(red, ops, 1)
		want := newOracle(red.Materialize())
		n := base.NumVertices()
		queried := make([]float64, n*n)
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				got, hub, frozen := fl.query(ov, u, v)
				queried[u*n+v] = got
				if w := want.dist(u, v); got != w {
					t.Fatalf("directed=%v %v: d′(%d,%d) = %v, Dijkstra says %v", base.Directed(), ops, u, v, got, w)
				}
				if !frozen || u == v {
					continue
				}
				d0, _, _ := label.JoinPacked(fl.fwd.PackedRun(u), fl.bwd.PackedRun(v))
				if h := int(hub); got != label.FromUnits(d0, fl.fwd.UnitExp()) || want.dist(u, h)+want.dist(h, v) != got {
					t.Fatalf("directed=%v %v: (%d,%d) flagged frozen at %v, but the frozen join says %v and witness %d is off the patched shortest paths",
						base.Directed(), ops, u, v, got, label.FromUnits(d0, fl.fwd.UnitExp()), h)
				}
			}
		}
		// Pair i is (i mod n, i div n): consecutive pairs change source.
		dists := make([]float64, n*n)
		for i := range dists {
			dists[i], _, _ = label.Join(nil, fl.fwd, fl.bwd, i%n, i/n)
		}
		before := ov.Stat()
		ov.Correct(len(dists), func(i int) (int, int, *float64) { return i % n, i / n, &dists[i] })
		after := ov.Stat()
		if counted := (after.Frozen + after.Corrected + after.Fallback) - (before.Frozen + before.Corrected + before.Fallback); counted != int64(n*n) {
			t.Fatalf("directed=%v %v: Correct over %d pairs counted %d", base.Directed(), ops, n*n, counted)
		}
		for i, got := range dists {
			u, v := i%n, i/n
			if w := want.dist(u, v); got != w || got != queried[u*n+v] {
				t.Fatalf("directed=%v %v: Correct gives d′(%d,%d) = %v, Dijkstra says %v, Query %v", base.Directed(), ops, u, v, got, w, queried[u*n+v])
			}
		}
	})
}

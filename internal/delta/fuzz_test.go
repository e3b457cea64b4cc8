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

// FuzzMaterialize holds the spliced patched graph to a Builder-built
// reference over byte-steered small graphs, directed and undirected, and
// byte-steered valid op logs. Few vertices and four weights make the logs
// revisit edges: ops that cancel, a del then an add of one edge, a set to
// the weight the edge has. Equal rows in both directions and an equal arc
// count are equal CSR arrays.
func FuzzMaterialize(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50; i++ {
		seed := make([]byte, 8+rng.Intn(90))
		rng.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n, directed, m := 2+int(data[0]%7), data[0] >= 128, int(data[1]%24)
		data = data[2:]
		type key struct{ u, v int }
		norm := func(u, v int) key {
			if !directed && u > v {
				u, v = v, u
			}
			return key{u, v}
		}
		weight := func(c byte) float64 { return float64(1+c%4) / 2 }
		b := graph.NewBuilder(n, directed)
		for ; m > 0 && len(data) >= 3; m, data = m-1, data[3:] {
			b.AddEdge(int(data[0])%n, int(data[1])%n, weight(data[2]))
		}
		base := b.MustFinish()
		// edges is the edge set, replayed op by op: the reference's input.
		edges := map[key]float64{}
		for u := 0; u < n; u++ {
			heads, wts := base.Neighbors(u)
			for i, h := range heads {
				edges[norm(u, int(h))] = wts[i]
			}
		}
		var ops []Op
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
		got, err := ApplyPatch(base, ops)
		if err != nil {
			t.Fatalf("valid log %v refused: %v", ops, err)
		}
		ref := graph.NewBuilder(n, directed)
		for k, w := range edges {
			ref.AddEdge(k.u, k.v, w)
		}
		want := ref.MustFinish()
		if got.NumArcs() != want.NumArcs() {
			t.Fatalf("directed=%v %v: %d arcs, Builder made %d", directed, ops, got.NumArcs(), want.NumArcs())
		}
		for u := 0; u < n; u++ {
			for _, rows := range []func(*graph.Graph, int) ([]uint32, []float64){(*graph.Graph).Neighbors, (*graph.Graph).InNeighbors} {
				gh, gw := rows(got, u)
				wh, ww := rows(want, u)
				if !slices.Equal(gh, wh) || !slices.Equal(gw, ww) {
					t.Fatalf("directed=%v %v: row %d is %v %v, Builder made %v %v", directed, ops, u, gh, gw, wh, ww)
				}
			}
		}
	})
}

// fuzzRun carves one packed label run out of data: a length byte, then
// (hub gap, distance) byte pairs — hubs strictly ascending and below n,
// as every run the serving tiers hand the overlay is (label.ParsePackedRun
// rejects anything else), distances counted in quarter units (k = 2) so
// the sums are not all integers. It returns the run and the unread rest.
func fuzzRun(data []byte, n int) (run []uint64, rest []byte) {
	if len(data) == 0 {
		return nil, nil
	}
	count, data := int(data[0]%12), data[1:]
	hub := -1
	for ; count > 0 && len(data) >= 2; count, data = count-1, data[2:] {
		if hub += 1 + int(data[0]%5); hub >= n {
			break
		}
		run = append(run, uint64(hub)<<32|uint64(data[1]))
	}
	return run, data
}

// FuzzSeedTable steers the label runs of the patch vertices and of the
// two endpoints with arbitrary bytes — sparse, empty, disjoint,
// overlapping — and holds Overlay.Seeds to the pairwise hub joins it
// replaces, on an undirected overlay (one table) and a directed one
// (two).
func FuzzSeedTable(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 3, 7, 3, 0, 4, 1, 8, 2, 12, 3, 0, 4, 1, 8, 2, 12, 2, 0, 5, 0, 5})
	f.Add([]byte{1, 9, 200, 11, 255, 1, 4, 7, 4, 7, 4, 7, 11, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	const n = 40
	ops := []Op{{Kind: OpDel, U: 3, V: 4}, {Kind: OpAdd, U: 0, V: 9, W: 2}, {Kind: OpSet, U: 20, V: 21, W: 5}}
	var reds [2]*Reduction
	for i, directed := range []bool{false, true} {
		b := graph.NewBuilder(n, directed)
		for v := 0; v+1 < n; v++ {
			b.AddEdge(v, v+1, 1)
		}
		g, err := b.Finish()
		if err != nil {
			f.Fatal(err)
		}
		if reds[i], err = Reduce(g, ops); err != nil {
			f.Fatal(err)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		red := reds[data[0]%2]
		verts := red.Verts()
		u, v := int(data[1])%n, int(data[2])%n
		data = data[3:]
		fwd, bwd := make([][]uint64, len(verts)), make([][]uint64, len(verts))
		for i := range verts {
			fwd[i], data = fuzzRun(data, n)
			bwd[i] = fwd[i]
			if red.directed {
				bwd[i], data = fuzzRun(data, n)
			}
		}
		runU, data := fuzzRun(data, n)
		runV, _ := fuzzRun(data, n)
		ov, err := NewOverlay(red, ops, 1, 2, fwd, bwd)
		if err != nil {
			t.Fatal(err)
		}
		du, dv := make([]float64, len(verts)), make([]float64, len(verts))
		ov.Seeds(du, dv, runU, runV, u, v)
		for i, p := range verts {
			wantU, _, _ := label.JoinPacked(runU, bwd[i])
			wantV, _, _ := label.JoinPacked(fwd[i], runV)
			wantU, wantV = label.FromUnits(wantU, 2), label.FromUnits(wantV, 2)
			if p == u {
				wantU = 0
			}
			if p == v {
				wantV = 0
			}
			if du[i] != wantU || dv[i] != wantV {
				t.Fatalf("directed=%v (%d,%d) patch vertex %d: seeds (%v,%v), joins (%v,%v)",
					red.directed, u, v, p, du[i], dv[i], wantU, wantV)
			}
		}
	})
}

// Package delta layers a mutable edge-patch overlay over a frozen hub
// labeling. The frozen index answers exact distances for the graph it
// was built from; the overlay tracks edges inserted, deleted, or
// reweighted since, and corrects queries so every answer is exact for
// the *patched* graph — without rebuilding labels.
//
// The scheme: a patch log of edge operations reduces (against the base
// graph) to a set R of removed edges and a set I of inserted edges; the
// patch vertices P are the endpoints of R ∪ I. Any shortest path in the
// patched graph G' = G − R + I decomposes into inserted edges and
// maximal segments that avoid every patched edge — and each such
// segment runs between members of {u} ∪ P ∪ {v}, so its length is the
// G−R distance between its endpoints. When no G-shortest path between a
// segment's endpoints threads a removed edge (the "safety" test below),
// that G−R distance equals the frozen label distance, and the corrected
// query is a Dijkstra over a tiny graph of |P|+2 nodes whose arcs are
// frozen distances plus inserted edges. When safety cannot be shown the
// overlay falls back to an exact Dijkstra on the materialized patched
// graph. Untouched pairs under an empty overlay never leave the frozen
// path, so their answers stay bit-identical.
//
// Safety test: a frozen value d(a,b) is possibly compromised iff some
// removal (x,y,w) satisfies d(a,x) + w + d(y,b) == d(a,b) (both
// orientations for undirected graphs) — i.e. a G-shortest a→b path may
// cross the removed edge. All the distances the test needs are between
// members of {a} ∪ P ∪ {b}, which are exactly the seeds the correction
// already has. Since a→x→(edge)→y→b is a real G-walk, the sum can never
// be below d(a,b); the test uses <= so float noise errs toward the
// exact fallback, never toward a wrong answer.
package delta

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/label"
	"repro/internal/sssp"
)

// OpKind discriminates the three patch operations.
type OpKind uint8

const (
	// OpAdd inserts an edge that does not exist in the current state.
	OpAdd OpKind = iota
	// OpDel deletes an existing edge.
	OpDel
	// OpSet reweights an existing edge.
	OpSet
)

// Op is one edge operation in a patch log. U and V are original vertex
// ids; W is the new weight for OpAdd and OpSet (ignored for OpDel).
type Op struct {
	Kind OpKind
	U, V int
	W    float64
}

// String renders the op in patch-log line format.
func (op Op) String() string {
	switch op.Kind {
	case OpDel:
		return fmt.Sprintf("del %d %d", op.U, op.V)
	case OpSet:
		return fmt.Sprintf("set %d %d %s", op.U, op.V, strconv.FormatFloat(op.W, 'g', -1, 64))
	default:
		return fmt.Sprintf("add %d %d %s", op.U, op.V, strconv.FormatFloat(op.W, 'g', -1, 64))
	}
}

// ParsePatchLog parses the text patch-log format: one op per line —
// "add u v w", "del u v", "set u v w" — with blank lines and '#'
// comments ignored. Vertex ids must be non-negative (range checking
// against a concrete graph happens at apply time); weights must be
// positive and finite. The parser is fuzzed; it must never panic on
// hostile input.
func ParsePatchLog(b []byte) ([]Op, error) {
	var ops []Op
	for ln, line := range strings.Split(string(b), "\n") {
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		f := strings.Fields(line)
		if len(f) == 0 {
			continue
		}
		var (
			op   Op
			want int
		)
		switch f[0] {
		case "add":
			op.Kind, want = OpAdd, 4
		case "del":
			op.Kind, want = OpDel, 3
		case "set":
			op.Kind, want = OpSet, 4
		default:
			return nil, fmt.Errorf("delta: line %d: unknown op %q (want add|del|set)", ln+1, f[0])
		}
		if len(f) != want {
			return nil, fmt.Errorf("delta: line %d: %s takes %d fields, got %d", ln+1, f[0], want-1, len(f)-1)
		}
		u, err1 := strconv.Atoi(f[1])
		v, err2 := strconv.Atoi(f[2])
		if err1 != nil || err2 != nil || u < 0 || v < 0 {
			return nil, fmt.Errorf("delta: line %d: bad vertex ids %q %q", ln+1, f[1], f[2])
		}
		if u == v {
			return nil, fmt.Errorf("delta: line %d: self loop (%d,%d)", ln+1, u, v)
		}
		op.U, op.V = u, v
		if want == 4 {
			w, err := strconv.ParseFloat(f[3], 64)
			if err != nil || !validWeight(w) {
				return nil, fmt.Errorf("delta: line %d: bad weight %q (want positive finite)", ln+1, f[3])
			}
			op.W = w
		}
		ops = append(ops, op)
	}
	return ops, nil
}

// validWeight is the one weight rule of a patch, parsed or handed to Reduce
// directly: positive and finite, with headroom below graph.Infinity.
func validWeight(w float64) bool { return w > 0 && w <= 1e308 }

// FormatPatchLog renders ops in the text format ParsePatchLog reads;
// Format∘Parse is the identity on valid logs modulo comments and
// whitespace.
func FormatPatchLog(ops []Op) []byte {
	var b bytes.Buffer
	for _, op := range ops {
		b.WriteString(op.String())
		b.WriteByte('\n')
	}
	return b.Bytes()
}

// LogHash returns a 53-bit, never-zero FNV-1a hash of the canonical
// text rendering of ops — the patch half of a patched snapshot's
// identity. Two processes that replay the same journal over the same
// index file agree on it.
func LogHash(ops []Op) uint64 {
	h := fnv.New64a()
	h.Write(FormatPatchLog(ops))
	s := h.Sum64() & (1<<53 - 1)
	if s == 0 {
		s = 1
	}
	return s
}

// edgeKey identifies one edge: ordered for directed graphs, normalized
// u<v for undirected ones.
type edgeKey struct{ u, v int }

// removal is one edge of R in patch-vertex slot space.
type removal struct {
	x, y int // slots of the removed edge's endpoints
	w    float64
}

// insArc is one inserted arc out of a patch vertex, in slot space.
type insArc struct {
	to int
	w  float64
}

// Reduction is the patch log reduced against a base graph: the final
// edge state of every touched key, the removal/insertion diff, and the
// patch-vertex universe. It is the cheap, shard-free half of overlay
// construction — building the Overlay on top additionally needs the
// frozen label runs of the patch vertices.
type Reduction struct {
	base     *graph.Graph
	directed bool
	verts    []int       // sorted patch vertex ids (endpoints of R ∪ I)
	slot     map[int]int // vertex id -> index into verts
	removals []removal
	inserts  [][]insArc       // slot -> inserted arcs out of it
	edits    []graph.EdgeEdit // final state of every edge in R ∪ I
	nRem     int
	nIns     int
}

func (r *Reduction) key(u, v int) edgeKey {
	if !r.directed && u > v {
		u, v = v, u
	}
	return edgeKey{u, v}
}

// Reduce validates ops in order against base (add requires the edge
// absent, del/set require it present — each judged against the state
// left by the preceding ops — and add/set a positive finite weight) and
// diffs the final state against base into removals and insertions. A
// reweight is a removal of the old weight plus an insertion of the new
// one; ops that cancel out vanish.
func Reduce(base *graph.Graph, ops []Op) (*Reduction, error) {
	if base == nil {
		return nil, fmt.Errorf("delta: nil base graph")
	}
	n := base.NumVertices()
	r := &Reduction{
		base:     base,
		directed: base.Directed(),
		slot:     map[int]int{},
	}
	// Final edge state per touched key, carried op to op.
	type state struct {
		w       float64
		present bool
	}
	cur := map[edgeKey]state{}
	lookup := func(k edgeKey) state {
		if st, ok := cur[k]; ok {
			return st
		}
		w, has := base.HasEdge(k.u, k.v)
		return state{w: w, present: has}
	}
	for i, op := range ops {
		if op.U < 0 || op.U >= n || op.V < 0 || op.V >= n {
			return nil, fmt.Errorf("delta: op %d (%s): vertex out of range [0,%d)", i, op.String(), n)
		}
		if op.U == op.V {
			return nil, fmt.Errorf("delta: op %d (%s): self loop", i, op.String())
		}
		if (op.Kind == OpAdd || op.Kind == OpSet) && !validWeight(op.W) {
			return nil, fmt.Errorf("delta: op %d (%s): bad weight %v (want positive finite)", i, op.String(), op.W)
		}
		k := r.key(op.U, op.V)
		st := lookup(k)
		switch op.Kind {
		case OpAdd:
			if st.present {
				return nil, fmt.Errorf("delta: op %d (%s): edge exists (use set)", i, op.String())
			}
			cur[k] = state{w: op.W, present: true}
		case OpDel:
			if !st.present {
				return nil, fmt.Errorf("delta: op %d (%s): edge does not exist", i, op.String())
			}
			cur[k] = state{present: false}
		case OpSet:
			if !st.present {
				return nil, fmt.Errorf("delta: op %d (%s): edge does not exist (use add)", i, op.String())
			}
			cur[k] = state{w: op.W, present: true}
		default:
			return nil, fmt.Errorf("delta: op %d: unknown kind %d", i, op.Kind)
		}
	}
	// Deterministic order: maps must not leak iteration order into the
	// overlay (its hash, vertex numbering, and journal replay all
	// depend on determinism).
	keys := make([]edgeKey, 0, len(cur))
	for k := range cur {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].u != keys[j].u {
			return keys[i].u < keys[j].u
		}
		return keys[i].v < keys[j].v
	})
	type diffEdge struct {
		u, v int
		w    float64
	}
	var rem, ins []diffEdge
	seen := map[int]bool{}
	for _, k := range keys {
		st := cur[k]
		bw, bhas := base.HasEdge(k.u, k.v)
		if bhas == st.present && (!bhas || st.w == bw) {
			continue // the ops on this edge cancelled out
		}
		r.edits = append(r.edits, graph.EdgeEdit{U: k.u, V: k.v, W: st.w, Del: !st.present})
		seen[k.u], seen[k.v] = true, true
		if bhas {
			rem = append(rem, diffEdge{k.u, k.v, bw})
		}
		if st.present {
			ins = append(ins, diffEdge{k.u, k.v, st.w})
		}
	}
	for v := range seen {
		r.verts = append(r.verts, v)
	}
	sort.Ints(r.verts)
	for i, v := range r.verts {
		r.slot[v] = i
	}
	r.inserts = make([][]insArc, len(r.verts))
	for _, e := range rem {
		r.removals = append(r.removals, removal{x: r.slot[e.u], y: r.slot[e.v], w: e.w})
	}
	for _, e := range ins {
		su, sv := r.slot[e.u], r.slot[e.v]
		r.inserts[su] = append(r.inserts[su], insArc{to: sv, w: e.w})
		if !r.directed {
			r.inserts[sv] = append(r.inserts[sv], insArc{to: su, w: e.w})
		}
	}
	r.nRem, r.nIns = len(rem), len(ins)
	// Refuse a patch whose graph chl.Build would refuse, so /compact can
	// always rebuild. A base that passes still passes after inserts no
	// heavier and no finer than its own weights (removals only lower maxW
	// and the unit); anything else is checked on the patched graph itself.
	kept := base.CheckExact() == nil
	for _, e := range ins {
		kept = kept && e.w <= base.MaxWeight() && graph.UnitExp(e.w) <= base.WeightUnitExp()
	}
	if !kept {
		pg, err := r.Materialize()
		if err != nil {
			return nil, err
		}
		if err := pg.CheckExact(); err != nil {
			return nil, fmt.Errorf("delta: the patched graph could not be rebuilt: %w", err)
		}
	}
	return r, nil
}

// Verts returns the sorted patch vertex ids.
func (r *Reduction) Verts() []int { return r.verts }

// Empty reports whether the reduction changes nothing: every op
// cancelled out, so queries can stay on the frozen path.
func (r *Reduction) Empty() bool { return r.nRem == 0 && r.nIns == 0 }

// Materialize builds the patched graph G' = base − R + I. Only the rows
// of the patch vertices are rebuilt (graph.Splice); every other row is
// copied from base in bulk.
func (r *Reduction) Materialize() (*graph.Graph, error) {
	return r.base.Splice(r.edits)
}

// ApplyPatch applies a patch log to a graph and returns the patched
// graph — the reference mutation tests build on (compaction: Log.Patched).
func ApplyPatch(base *graph.Graph, ops []Op) (*graph.Graph, error) {
	red, err := Reduce(base, ops)
	if err != nil {
		return nil, err
	}
	return red.Materialize()
}

// Overlay is one immutable patch generation: a Reduction plus the
// tables the seeded correction needs — the patch vertices' frozen label
// runs transposed by hub (the seed tables), frozen inter-patch distances
// for the safety test, exact patched inter-patch distances (|P|
// build-time Dijkstras) for the correction graph's arcs. Build a new one
// per accepted batch; queries against an old one stay consistent with
// the snapshot it was built over.
//
// The seed tables are what keep a corrected query at one label scan per
// endpoint: hub h's postings in toP are (i, d(h, verts[i])), so one pass
// over L(u) lowers du[i] to min_h d(u,h)+d(h,verts[i]) for every patch
// vertex at once — the hub join of u against all of P — where joining
// pair by pair would walk L(u) |P| times. fromP is the same for d(verts[i],
// h), scanned by v's run. Each table costs 8 bytes per label of P's runs
// plus 4(n+1) for its offsets.
type Overlay struct {
	*Reduction
	ops     []Op
	epoch   uint64
	hash    uint64
	unitExp int             // the frozen runs count units of 2^-unitExp
	toP     *label.Inverted // backward runs of P by hub: L_out(u) scans it for d(u, verts[i])
	fromP   *label.Inverted // forward runs of P by hub: L_in(v) scans it for d(verts[i], v); toP itself when undirected
	dpq     [][]float64     // frozen d_G(verts[i], verts[j]) — safety test only
	dpqT    [][]float64     // dpq transposed, so the test reads columns as slices; dpq itself when undirected
	dpp     [][]float64     // exact patched d'(verts[i], verts[j]) — correction arcs

	patched *graph.Graph // base with the patch applied: fallback, rows, paths

	scratch sync.Pool              // *scratch, sized for this overlay's |P|
	paths   [numPaths]atomic.Int64 // queries answered, by path
}

// The ways a query through the overlay is answered; each Query takes
// exactly one.
const (
	pathFrozen    = iota // the bracket closed on a safe frozen distance: the label answer stands
	pathCorrected        // the bracket closed on a different value (or on unreachable)
	pathFallback         // the bracket stayed open: exact Dijkstra on the patched graph
	numPaths
)

// scratch is the working memory of one corrected query.
type scratch struct {
	du, dv       []float64 // seeds, |P| each
	duBad, dvBad []bool    // seeds failing the safety test
	d            []float64 // correction Dijkstra over |P|+2 nodes
	done         []bool
}

// NewOverlay builds the overlay for ops (already reduced to red) over
// the frozen labels of the patch vertices: fwd[i] and bwd[i] are the
// forward and backward packed label runs of red.Verts()[i], hubs in rank
// space and all below the base graph's vertex count, counting distances in
// units of 2^-unitExp — the unit every run later handed to Query and Seeds
// must count too. Undirected labels are symmetric, so bwd is not read when
// the base graph is undirected.
// epoch tags the patch generation for cache keying; ops is the full
// accumulated log (its LogHash becomes the overlay's identity
// contribution). Construction runs one Dijkstra per patch vertex on the
// materialized patched graph — the one-time cost that makes per-query
// corrections exact without any inter-patch safety caveat.
func NewOverlay(red *Reduction, ops []Op, epoch uint64, unitExp int, fwd, bwd [][]uint64) (*Overlay, error) {
	k := len(red.verts)
	if !red.directed {
		bwd = fwd
	}
	if len(fwd) != k || len(bwd) != k {
		return nil, fmt.Errorf("delta: %d patch vertices but %d forward / %d backward label runs", k, len(fwd), len(bwd))
	}
	o := &Overlay{Reduction: red, ops: ops, epoch: epoch, hash: LogHash(ops), unitExp: unitExp}
	o.scratch.New = func() any {
		return &scratch{
			du: make([]float64, k), dv: make([]float64, k),
			duBad: make([]bool, k), dvBad: make([]bool, k),
			d: make([]float64, k+2), done: make([]bool, k+2),
		}
	}
	n := red.base.NumVertices()
	o.toP = label.InvertRuns(n, bwd)
	o.fromP = o.toP
	if red.directed {
		o.fromP = label.InvertRuns(n, fwd)
	}
	// Row i of the frozen inter-patch table is the seed scan of verts[i]'s
	// own forward run: d(verts[i], verts[j]) for every j in one pass.
	o.dpq = make([][]float64, k)
	for i := range o.dpq {
		o.dpq[i] = make([]float64, k)
		for j := range o.dpq[i] {
			o.dpq[i][j] = graph.Infinity
		}
		o.toP.ScanMin(o.dpq[i], fwd[i])
		o.fromUnits(o.dpq[i])
		o.dpq[i][i] = 0
	}
	o.dpqT = o.dpq
	if red.directed {
		o.dpqT = make([][]float64, k)
		for j := range o.dpqT {
			o.dpqT[j] = make([]float64, k)
			for i := range o.dpq {
				o.dpqT[j][i] = o.dpq[i][j]
			}
		}
	}
	pg, err := red.Materialize()
	if err != nil {
		return nil, err
	}
	o.patched = pg
	o.dpp = make([][]float64, k)
	for i := 0; i < k; i++ {
		row := sssp.Dijkstra(pg, red.verts[i])
		o.dpp[i] = make([]float64, k)
		for j := 0; j < k; j++ {
			o.dpp[i][j] = row[red.verts[j]]
		}
	}
	return o, nil
}

// Serving returns the overlay queries go through: o itself, or nil when
// its log cancels out and so changes no answer.
func (o *Overlay) Serving() *Overlay {
	if o.Empty() {
		return nil
	}
	return o
}

// Epoch returns the patch generation this overlay was applied at.
func (o *Overlay) Epoch() uint64 { return o.epoch }

// Hash returns the 53-bit identity of the accumulated patch log.
func (o *Overlay) Hash() uint64 { return o.hash }

// Ops returns the accumulated patch log the overlay was built from.
func (o *Overlay) Ops() []Op { return o.ops }

// Stats describes the overlay's size, and which way the queries it has
// answered went, for /stats and logs. An overlay lives for one patch
// epoch, so the query counts start from zero at every accepted batch.
type Stats struct {
	Epoch    uint64 `json:"epoch"`
	Ops      int    `json:"ops"`
	Vertices int    `json:"patch_vertices"`
	Removals int    `json:"removed_edges"`
	Inserts  int    `json:"inserted_edges"`
	LogHash  uint64 `json:"log_hash"`
	// Queries by the path that answered them: the frozen label answer
	// certified intact, a corrected distance, or the exact Dijkstra
	// fallback (the expensive one).
	Frozen    int64 `json:"queries_frozen"`
	Corrected int64 `json:"queries_corrected"`
	Fallback  int64 `json:"queries_fallback"`
}

// Stat returns the overlay's shape and query counts.
func (o *Overlay) Stat() Stats {
	return Stats{
		Epoch:     o.epoch,
		Ops:       len(o.ops),
		Vertices:  len(o.verts),
		Removals:  o.nRem,
		Inserts:   o.nIns,
		LogHash:   o.hash,
		Frozen:    o.paths[pathFrozen].Load(),
		Corrected: o.paths[pathCorrected].Load(),
		Fallback:  o.paths[pathFallback].Load(),
	}
}

// Seeds computes the frozen seed vectors of one pair against the patch
// vertices: du[i] = d(u, verts[i]) from one scan of runU (u's forward
// run), dv[i] = d(verts[i], v) from one scan of runV (v's backward run;
// its only run when undirected). Both must have len(Verts()). A patch
// vertex that shares no hub with the endpoint — or an empty run, as a
// shard slice holds for vertices it does not own — leaves Infinity, and
// the diagonal is pinned to 0 whatever the labels hold. Every value is
// bit-identical to the pairwise hub join it replaces (see
// label.Inverted.ScanMin).
func (o *Overlay) Seeds(du, dv []float64, runU, runV []uint64, u, v int) {
	for i := range du {
		du[i] = graph.Infinity
	}
	for i := range dv {
		dv[i] = graph.Infinity
	}
	o.toP.ScanMin(du, runU)
	o.fromP.ScanMin(dv, runV)
	o.fromUnits(du)
	o.fromUnits(dv)
	if i, ok := o.slot[u]; ok {
		du[i] = 0
	}
	if i, ok := o.slot[v]; ok {
		dv[i] = 0
	}
}

// Query answers one pair on the patched graph from the endpoints' frozen
// packed label runs (runU: u's forward run; runV: v's backward run, its
// only run when undirected) — the one corrected-query path, shared by
// the engine (runs from its own index) and the router (runs fetched from
// shards). The frozen join supplies the trunk distance, one scan per
// endpoint the seeds, correct folds the patched edges in, and a pair
// correct cannot certify falls back to an exact Dijkstra on the patched
// graph. dist is graph.Infinity for unreachable pairs. frozen reports
// that the overlay proved the frozen answer still exact; only then is
// hub — the frozen join's witness, in rank space — known to lie on a
// patched shortest path (for u == v the witness is u itself, whatever
// hub holds).
func (o *Overlay) Query(runU, runV []uint64, u, v int) (dist float64, hub uint32, frozen bool) {
	d0, hub, _ := label.JoinPacked(runU, runV)
	d0 = label.FromUnits(d0, o.unitExp)
	if u == v {
		d0 = 0
	}
	s := o.scratch.Get().(*scratch)
	o.Seeds(s.du, s.dv, runU, runV, u, v)
	dist, frozen, exact := o.correct(s, d0)
	o.scratch.Put(s)
	switch {
	case !exact:
		dist, frozen = sssp.DijkstraTo(o.patched, u, v), false
		o.paths[pathFallback].Add(1)
	case frozen:
		o.paths[pathFrozen].Add(1)
	default:
		o.paths[pathCorrected].Add(1)
	}
	return dist, hub, frozen
}

// fromUnits converts a row of seed-table scans (label.Inverted.ScanMin
// answers in units) into distances, in place.
func (o *Overlay) fromUnits(row []float64) {
	if o.unitExp == 0 {
		return
	}
	for i, d := range row {
		row[i] = label.FromUnits(d, o.unitExp)
	}
}

// compromised reports whether the frozen value dab for a pair (a,b) may
// count a removed edge: some removal (x,y,w) with d(a,x)+w+d(y,b) <=
// dab means a G-shortest a→b path may thread it, so dab is not provably
// the G−R distance. dax[x] must hold the frozen d(a, verts[x]); dyb[y]
// the frozen d(verts[y], b). Unreachable pairs are always safe —
// removing edges cannot create paths.
func (o *Overlay) compromised(dab float64, dax, dyb []float64) bool {
	if dab >= graph.Infinity {
		return false
	}
	for _, rm := range o.removals {
		if dax[rm.x]+rm.w+dyb[rm.y] <= dab {
			return true
		}
		if !o.directed && dax[rm.y]+rm.w+dyb[rm.x] <= dab {
			return true
		}
	}
	return false
}

// correct computes the patched distance for one pair from its frozen
// seeds: d0 is the frozen pair distance, s.du[i] the frozen d(u,
// verts[i]), s.dv[i] the frozen d(verts[i], v) (all graph.Infinity when
// unreachable). It runs Dijkstra over the |P|+2-node correction graph:
// seed arcs u→p and p→v, the frozen u→v arc, and exact patched
// distances between patch vertices. A patched shortest path decomposes
// at its first and last patch-vertex visit — the prefix and suffix
// cross no patched edge (any patched edge would visit a patch vertex
// first), so safe frozen seeds cover them exactly, and the build-time
// dpp table covers the middle exactly.
//
// The exactness argument runs through a bracket. A frozen seed is
// always d_G ≤ d_{G−R}, so the correction Dijkstra over ALL frozen
// seeds is a lower bound L ≤ d'. A seed that passes the safety test
// equals d_{G−R} and is realizable in G', so the correction Dijkstra
// over only the SAFE seeds is an upper bound C ≥ d'. When L == C the
// answer is pinned exactly; only when a compromised seed actually moves
// the optimum (L < C) does the query fall back — so ubiquitous
// shortest-path ties in small integer-weighted graphs do not force
// everything onto the fallback path.
//
// exact=false means the bracket did not close and the caller must fall
// back to a Dijkstra on the materialized patched graph. When exact,
// frozen reports whether the corrected distance equals a safe d0 — the
// license to keep serving the frozen witness hub. s holds the seeds and
// supplies the working arrays.
func (o *Overlay) correct(s *scratch, d0 float64) (dist float64, frozen, exact bool) {
	du, dv := s.du, s.dv
	d0Bad := o.compromised(d0, du, dv)
	anyBad := d0Bad
	for j := range o.verts {
		s.duBad[j] = o.compromised(du[j], du, o.dpqT[j])
		s.dvBad[j] = o.compromised(dv[j], o.dpq[j], dv)
		anyBad = anyBad || s.duBad[j] || s.dvBad[j]
	}
	upper := o.correctionDijkstra(s, d0, d0Bad, s.duBad, s.dvBad)
	lower := upper
	if anyBad {
		lower = o.correctionDijkstra(s, d0, false, nil, nil)
	}
	if lower != upper {
		return 0, false, false
	}
	return upper, upper < graph.Infinity && !d0Bad && upper == d0, true
}

// correctionDijkstra runs the dense Dijkstra over nodes {0:u, 1..k:
// patch verts, k+1: v}; skip flags drop the corresponding frozen seed
// arc (nil = keep all).
func (o *Overlay) correctionDijkstra(s *scratch, d0 float64, skipD0 bool, skipU, skipV []bool) float64 {
	const inf = graph.Infinity
	k := len(o.verts)
	t := k + 1
	du, dv, d, done := s.du, s.dv, s.d, s.done
	for i := range d {
		d[i], done[i] = inf, false
	}
	d[0] = 0
	for {
		at, best := -1, inf
		for i, dd := range d {
			if !done[i] && dd < best {
				at, best = i, dd
			}
		}
		if at < 0 || at == t {
			break
		}
		done[at] = true
		if at == 0 {
			for j := 0; j < k; j++ {
				if w := du[j]; w < inf && best+w < d[j+1] && (skipU == nil || !skipU[j]) {
					d[j+1] = best + w
				}
			}
			if !skipD0 && d0 < inf && best+d0 < d[t] {
				d[t] = best + d0
			}
			continue
		}
		i := at - 1
		for j, w := range o.dpp[i] {
			if w < inf && best+w < d[j+1] {
				d[j+1] = best + w
			}
		}
		if w := dv[i]; w < inf && best+w < d[t] && (skipV == nil || !skipV[i]) {
			d[t] = best + w
		}
	}
	return d[t]
}

// Patched returns the patched graph NewOverlay materialized, shared by
// every fallback path of this overlay.
func (o *Overlay) Patched() *graph.Graph { return o.patched }

// Row returns the full single-source distance row from u on the patched
// graph — the source of /knn and /matrix rows under an overlay.
func (o *Overlay) Row(u int) []float64 { return sssp.Dijkstra(o.patched, u) }

// ShortestPath returns an exact shortest u→v vertex walk on the patched
// graph (nil when unreachable) and its length — the /paths workload
// under an overlay, where witness-hub expansion is unavailable.
func (o *Overlay) ShortestPath(u, v int) ([]int, float64) {
	dist, pred := sssp.ShortestPathTree(o.patched, u)
	if dist[v] >= graph.Infinity {
		return nil, graph.Infinity
	}
	var path []int
	for at := v; ; at = pred[at] {
		path = append(path, at)
		if at == u {
			break
		}
	}
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return path, dist[v]
}

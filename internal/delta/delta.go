// Package delta layers a mutable edge-patch overlay over a frozen hub
// labeling. The frozen index answers exact distances for the graph it
// was built from; the overlay tracks edges inserted, deleted, or
// reweighted since, and corrects those answers so every one is exact for
// the *patched* graph — without rebuilding labels. The overlay never
// reads a label: each serving tier runs its own frozen join and hands
// the overlay the distance it found (Overlay.Query).
//
// The scheme: a patch log of edge operations reduces (against the base
// graph G) to a set R of removed edges and a set I of inserted edges; the
// patch vertices P are the endpoints of R ∪ I. A shortest path in the
// patched graph G′ = G − R + I either touches P — then it is at most
// min over p in P of d′(u,p) + d′(p,v), read off exact G′ rows of every
// patch vertex the overlay keeps — or uses only unchanged edges, and then
// it is no shorter than the frozen label distance d(u,v). When no
// G-shortest u→v path threads a removed edge (the safety test, on base
// rows of the removal endpoints), d(u,v) survives into G′ and the smaller
// of the two is exact. When safety fails and the patched rows do not beat
// the frozen distance, the overlay falls back to an exact Dijkstra on the
// patched graph. See Overlay.Query for the argument.
package delta

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"

	"repro/internal/graph"
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

// removal is one edge of R by the positions of its endpoints in
// Reduction.ends.
type removal struct {
	x, y int
	w    float64
}

// Reduction is the patch log reduced against a base graph: the final
// edge state of every touched key, the removed edges and the count of
// inserted ones (inserted arcs reach queries only through the Overlay's
// rows on the patched graph), the patch-vertex universe and the patched
// graph itself. Building the Overlay on top runs the Dijkstras.
type Reduction struct {
	base     *graph.Graph
	directed bool
	verts    []int // sorted patch vertex ids (endpoints of R ∪ I)
	ends     []int // sorted distinct endpoints of R
	removals []removal
	patched  *graph.Graph // base − R + I
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
	var rem []diffEdge
	var edits []graph.EdgeEdit // the final state of every edge in R ∪ I
	seen := map[int]bool{}
	for _, k := range keys {
		st := cur[k]
		bw, bhas := base.HasEdge(k.u, k.v)
		if bhas == st.present && (!bhas || st.w == bw) {
			continue // the ops on this edge cancelled out
		}
		edits = append(edits, graph.EdgeEdit{U: k.u, V: k.v, W: st.w, Del: !st.present})
		seen[k.u], seen[k.v] = true, true
		if bhas {
			rem = append(rem, diffEdge{k.u, k.v, bw})
		}
		if st.present {
			r.nIns++
		}
	}
	r.verts = sortedKeys(seen)
	end := map[int]int{}
	for _, e := range rem {
		end[e.u], end[e.v] = 0, 0
	}
	r.ends = sortedKeys(end)
	for i, v := range r.ends {
		end[v] = i
	}
	for _, e := range rem {
		r.removals = append(r.removals, removal{x: end[e.u], y: end[e.v], w: e.w})
	}
	r.nRem = len(rem)
	// Refuse a patch whose graph chl.Build would refuse, so /compact can
	// always rebuild: Splice refuses what graph.Finish refuses.
	var err error
	if r.patched, err = base.Splice(edits); err != nil {
		return nil, fmt.Errorf("delta: the patched graph could not be rebuilt: %w", err)
	}
	return r, nil
}

// sortedKeys returns the keys of m in ascending order.
func sortedKeys[V any](m map[int]V) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

// Verts returns the sorted patch vertex ids.
func (r *Reduction) Verts() []int { return r.verts }

// Empty reports whether the reduction changes nothing: every op
// cancelled out, so queries can stay on the frozen path.
func (r *Reduction) Empty() bool { return r.nRem == 0 && r.nIns == 0 }

// Materialize returns the patched graph G' = base − R + I, which Reduce
// spliced: only the rows of the patch vertices are rebuilt (graph.Splice);
// every other row is copied from base in bulk.
func (r *Reduction) Materialize() *graph.Graph { return r.patched }

// ApplyPatch applies a patch log to a graph and returns the patched
// graph — the reference mutation tests build on (compaction: Log.Patched).
func ApplyPatch(base *graph.Graph, ops []Op) (*graph.Graph, error) {
	red, err := Reduce(base, ops)
	if err != nil {
		return nil, err
	}
	return red.Materialize(), nil
}

// Overlay is one immutable patch generation: a Reduction plus the exact
// distance rows a corrected query reads. NewOverlay runs one Dijkstra per
// patch vertex on the patched graph G′ and one per removal endpoint on
// the base graph G (and each again on the reverse graph when directed),
// and keeps every row whole, stored vertex-major: vertex x's distances to
// all |P| patch vertices sit contiguously, so a query reads two short
// vectors, not n-entry rows. Build a new one per accepted batch; queries
// against an old one stay consistent with the snapshot it was built over.
// Memory: (|P| + removal endpoints)·n·8 bytes, doubled when directed.
type Overlay struct {
	*Reduction
	ops   []Op
	epoch uint64
	hash  uint64

	// Vertex-major rows: with k sources, entry x·k+i is x's distance to or
	// from source i. The from-table is the to-table itself when undirected.
	toP, fromP []float64 // d′(x, verts[i]), d′(verts[i], x) on G′
	toE, fromE []float64 // d(x, ends[j]), d(ends[j], x) on G: the safety test

	paths [numPaths]atomic.Int64 // queries answered, by path
}

// The ways a query through the overlay is answered; each Query takes
// exactly one.
const (
	pathFrozen    = iota // the frozen join is safe and no patch vertex beats it: the label answer stands
	pathCorrected        // answered from the patched rows (or unreachable)
	pathFallback         // neither proved exact: exact Dijkstra on the patched graph
	numPaths
)

// NewOverlay builds the overlay for ops (already reduced to red): ops is
// the full accumulated log (its LogHash becomes the overlay's identity
// contribution) and epoch tags the patch generation for cache keying.
// Its cost is the Dijkstras that fill the rows, paid once per batch so
// that no query repeats them.
func NewOverlay(red *Reduction, ops []Op, epoch uint64) *Overlay {
	o := &Overlay{Reduction: red, ops: ops, epoch: epoch, hash: LogHash(ops)}
	o.toP, o.fromP = rows(red.patched, red.verts)
	o.toE, o.fromE = rows(red.base, red.ends)
	return o
}

// rows runs one Dijkstra from every source over g, and on a directed g
// one over its transpose too, and lays the distances out vertex-major:
// to[x·k+i] = d(x, srcs[i]), from[x·k+i] = d(srcs[i], x).
func rows(g *graph.Graph, srcs []int) (to, from []float64) {
	from = vertexMajor(g, srcs)
	if !g.Directed() {
		return from, from
	}
	return vertexMajor(g.Transpose(), srcs), from
}

func vertexMajor(g *graph.Graph, srcs []int) []float64 {
	k := len(srcs)
	out := make([]float64, g.NumVertices()*k)
	for i, s := range srcs {
		for x, d := range sssp.Dijkstra(g, s) {
			out[x*k+i] = d
		}
	}
	return out
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

// Query corrects d0 = d(u,v), the frozen label answer on the base graph,
// into the distance on the patched graph — the one correction path,
// shared by the engine and the router, each of which joins its own frozen
// labels first. With A = minᵢ d′(u,pᵢ) + d′(pᵢ,v) read off the rows:
//
//   - safe (no G-shortest u→v path threads a removed edge): min(A, d0);
//   - unsafe and A ≤ d0: A;
//   - otherwise an exact Dijkstra on the patched graph.
//
// Each term of A is a G′ walk, so A ≥ d′, with equality when a shortest
// G′ path touches P; a G′ path that touches no patch vertex uses only
// unchanged edges, so it is at least d0. Hence d′ ≥ min(A, d0). Safe means
// a G-shortest path survives into G′, so d′ ≤ d0, and unsafe with A ≤ d0
// gives d′ ≤ A ≤ min(A, d0): both closed forms are exact.
//
// dist is graph.Infinity for unreachable pairs. frozen reports that the
// frozen answer stands (safe, d0 ≤ A, d0 finite); only then does the
// frozen join's witness hub lie on a patched shortest path.
func (o *Overlay) Query(d0 float64, u, v int) (dist float64, frozen bool) {
	if u == v {
		d0 = 0
	}
	k := len(o.verts)
	a, uP, pV := graph.Infinity, o.toP[u*k:u*k+k], o.fromP[v*k:v*k+k]
	for i, du := range uP {
		if d := du + pV[i]; d < a {
			a = d
		}
	}
	path := pathCorrected
	switch {
	case !o.compromised(u, v, d0):
		dist, frozen = min(a, d0), d0 <= a && d0 < graph.Infinity
	case a <= d0:
		dist = a
	default:
		dist, path = sssp.DijkstraTo(o.patched, u, v), pathFallback
	}
	if frozen {
		path = pathFrozen
	}
	o.paths[path].Add(1)
	return dist, frozen
}

// compromised reports whether a G-shortest u→v path may thread a removed
// edge: some removal (x,y,w) has d(u,x) + w + d(y,v) ≤ d0 (either
// orientation when undirected), read off the base-graph rows. An
// unreachable pair never is — removing edges creates no path.
func (o *Overlay) compromised(u, v int, d0 float64) bool {
	if d0 >= graph.Infinity {
		return false
	}
	m := len(o.ends)
	ux, yv := o.toE[u*m:u*m+m], o.fromE[v*m:v*m+m]
	for _, rm := range o.removals {
		if ux[rm.x]+rm.w+yv[rm.y] <= d0 || !o.directed && ux[rm.y]+rm.w+yv[rm.x] <= d0 {
			return true
		}
	}
	return false
}

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

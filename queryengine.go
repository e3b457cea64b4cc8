package chl

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/delta"
	"repro/internal/label"
)

// FlatIndex is a frozen, serving-oriented view of an Index: all labels
// packed into contiguous arrays (hub-sorted per vertex, hub uint32 + dist
// uint32, a count of the index's unit 2^-k) plus the rank permutation, so
// queries on original vertex ids run as straight-line joins over
// sequential memory. A FlatIndex is immutable, safe for concurrent
// readers, and is the unit the serving files (Save/LoadFlat/OpenFlat)
// persist — build once with Build, freeze, save, then serve many times
// without rebuilding.
//
// A frozen directed index carries both label halves: forward runs (hubs
// reachable from v) and backward runs (hubs that reach v). A directed
// query u→v hub-joins forward(u) with backward(v); Query(u, v) and
// Query(v, u) are then different questions with independently exact
// answers.
//
// Distances are exact. The unit is the graph's own 2^-k — 1 on every
// integer-weighted graph — and Build refuses a label past 2^32 units rather
// than round it; answers leave the index as units · 2^-k, which is exact
// too.
type FlatIndex struct {
	// fwd and bwd hold the label runs in ORIGINAL-id order (freezing
	// applies the permutation once), so the serving path needs no
	// per-query rank translation; hub ids inside the entries stay in rank
	// space, which is all the joins compare. A query u→v joins fwd's run
	// of u with bwd's run of v. Directedness is "two stores": bwd == fwd
	// for an undirected index. Storage format is "which implementation":
	// both are fixed-width (*label.FlatIndex) or both compressed
	// (*label.CompressedIndex), and nothing outside
	// Freeze/Compress/Decompress asks which.
	fwd, bwd label.Store
	perm     []int // rank -> original id, for reporting witness hubs

	// file is the mapped container the arrays alias, set by
	// LoadFlatMapped and released by Close; nil for heap-backed indexes.
	file *label.Container

	// inv memoizes the label-inverted index (hub → carrying vertices,
	// distance-sorted) that the /knn workload joins against. It is
	// derived from the target-side (backward) store on first use —
	// never serialized, so the pinned file bytes are untouched — and
	// inverting a per-shard slice automatically yields the shard's
	// slice of it (empty runs invert to no postings).
	invOnce sync.Once
	inv     *label.Inverted

	// scratch recycles this index's hash-join probe buffers between
	// single-pair queries and /batch, /matrix and /shardscan requests;
	// groups recycles /batch's by-source chains (*sourceGroups).
	scratch label.ScratchPool
	groups  sync.Pool
}

// newFlatIndex assembles an index from its label halves; bwd is nil for
// an undirected index, whose one store serves both sides of the join.
func newFlatIndex(fwd, bwd label.Store, perm []int) *FlatIndex {
	if bwd == nil {
		bwd = fwd
	}
	return &FlatIndex{fwd: fwd, bwd: bwd, perm: perm}
}

// inverted returns the index's label-inverted half, building it on
// first use (concurrency-safe; subsequent calls are a pointer read).
func (fx *FlatIndex) inverted() *label.Inverted {
	fx.invOnce.Do(func() { fx.inv = label.Invert(fx.bwd) })
	return fx.inv
}

// Directed reports whether the index holds directed (forward + backward)
// label runs.
func (fx *FlatIndex) Directed() bool { return fx.bwd != fx.fwd }

// unitExp returns k: the index counts distances in units of 2^-k.
func (fx *FlatIndex) unitExp() int { return fx.fwd.UnitExp() }

// Compressed reports whether the index stores its labels as compressed
// varint streams rather than fixed-width packed entries.
func (fx *FlatIndex) Compressed() bool { return label.IsCompressed(fx.fwd) }

// Compress returns a compressed copy of the index: the same labels,
// permutation and directedness, with each vertex's run re-encoded as one
// delta+varint stream (label.Compress). Saving the result writes a
// compressed-encoding file; the original index is untouched. An index
// that is already compressed is returned as it is, not copied.
func (fx *FlatIndex) Compress() (*FlatIndex, error) {
	f, ok := fx.fwd.(*label.FlatIndex)
	if !ok {
		return fx, nil
	}
	cf, err := label.Compress(f)
	if err != nil {
		return nil, err
	}
	out := newFlatIndex(cf, nil, append([]int(nil), fx.perm...))
	if fx.Directed() {
		if out.bwd, err = label.Compress(fx.bwd.(*label.FlatIndex)); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Decompress returns a fixed-width copy of a compressed index (the
// inverse of Compress, with identical labels); on a fixed-width index it
// returns the index itself.
func (fx *FlatIndex) Decompress() *FlatIndex {
	c, ok := fx.fwd.(*label.CompressedIndex)
	if !ok {
		return fx
	}
	out := newFlatIndex(c.Decompress(), nil, append([]int(nil), fx.perm...))
	if fx.Directed() {
		out.bwd = fx.bwd.(*label.CompressedIndex).Decompress()
	}
	return out
}

// Mapped reports whether the index serves zero-copy from a memory-mapped
// file (LoadFlatMapped / OpenFlat) rather than from heap arrays.
func (fx *FlatIndex) Mapped() bool { return fx.file != nil }

// Prefault touches every page of a mapped index's label arrays so the
// kernel faults the file in before the first query, returning the number
// of pages walked (0 for heap-backed indexes, which are always resident).
// Server.SetPrefault runs this on reloads before the hot swap.
func (fx *FlatIndex) Prefault() int {
	if fx.file == nil {
		return 0
	}
	return fx.file.Prefault()
}

// Close releases the file mapping of a mapped index; the index must not
// be queried afterwards. On heap-backed indexes Close is a no-op. It is
// idempotent but not concurrency-safe against in-flight queries — the
// snapshot layer (Server) ref-counts to close only after the last query
// drains.
func (fx *FlatIndex) Close() error {
	if fx.file == nil {
		return nil
	}
	return fx.file.Close()
}

// Freeze packs the index into its flat serving form. A directed index
// freezes both label halves (forward and backward runs per vertex) at one
// unit; the resulting FlatIndex answers the same ordered queries the
// in-memory index does. It does not fail on an Index Build returned: Build
// refuses a label it could not count in a uint32.
func (ix *Index) Freeze() (*FlatIndex, error) {
	halves := []*label.Index{ix.fwd, ix.bwd}
	if !ix.Directed() {
		halves = halves[:1]
	}
	// Each ranked labeling is packed in original-id order.
	for i, ranked := range halves {
		halves[i] = label.NewIndex(ix.n, ranked.UnitExp())
		for v := 0; v < ix.n; v++ {
			halves[i].SetLabels(v, ranked.Labels(ix.rank[v])) // aliases, read-only
		}
	}
	fs := label.FreezeHalves(halves...)
	return newFlatIndex(fs[0], fs[len(fs)-1], append([]int(nil), ix.perm...)), nil
}

// FreezeCompressed is Freeze followed by Compress: the index packed
// straight into compressed label streams, ready to save or serve through
// the streaming merge kernel.
func (ix *Index) FreezeCompressed() (*FlatIndex, error) {
	fx, err := ix.Freeze()
	if err != nil {
		return nil, err
	}
	return fx.Compress()
}

// NumVertices returns the number of vertices the index covers.
func (fx *FlatIndex) NumVertices() int { return len(fx.perm) }

// TotalLabels returns the packed label count (both halves for directed
// indexes).
func (fx *FlatIndex) TotalLabels() int64 {
	t := fx.fwd.NumLabels()
	if fx.Directed() {
		t += fx.bwd.NumLabels()
	}
	return t
}

// TotalMemory returns the byte footprint of the label arrays (8 bytes per
// label + 4 per vertex for the fixed-width format; the stream bytes plus
// 4 per vertex for a compressed index).
func (fx *FlatIndex) TotalMemory() int64 {
	t := fx.fwd.TotalMemory()
	if fx.Directed() {
		t += fx.bwd.TotalMemory()
	}
	return t
}

// Query returns the exact shortest-path distance between original vertex
// ids u and v (the u→v distance on directed indexes), or Infinity if
// unreachable.
func (fx *FlatIndex) Query(u, v int) float64 {
	d, _, _ := fx.join(u, v)
	return d
}

// QueryHub additionally reports the witness hub (as an original id).
func (fx *FlatIndex) QueryHub(u, v int) (dist float64, hub int, ok bool) {
	dist, h, ok := fx.join(u, v)
	if !ok {
		return dist, 0, false
	}
	return dist, fx.perm[h], true
}

// join is every single pair's frozen join: label.Join on a table from the
// index's pool, the same kernel /batch runs, and which kernel that is —
// the hash join, or the merge join past label's size bound or on a
// compressed store (a nil table) — is label's decision alone
// (ScratchPool.GetJoinFor).
func (fx *FlatIndex) join(u, v int) (dist float64, hub uint32, ok bool) {
	s := fx.scratch.GetJoinFor(fx.fwd)
	dist, hub, ok = label.Join(s, fx.fwd, fx.bwd, u, v)
	fx.scratch.Put(s) // not deferred: only a clean scratch goes back
	return dist, hub, ok
}

// BatchEngine serves point-to-point shortest-distance queries from a
// FlatIndex at hardware speed: Batch fans the pairs out over a
// runtime.GOMAXPROCS-sized worker pool, each worker answering its
// contiguous slice of the batch from pooled scratch (batchGrouped) with
// zero allocation on the hot path.
type BatchEngine struct {
	fx      *FlatIndex
	workers int
	cache   *Cache         // nil: uncached (the default)
	ov      *delta.Overlay // nil: frozen index only (the default)
}

// NewBatchEngineFlat wraps an already-frozen (for instance, freshly
// loaded) flat index.
func NewBatchEngineFlat(fx *FlatIndex) *BatchEngine {
	return &BatchEngine{fx: fx, workers: runtime.GOMAXPROCS(0)}
}

// Index returns the engine's underlying flat index.
func (e *BatchEngine) Index() *FlatIndex { return e.fx }

// SetCache attaches a point-to-point answer cache to the engine (nil
// detaches). It fronts the single-pair reads (Query, QueryHub, KNN's
// deposits): a hit serves a repeated pair without touching the label
// arrays, a miss runs the frozen join and fills the cache with the full
// answer (distance + witness hub). Batch and BatchInto neither read nor
// fill it. The cache must only ever hold answers from this engine's
// index — on an index swap,
// start a fresh cache (Server does this per snapshot) — and its key
// ordering must match the index's directedness (NewDirectedCache for
// directed indexes): an unordered cache would silently serve d(v→u) for
// d(u→v), so a mismatch panics rather than corrupting answers.
func (e *BatchEngine) SetCache(c *Cache) {
	if c != nil && c.directed != e.fx.Directed() {
		panic("chl: cache key ordering does not match the engine's directedness (use NewDirectedCache for directed indexes)")
	}
	e.cache = c
}

// newCacheFor builds the answer cache matching fx's directedness — the
// constructor every serving tier funnels through so a directed index can
// never be fronted by an unordered cache.
func newCacheFor(fx *FlatIndex, capacity int) *Cache {
	return newCache(capacity, fx.Directed())
}

// Cache returns the engine's attached cache, or nil.
func (e *BatchEngine) Cache() *Cache { return e.cache }

// SetOverlay attaches the delta overlay a delta.Log serves (nil
// detaches). With an overlay attached, every query runs the kernel it
// runs without one and the overlay corrects its answer (queryPatched,
// delta.Overlay.Query). An attached cache must be scoped to
// exactly one (index, overlay) pair — Server and Router start a fresh
// cache on every patch batch, which is what keeps pre-patch answers
// from outliving the graph they were true of.
func (e *BatchEngine) SetOverlay(ov *delta.Overlay) { e.ov = ov }

// Overlay returns the engine's attached delta overlay, or nil.
func (e *BatchEngine) Overlay() *delta.Overlay { return e.ov }

// Query answers one query (original ids), through the cache when one is
// attached.
func (e *BatchEngine) Query(u, v int) float64 {
	if e.cache == nil && e.ov == nil {
		return e.fx.Query(u, v)
	}
	d, _, _ := e.QueryHub(u, v)
	return d
}

// QueryHub answers one query with its witness hub, through the cache
// when one is attached.
func (e *BatchEngine) QueryHub(u, v int) (dist float64, hub int, ok bool) {
	if e.cache != nil {
		if a, hit := e.cache.Get(u, v); hit {
			return a.Dist, a.Hub, a.Reachable
		}
	}
	dist, hub, ok = e.fx.QueryHub(u, v)
	if e.ov != nil {
		dist, hub, ok = queryPatched(e.ov, u, v, dist, hub)
	}
	if e.cache != nil {
		e.cache.Put(u, v, Answer{Dist: dist, Hub: hub, Reachable: ok})
	}
	return dist, hub, ok
}

// queryPatched corrects one pair's frozen answer under overlay ov on
// either tier: d0 and hub are the tier's own frozen join of u→v (hub an
// original id), which the overlay corrects and, where it must, replaces
// with an exact Dijkstra (delta.Overlay.Query). The witness hub survives
// only when the overlay proves the frozen answer still exact, and for
// u == v it is u itself; otherwise the hub is -1, since no hub in the
// frozen labels is guaranteed to lie on a patched shortest path.
func queryPatched(ov *delta.Overlay, u, v int, d0 float64, hub int) (float64, int, bool) {
	dist, frozen := ov.Query(d0, u, v)
	switch {
	case dist >= Infinity:
		return Infinity, 0, false
	case !frozen:
		return dist, -1, true
	case u == v:
		return dist, u, true
	}
	return dist, hub, true
}

// Batch answers every pair and returns the distances in order.
func (e *BatchEngine) Batch(pairs []QueryPair) []float64 {
	dst := make([]float64, len(pairs))
	e.BatchInto(dst, pairs)
	return dst
}

// BatchInto answers every pair into dst (len(dst) must equal len(pairs)),
// reusing the caller's buffer so a serving loop allocates nothing.
func (e *BatchEngine) BatchInto(dst []float64, pairs []QueryPair) {
	if len(dst) != len(pairs) {
		panic(fmt.Sprintf("chl: BatchInto dst length %d != pairs length %d", len(dst), len(pairs)))
	}
	workers := e.workers
	if workers > len(pairs) {
		workers = len(pairs)
	}
	if workers <= 1 {
		e.serveRange(dst, pairs, 0, len(pairs))
		return
	}
	chunk := (len(pairs) + workers - 1) / workers
	var wg sync.WaitGroup
	for t := 0; t < workers; t++ {
		lo, hi := t*chunk, (t+1)*chunk
		if hi > len(pairs) {
			hi = len(pairs)
		}
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			e.serveRange(dst, pairs, lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// serveRange answers one worker's contiguous slice of a batch:
// batchGrouped on the frozen index, then the overlay's correction of the
// slice. The cache is not consulted.
func (e *BatchEngine) serveRange(dst []float64, pairs []QueryPair, lo, hi int) {
	e.fx.batchGrouped(dst[lo:hi], pairs[lo:hi])
	e.ov.Correct(hi-lo, func(i int) (int, int, *float64) { return pairs[lo+i].U, pairs[lo+i].V, &dst[lo+i] })
}

// sourceGroups chains one worker's share of a batch by source. first[u]
// is the position of u's first pair, -1 at rest (serving resets every
// entry linking set); next[i] is the position of the next pair with pair
// i's source, -1 after the last. targets and row carry one source's group
// through matrixRowInto; run holds a compressed source's decoded run.
type sourceGroups struct {
	first, next []int32
	targets     []int
	row         []float64
	run         []uint64
}

// link chains pairs by source in one backward pass, so every chain runs in
// batch order.
func (g *sourceGroups) link(pairs []QueryPair) {
	if cap(g.next) < len(pairs) {
		g.next = make([]int32, len(pairs))
	}
	g.next = g.next[:len(pairs)]
	for i := len(pairs) - 1; i >= 0; i-- {
		u := pairs[i].U
		g.next[i] = g.first[u]
		g.first[u] = int32(i)
	}
}

// batchGrouped answers pairs into dst on the frozen index, scattering each
// repeated source once: a source with two or more pairs is one /matrix
// row (matrixRowInto) over its targets, and a singleton takes the pairwise
// kernel (label.Join), whose two-sided truncation a one-sided probe lacks.
// The answers are bit-identical either way. The chains and scratches come
// from the index's pools and go back on the normal return path only, so a
// panic mid-kernel drops them instead of recycling stale state.
func (fx *FlatIndex) batchGrouped(dst []float64, pairs []QueryPair) {
	g, _ := fx.groups.Get().(*sourceGroups)
	if g == nil {
		g = &sourceGroups{first: make([]int32, fx.NumVertices())}
		for u := range g.first {
			g.first[u] = -1
		}
	}
	g.link(pairs)
	js := fx.scratch.GetJoinFor(fx.fwd) // the singletons' kernel; nil merge-joins
	gs := js                            // the groups' scatter buffer, taken on first need
	for i, p := range pairs {
		if g.first[p.U] != int32(i) {
			continue // answered with its source's first pair
		}
		g.first[p.U] = -1
		if g.next[i] < 0 {
			dst[i], _, _ = label.Join(js, fx.fwd, fx.bwd, p.U, p.V)
			continue
		}
		if gs == nil {
			gs = fx.scratch.Get(fx.NumVertices())
		}
		g.targets = g.targets[:0]
		for j := int32(i); j >= 0; j = g.next[j] {
			g.targets = append(g.targets, pairs[j].V)
		}
		if cap(g.row) < len(g.targets) {
			g.row = make([]float64, len(g.targets))
		}
		row := g.row[:len(g.targets)]
		fx.matrixRowInto(gs, row, fx.fwd.RunInto(&g.run, p.U), g.targets)
		k := 0
		for j := int32(i); j >= 0; j = g.next[j] {
			dst[j] = row[k]
			k++
		}
	}
	fx.scratch.Put(js)
	if gs != js {
		fx.scratch.Put(gs)
	}
	fx.groups.Put(g)
}

// QueryPair is one batch query in original-id space.
type QueryPair struct {
	U, V int
}

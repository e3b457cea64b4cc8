package chl

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/delta"
	"repro/internal/label"
	"repro/internal/query"
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
// Distances are exact. The unit is the coarsest power of two that counts
// every label distance — 1 on every integer-weighted graph — and Freeze
// refuses a label past 2^32 units rather than round it; answers leave the
// index as units · 2^-k, which is exact too.
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
	// /batch, /matrix and /shardscan requests; groups recycles /batch's
	// by-source chains (*sourceGroups).
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

// patchRuns is the server's delta.Runs: the label runs of verts an
// overlay builds its seed tables from (at the index's unitExp), in the
// fixed-width layout whichever format stores them — forward runs and, on
// a directed index, backward runs too (nil otherwise: undirected labels
// are symmetric). It never fails.
func (fx *FlatIndex) patchRuns(verts []int) (fwd, bwd [][]uint64, err error) {
	fwd = make([][]uint64, len(verts))
	for i, p := range verts {
		fwd[i] = fx.fwd.RunInto(nil, p)
	}
	if fx.Directed() {
		bwd = make([][]uint64, len(verts))
		for i, p := range verts {
			bwd[i] = fx.bwd.RunInto(nil, p)
		}
	}
	return fwd, bwd, nil
}

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
// in-memory index does. It refuses, naming the label, a distance that is
// not a whole number of units below 2^32 (label.FreezeHalves).
func (ix *Index) Freeze() (*FlatIndex, error) {
	halves := []*label.Index{ix.fwd, ix.bwd}
	if !ix.Directed() {
		halves = halves[:1]
	}
	// Each ranked labeling is packed in original-id order.
	for i, ranked := range halves {
		halves[i] = label.NewIndex(ix.n)
		for v := 0; v < ix.n; v++ {
			halves[i].SetLabels(v, ranked.Labels(ix.rank[v])) // aliases, read-only
		}
	}
	fs, err := label.FreezeHalves(halves...)
	if err != nil {
		return nil, fmt.Errorf("chl: freezing: %w", err)
	}
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
func (fx *FlatIndex) Query(u, v int) float64 { return fx.QueryWith(nil, u, v) }

// QueryHub additionally reports the witness hub (as an original id).
func (fx *FlatIndex) QueryHub(u, v int) (dist float64, hub int, ok bool) {
	return fx.QueryHubWith(nil, u, v)
}

// QueryScratch is a per-worker probe buffer for FlatIndex.QueryWith /
// BatchEngine: 8 bytes per vertex, owned by one goroutine, and clean
// again whenever a query returns.
type QueryScratch = label.QueryScratch

// NewScratch allocates a probe buffer sized for this index.
func (fx *FlatIndex) NewScratch() *QueryScratch {
	return label.NewQueryScratch(fx.NumVertices())
}

// QueryWith is Query through a hash join over the caller's scratch buffer
// instead of a merge join — the fast path for serving loops (label.Join
// picks the kernel; BenchmarkFlatQuery vs BenchmarkFlatQueryMerge, 1.95×
// on a 32768-vertex scale-free graph). A nil scratch, or a
// compressed index (whose streams decode as they merge-join),
// answers exactly as Query does.
func (fx *FlatIndex) QueryWith(s *QueryScratch, u, v int) float64 {
	d, _, _ := label.Join(s, fx.fwd, fx.bwd, u, v)
	return d
}

// QueryHubWith is QueryWith plus the witness hub (as an original id) —
// the kernel cached engines use to fill cache entries at hash-join
// speed.
func (fx *FlatIndex) QueryHubWith(s *QueryScratch, u, v int) (dist float64, hub int, ok bool) {
	dist, h, ok := label.Join(s, fx.fwd, fx.bwd, u, v)
	if !ok {
		return dist, 0, false
	}
	return dist, fx.perm[h], true
}

// Thaw unpacks the flat store back into a queryable Index (labels only —
// build metrics and per-node partitions are not part of the flat format).
// Either storage format thaws to the same Index.
func (fx *FlatIndex) Thaw() *Index {
	n := fx.NumVertices()
	rank := make([]int, n)
	for pos, v := range fx.perm {
		rank[v] = pos
	}
	// thaw unpacks one store into rank order.
	thaw := func(st label.Store) *label.Index {
		ranked := label.NewIndex(n)
		for v := 0; v < n; v++ {
			ranked.SetLabels(rank[v], st.Labels(v))
		}
		return ranked
	}
	ix := &Index{n: n, fwd: thaw(fx.fwd), perm: append([]int(nil), fx.perm...), rank: rank}
	ix.bwd = ix.fwd
	if fx.Directed() {
		ix.bwd = thaw(fx.bwd)
	}
	return ix
}

// BatchEngine serves point-to-point shortest-distance queries from a
// FlatIndex at hardware speed: Batch fans the pairs out over a
// runtime.GOMAXPROCS-sized worker pool, each worker merge-joining its
// contiguous slice of the batch with zero allocation on the hot path.
type BatchEngine struct {
	fx      *FlatIndex
	workers int
	cache   *Cache         // nil: uncached (the default)
	ov      *delta.Overlay // nil: frozen index only (the default)
}

// NewBatchEngine freezes ix (directed or undirected) and returns a
// parallel batch serving engine over it.
func NewBatchEngine(ix *Index) (*BatchEngine, error) {
	fx, err := ix.Freeze()
	if err != nil {
		return nil, err
	}
	return NewBatchEngineFlat(fx), nil
}

// NewBatchEngineFlat wraps an already-frozen (for instance, freshly
// loaded) flat index.
func NewBatchEngineFlat(fx *FlatIndex) *BatchEngine {
	return &BatchEngine{fx: fx, workers: runtime.GOMAXPROCS(0)}
}

// Index returns the engine's underlying flat index.
func (e *BatchEngine) Index() *FlatIndex { return e.fx }

// SetCache attaches a point-to-point answer cache to the engine (nil
// detaches). Cached lookups serve repeated pairs without touching the
// label arrays; misses fall through to the join kernels and populate the
// cache with the full answer (distance + witness hub). The cache must
// only ever hold answers from this engine's index — on an index swap,
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
// detaches). With an overlay attached, every query routes through the
// corrected path (queryPatched). An attached cache must be scoped to
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
	return e.queryHub(nil, u, v)
}

// queryHub is QueryHub with the frozen join on the caller's scratch (nil:
// merge-join), so a batch worker's cache misses run the same kernel its
// uncached pairs do and the cache always holds the complete answer —
// /dist can reuse a /batch miss and vice versa.
func (e *BatchEngine) queryHub(s *QueryScratch, u, v int) (dist float64, hub int, ok bool) {
	if e.cache != nil {
		if a, hit := e.cache.Get(u, v); hit {
			return a.Dist, a.Hub, a.Reachable
		}
	}
	if e.ov != nil {
		// Endpoint runs zero-copy from a fixed-width store, decoded once
		// into a pooled buffer from a compressed one.
		fx, b := e.fx, runBufs.Get().(*runBuf)
		dist, hub, ok = queryPatched(e.ov, fx.fwd.RunInto(&b.u, u), fx.bwd.RunInto(&b.v, v), u, v, func(rank uint32) int { return fx.perm[rank] })
		runBufs.Put(b)
	} else {
		dist, hub, ok = e.fx.QueryHubWith(s, u, v)
	}
	if e.cache != nil {
		e.cache.Put(u, v, Answer{Dist: dist, Hub: hub, Reachable: ok})
	}
	return dist, hub, ok
}

// runBuf holds the two decoded endpoint runs of one corrected query on
// a compressed index.
type runBuf struct{ u, v []uint64 }

var runBufs = sync.Pool{New: func() any { return new(runBuf) }}

// queryPatched answers one pair under overlay ov on either tier: the
// endpoints' frozen runs (runU: u's forward run; runV: v's backward run,
// its only run when undirected) go to the overlay, which joins, corrects
// and, where it must, falls back to an exact Dijkstra
// (delta.Overlay.Query). The witness hub survives only when the overlay
// proves the frozen answer still exact — hubOf maps its rank to an
// original id, and for u == v it is u itself; otherwise the hub is -1,
// since no hub in the frozen labels is guaranteed to lie on a patched
// shortest path.
func queryPatched(ov *delta.Overlay, runU, runV []uint64, u, v int, hubOf func(rank uint32) int) (dist float64, hub int, ok bool) {
	dist, rank, frozen := ov.Query(runU, runV, u, v)
	switch {
	case dist >= Infinity:
		return Infinity, 0, false
	case !frozen:
		return dist, -1, true
	case u == v:
		return dist, u, true
	}
	return dist, hubOf(rank), true
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

// serveRange answers one worker's contiguous slice of a batch. On the
// frozen index alone that is batchGrouped. Through a cache every pair is
// looked up on its own and a miss joins on one pooled scratch — which
// kernel that means, hash join or merge join on a nil scratch, is label's
// decision (ScratchPool.GetJoinFor, Join); under an overlay every pair
// takes the corrected single-pair path, which joins on the overlay's own
// scratch.
func (e *BatchEngine) serveRange(dst []float64, pairs []QueryPair, lo, hi int) {
	fx := e.fx
	if e.cache == nil && e.ov == nil {
		fx.batchGrouped(dst[lo:hi], pairs[lo:hi])
		return
	}
	var s *QueryScratch
	if e.ov == nil {
		s = fx.scratch.GetJoinFor(fx.fwd)
	}
	for i := lo; i < hi; i++ {
		dst[i], _, _ = e.queryHub(s, pairs[i].U, pairs[i].V)
	}
	fx.scratch.Put(s) // not deferred: only a clean scratch goes back
}

// sourceGroups chains one worker's share of a batch by source. first[u]
// is the position of u's first pair, -1 at rest (serving resets every
// entry linking set); next[i] is the position of the next pair with pair
// i's source, -1 after the last. targets and row carry one source's group
// through MatrixRowInto; run holds a compressed source's decoded run.
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
// row (MatrixRowInto) over its targets, and a singleton takes the pairwise
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
		fx.MatrixRowInto(gs, row, fx.fwd.RunInto(&g.run, p.U), g.targets)
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

// QueryMode selects a distributed query strategy (§6 of the paper).
type QueryMode = query.Mode

// The three query modes.
const (
	// ModeQLSN replicates all labels on every node; each query is
	// answered locally by the node it emerges on. Lowest latency, highest
	// memory.
	ModeQLSN = query.QLSN
	// ModeQFDL partitions every vertex's labels across all nodes; each
	// query is broadcast and MIN-reduced. Lowest memory, broadcast-bound
	// latency.
	ModeQFDL = query.QFDL
	// ModeQDOL splits vertices into ζ partitions with C(ζ,2)=q and routes
	// each query point-to-point to the node owning its partition pair.
	// Best batch throughput at √q-scaled memory.
	ModeQDOL = query.QDOL
)

// QueryEngine answers PPSD queries on a simulated q-node cluster under one
// of the three modes, translating between original vertex ids and the
// index's rank space.
type QueryEngine struct {
	ix  *Index
	eng *query.Engine
}

// NewQueryEngine deploys the index's labels across q simulated nodes.
// ModeQFDL requires an index built by a distributed algorithm (it reuses
// the generator-node partitions); QLSN and QDOL work with any undirected
// index. Directed indexes are not supported by the simulated engines —
// they serve through the flat stack (Freeze/BatchEngine, Server, Router),
// which handles them end to end.
func NewQueryEngine(ix *Index, mode QueryMode, q int) (*QueryEngine, error) {
	if ix.Directed() {
		return nil, fmt.Errorf("chl: the simulated query engines support undirected indexes only; directed indexes serve through Freeze/BatchEngine, Server, or Router")
	}
	var perNode []*label.Index
	if mode == ModeQFDL {
		if ix.perNode == nil {
			return nil, fmt.Errorf("chl: QFDL needs a distributed build (Options.Nodes=%d, got a shared-memory index)", q)
		}
		if len(ix.perNode) != q {
			return nil, fmt.Errorf("chl: QFDL cluster size %d does not match the build's %d nodes", q, len(ix.perNode))
		}
		perNode = ix.perNode
	}
	eng, err := query.NewEngine(mode, ix.fwd, perNode, q, query.DefaultCostModel())
	if err != nil {
		return nil, err
	}
	return &QueryEngine{ix: ix, eng: eng}, nil
}

// Query answers one PPSD query (original ids) and reports its modeled
// latency on the simulated cluster.
func (qe *QueryEngine) Query(u, v int) (float64, time.Duration) {
	return qe.eng.Query(qe.ix.rank[u], qe.ix.rank[v])
}

// QueryPair is one batch query in original-id space.
type QueryPair struct {
	U, V int
}

// BatchResult reports a batch run; see the internal/query package for the
// cost model behind the modeled figures.
type BatchResult struct {
	Dists          []float64
	Throughput     float64 // queries per modeled second
	MeanLatency    time.Duration
	ModeledSeconds float64
	BytesSent      int64
	MessagesSent   int64
}

// Batch answers a batch of queries emerging at node 0.
func (qe *QueryEngine) Batch(pairs []QueryPair) *BatchResult {
	rp := make([]query.Pair, len(pairs))
	for i, p := range pairs {
		rp[i] = query.Pair{U: int32(qe.ix.rank[p.U]), V: int32(qe.ix.rank[p.V])}
	}
	r := qe.eng.Batch(rp)
	return &BatchResult{
		Dists:          r.Dists,
		Throughput:     r.Throughput,
		MeanLatency:    r.MeanLatency,
		ModeledSeconds: r.ModeledSeconds,
		BytesSent:      r.BytesSent,
		MessagesSent:   r.MessagesSent,
	}
}

// MemoryPerNode returns the label bytes each simulated node stores under
// this deployment (the memory column of Table 4).
func (qe *QueryEngine) MemoryPerNode() []int64 { return qe.eng.MemoryPerNode() }

// TotalMemory returns the cluster-wide label storage in bytes.
func (qe *QueryEngine) TotalMemory() int64 { return qe.eng.TotalMemory() }

package chl

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/delta"
	"repro/internal/label"
	"repro/internal/shard"
)

// fxHandle owns one FlatIndex shared by every snapshot generation built
// over it: the frozen-only generation plus each patch-batch generation
// layered on the same labels. The index is closed by whichever release
// drops the handle's count to zero — patch batches swap snapshots
// without remapping (or double-closing) the file, or hashing it again.
type fxHandle struct {
	fx        *FlatIndex
	ident     uint64 // fx.ContentHash(), computed once per handle
	refs      atomic.Int64
	closeOnce sync.Once
}

func newFxHandle(fx *FlatIndex) *fxHandle {
	h := &fxHandle{fx: fx, ident: fx.ContentHash()}
	h.refs.Store(1)
	return h
}

func (h *fxHandle) acquire() *fxHandle {
	h.refs.Add(1)
	return h
}

func (h *fxHandle) release() {
	if h.refs.Add(-1) == 0 {
		h.closeOnce.Do(func() { h.fx.Close() })
	}
}

// Snapshot is one immutable generation of a served index: a flat index
// (usually mmap-backed), its batch engine, a cache born with it, the
// graph its answers are true of when updates are on (fixed with the
// labels, so one request never reads the labels of one generation and
// the graph of another), and — under outstanding edge updates — the
// delta overlay correcting its frozen answers. Snapshots are
// reference-counted: the Server holds one reference while the snapshot
// is current, and every in-flight query holds one from Acquire to
// Release. The underlying file mapping is unmapped when the last
// snapshot sharing it drains — after a hot swap the old generation
// retires naturally, with no query ever touching unmapped memory and no
// reader ever blocking a reload.
type Snapshot struct {
	srv      *Server // the server that published it
	handle   *fxHandle
	fx       *FlatIndex
	eng      *BatchEngine
	g        *Graph // the graph /paths walks: the base, or the overlay's patched graph (nil: updates off)
	path     string
	gen      uint64
	ident    uint64 // snapshot identity: content hash, mixed with the patch-log hash under an overlay
	loadedAt time.Time

	refs      atomic.Int64
	closeOnce sync.Once
}

// Index returns the snapshot's flat index.
func (sn *Snapshot) Index() *FlatIndex { return sn.fx }

// Engine returns the snapshot's batch engine (cache attached).
func (sn *Snapshot) Engine() *BatchEngine { return sn.eng }

// Generation returns the snapshot's monotonically increasing generation
// number (1 for the index the server started with).
func (sn *Snapshot) Generation() uint64 { return sn.gen }

// Path returns the file this snapshot was loaded from ("" when the
// server was built from an in-memory index).
func (sn *Snapshot) Path() string { return sn.path }

// Ident returns the snapshot's content identity: FlatIndex.ContentHash
// for a frozen snapshot — equal across processes and restarts exactly
// when the served bytes are equal — mixed with the patch log's hash
// when a delta overlay is attached, so every patch batch changes the
// identity exactly once. Shard servers stamp it on every router-facing
// response; the router retires its answer cache only when a shard's
// ident actually changes, so coordinated same-content restarts keep
// the cache warm.
func (sn *Snapshot) Ident() uint64 { return sn.ident }

// Overlay returns the snapshot's delta overlay (nil when no edge
// updates are outstanding).
func (sn *Snapshot) Overlay() *delta.Overlay { return sn.eng.Overlay() }

// Release returns a reference taken by Server.Acquire. The last release
// of a retired snapshot drops its index reference; the mapping closes
// when no generation shares it any longer.
func (sn *Snapshot) Release() {
	if sn.refs.Add(-1) == 0 {
		sn.closeOnce.Do(func() { sn.handle.release() })
	}
}

// Server serves point-to-point distance queries from a hot-swappable
// snapshot of a flat index. The current snapshot is an atomic pointer:
// queries acquire it wait-free, and Reload publishes a fully validated
// replacement in one store — in-flight queries finish on the generation
// they started on, new queries see the new one, and the old mapping is
// unmapped only after its last query drains. A failed reload leaves the
// current snapshot serving untouched.
//
// Handler exposes the HTTP API documented in README.md — the endpoints a
// Router serves too (/dist, /batch, /paths, /knn, /matrix, /stats,
// /healthz, /reload, /update, /metrics) plus /compact and the shard
// protocol's /shardquery and /shardscan; the query methods serve
// embedders directly. SetShard turns the server into one
// shard of a split cluster (see Router); SetPrefault warms fresh
// mappings before they go live.
type Server struct {
	cur       atomic.Pointer[Snapshot]
	mu        sync.Mutex // serializes Reload, Update, and Compact
	cacheSize int
	gen       atomic.Uint64
	queries   atomic.Int64
	reloads   atomic.Int64
	start     time.Time
	clock     Clock // time source for uptime, load stamps, and metrics
	api       *http.ServeMux

	// log is the patch log since the last compaction (nil: updates are
	// off; see EnableUpdates), guarded by mu. The query path never reads
	// it — it sees only the overlay frozen into the current snapshot.
	log         *delta.Log
	updates     atomic.Int64
	compactions atomic.Int64

	// epoch is a per-process stamp reported alongside the generation on
	// the router-facing responses. Generations restart at 1 in every
	// process, so a shard restart (possibly serving different content)
	// would be indistinguishable from "nothing changed" by generation
	// alone; the (epoch, generation) pair is unique per snapshot across
	// restarts, which is what the Router's cache retirement keys on.
	// Epochs are ordered by process start time (millisecond resolution,
	// random low bits), so the router can also tell a delayed response
	// from a dead process apart from a fresh restart.
	epoch uint64

	// Shard identity, set by SetShard before serving: when part is
	// non-nil the server owns only its vertex range and the query
	// handlers reject misrouted vertices with 421. shardN pins the
	// cluster's vertex space (the count served when SetShard ran):
	// reloads of a shard server reject files over a different space, so
	// a wrong-cluster file is a loud 400, not silently wrong answers.
	shardID int
	part    *shard.Partition
	shardN  int
	owned   []uint64 // ownership bitmap over [0,shardN), built once by SetShard
	// shardDirected pins the directedness of the slice this shard serves
	// (recorded by SetShard): a reload must not swap a directed slice for
	// an undirected one or vice versa — the router's join protocol and
	// cache keying depend on every shard agreeing. shardUnit pins the
	// slice's unit exponent k the same way: the router stamps answers with
	// the cluster's unit, so a slice counting another unit would have
	// every response refused.
	shardDirected bool
	shardUnit     int

	// prefault asks reload to fault a fresh mapping fully in before the
	// swap (FlatIndex.Prefault), trading reload latency for a warm first
	// generation of queries.
	prefault atomic.Bool
}

// NewServer opens the flat index file at path (memory-mapped when
// possible — see OpenFlat) and returns a server for it. cacheSize bounds
// the per-snapshot answer cache; <= 0 disables caching.
func NewServer(path string, cacheSize int) (*Server, error) {
	fx, err := OpenFlat(path)
	if err != nil {
		return nil, err
	}
	s := newServer(cacheSize)
	s.install(fx, path, nil)
	return s, nil
}

// NewServerFromFlat wraps an already loaded or freshly frozen index. The
// server takes ownership of fx; Reload still works and swaps to flat
// index files.
func NewServerFromFlat(fx *FlatIndex, cacheSize int) *Server {
	s := newServer(cacheSize)
	s.install(fx, "", nil)
	return s
}

func newServer(cacheSize int) *Server {
	var e [8]byte
	// Low bits stay random so two restarts in the same millisecond still
	// get distinct epochs (rand failure degrades to zeros: distinctness
	// then rests on the clock alone, which is fine — the epoch is an
	// identity, not a secret).
	_, _ = rand.Read(e[:])
	// Epoch layout: milliseconds since the Unix epoch in the high bits,
	// 10 random bits below, truncated to 53 bits so the value survives a
	// float64 round trip (JSON consumers, including the router's /reload
	// proxy, decode numbers into float64). Millisecond ordering is what
	// lets the router order epochs by process start; 53 bits last until
	// the year ~2248.
	//chlvet:allow clockcheck -- the epoch is a process identity ordered by real start time across restarts; a fake clock here would break restart detection, the one thing it exists for
	epoch := uint64(time.Now().UnixMilli())<<10 | uint64(binary.LittleEndian.Uint16(e[:])&0x3ff)
	clock := Clock(realClock{})
	s := &Server{
		cacheSize: cacheSize,
		start:     clock.Now(),
		clock:     clock,
		epoch:     epoch & (1<<53 - 1),
		shardID:   -1,
	}
	// /shardquery and /shardscan check their method after shardOnly: a
	// plain server 404s them whatever the method.
	s.api = newFront(clock, "chl", s.pin, nil,
		route{"/compact", http.MethodPost, "use POST /compact", snapshotRoute((*Snapshot).compact)},
		route{"/shardquery", "", "", snapshotRoute((*Snapshot).shardQuery)},
		route{"/shardscan", "", "", snapshotRoute((*Snapshot).shardScan)})
	return s
}

// pin is the front's per-request acquire: the snapshot current when the
// request arrived answers all of it.
func (s *Server) pin() backend { return s.Acquire() }

// snapshotRoute adapts a Server-only endpoint to the front, whose backend
// on a Server is the request's snapshot.
func snapshotRoute(serve func(sn *Snapshot, w http.ResponseWriter, r *http.Request) error) func(http.ResponseWriter, *http.Request, backend) error {
	return func(w http.ResponseWriter, r *http.Request, b backend) error { return serve(b.(*Snapshot), w, r) }
}

// SetShard declares this server to be shard id of partition p: the query
// endpoints then serve only vertices the shard owns (misrouted requests
// get 421 Misdirected Request), and /shardquery returns label rows for
// the Router's cross-shard hub joins. Call before serving; shard identity
// is fixed for the server's lifetime. A server with updates enabled cannot
// become a shard, just as a shard cannot enable updates.
func (s *Server) SetShard(id int, p *shard.Partition) error {
	if p == nil {
		return fmt.Errorf("chl: SetShard needs a partition")
	}
	s.mu.Lock()
	updating := s.log != nil
	s.mu.Unlock()
	if updating {
		return fmt.Errorf("chl: a server with updates enabled cannot become a shard; enable them on the cluster's router instead")
	}
	if id < 0 || id >= p.Shards() {
		return fmt.Errorf("chl: shard id %d out of range [0,%d)", id, p.Shards())
	}
	sn := s.Acquire()
	defer sn.Release()
	n := sn.fx.NumVertices()
	// One ring lookup per vertex, once: the query handlers' ownership
	// checks and every reload's shard-file validation read this bitmap
	// instead of re-hashing.
	owned := make([]uint64, (n+63)/64)
	for v := 0; v < n; v++ {
		if p.Owner(v) == id {
			owned[v>>6] |= 1 << (v & 63)
		}
	}
	s.shardID, s.part, s.shardN, s.owned = id, p, n, owned
	s.shardDirected, s.shardUnit = sn.fx.Directed(), sn.fx.unitExp()
	if err := s.checkShardFile(sn.fx); err != nil {
		s.shardID, s.part, s.shardN, s.owned = -1, nil, 0, nil
		return err
	}
	return nil
}

// checkShardFile verifies that fx plausibly is this shard's slice: no
// vertex outside the shard's ownership may carry label runs. This is
// what catches a shard pointed at the wrong slice file, or at a slice
// from a re-split cluster (different shard count or ring seed) whose
// vertex count happens to match — both would otherwise serve
// reachable:false for vertices whose runs the file doesn't hold,
// silently. Called by SetShard and by every shard reload; the scan is
// one linear pass over the bitmap and the offsets array, no ring
// lookups.
func (s *Server) checkShardFile(fx *FlatIndex) error {
	n := fx.NumVertices()
	if n != s.shardN {
		return fmt.Errorf("chl: index covers %d vertices but this shard serves a %d-vertex cluster", n, s.shardN)
	}
	if fx.Directed() != s.shardDirected {
		return fmt.Errorf("chl: index directed=%v but this shard serves a directed=%v cluster — wrong shard file?", fx.Directed(), s.shardDirected)
	}
	if k := fx.unitExp(); k != s.shardUnit {
		return fmt.Errorf("chl: index counts units of 2^-%d but this shard serves a cluster counting 2^-%d — wrong shard file?", k, s.shardUnit)
	}
	for v := 0; v < n; v++ {
		if s.owned[v>>6]&(1<<(v&63)) == 0 && fx.fwd.LabelCount(v) > 0 {
			return fmt.Errorf("chl: index holds labels for vertex %d, which shard %d does not own — wrong shard file, or a file from a re-split cluster?", v, s.shardID)
		}
	}
	if fx.Directed() {
		for v := 0; v < n; v++ {
			if s.owned[v>>6]&(1<<(v&63)) == 0 && fx.bwd.LabelCount(v) > 0 {
				return fmt.Errorf("chl: index holds backward labels for vertex %d, which shard %d does not own — wrong shard file, or a file from a re-split cluster?", v, s.shardID)
			}
		}
	}
	return nil
}

// SetPrefault controls whether reloads fault the incoming mapping fully
// in before swapping it live (see FlatIndex.Prefault). Enabling it also
// prefaults the currently served snapshot. Prefault trades reload latency
// for first-query latency; it matters for large mapped indexes on cold
// page cache.
func (s *Server) SetPrefault(on bool) {
	s.prefault.Store(on)
	if on {
		sn := s.Acquire()
		sn.fx.Prefault()
		sn.Release()
	}
}

// install publishes fx, true of graph g (nil: none), as the next
// generation and retires the previous snapshot (dropping the server's
// reference; the mapping closes when the last in-flight query releases).
func (s *Server) install(fx *FlatIndex, path string, g *Graph) *Snapshot {
	return s.installHandle(newFxHandle(fx), path, g, nil)
}

// installHandle publishes one generation over an index handle: a fresh
// handle for loads and compactions, the current snapshot's own
// (re-acquired) handle for patch batches, which swap generations
// without remapping the file. Every generation is born with a fresh
// cache — under an overlay the cache instance is the patch-epoch
// discriminant, so pre-patch answers can never outlive the graph they
// were true of.
func (s *Server) installHandle(h *fxHandle, path string, g *Graph, ov *delta.Overlay) *Snapshot {
	fx := h.fx
	eng := NewBatchEngineFlat(fx)
	eng.SetCache(newCacheFor(fx, s.cacheSize))
	eng.SetOverlay(ov)
	ident := h.ident
	if ov != nil {
		ident = mixIdent(ident, ov.Hash())
	}
	sn := &Snapshot{
		srv:      s,
		handle:   h,
		fx:       fx,
		eng:      eng,
		g:        g,
		path:     path,
		gen:      s.gen.Add(1),
		ident:    ident,
		loadedAt: s.clock.Now(),
	}
	sn.refs.Store(1) // the server's own reference
	if old := s.cur.Swap(sn); old != nil {
		old.Release()
	}
	return sn
}

// mixIdent folds the patch log's hash into a snapshot's content
// identity: same FNV-1a over both words, truncated to the same 53 bits
// every identity here lives in (JSON consumers decode into float64),
// never zero. Two servers serving the same index under the same patch
// log agree; any patch batch moves the identity exactly once.
func mixIdent(base, patch uint64) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, x := range [2]uint64{base, patch} {
		for i := 0; i < 8; i++ {
			h ^= x & 0xff
			h *= prime64
			x >>= 8
		}
	}
	h &= 1<<53 - 1
	if h == 0 {
		h = 1
	}
	return h
}

// Acquire returns the current snapshot with a reference held; the caller
// must Release it when done querying. Acquire is wait-free against
// concurrent reloads. It panics on a closed server — a loud failure
// beats the alternative, which would be handing out a generation whose
// mapping is already released.
func (s *Server) Acquire() *Snapshot {
	for {
		sn := s.cur.Load()
		if sn == nil {
			panic("chl: Server used after Close")
		}
		sn.refs.Add(1)
		if s.cur.Load() == sn {
			return sn
		}
		// A reload (or Close) won the race; this snapshot may be
		// draining. Put the reference back and take the new generation.
		sn.Release()
	}
}

// Reload loads the flat index file at path (the current snapshot's own
// file when path is "", e.g. after it was atomically replaced on disk)
// and hot-swaps it in, returning the new generation number. Queries in
// flight on the old snapshot finish untouched; its mapping is closed
// after the last one drains. On error the current snapshot keeps
// serving. Reloads are serialized; queries are never blocked.
func (s *Server) Reload(path string) (uint64, error) {
	sn, err := s.reload(path)
	if err != nil {
		return 0, err
	}
	return sn.gen, nil
}

// reload returns the installed snapshot so POST /reload can describe
// exactly the generation it installed (not whatever a racing reload has
// since published). The caller holds no reference: only the snapshot's
// immutable metadata may be read, never its label arrays.
func (s *Server) reload(path string) (*Snapshot, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.log != nil && s.log.Len() > 0 {
		return nil, fmt.Errorf("chl: %d edge updates are outstanding; compact (POST /compact) before reloading — a reload would silently drop them", s.log.Len())
	}
	if path == "" {
		cur := s.cur.Load()
		if cur == nil {
			return nil, fmt.Errorf("chl: Server used after Close")
		}
		path = cur.path
		if path == "" {
			return nil, fmt.Errorf("chl: reload needs a path: the server was built from an in-memory index")
		}
	}
	fx, err := OpenFlat(path)
	if err != nil {
		return nil, err
	}
	// A shard server's slice is pinned by its cluster manifest; a reload
	// must not smuggle in a file from a different cluster build — not a
	// different vertex space, and not a re-split of the same graph under
	// another ring. (Non-shard servers may legitimately swap between
	// arbitrary indexes.)
	if s.part != nil {
		if err := s.checkShardFile(fx); err != nil {
			fx.Close()
			return nil, fmt.Errorf("chl: reload %s rejected: %w", path, err)
		}
	}
	// An updates-enabled server's base graph must keep describing the
	// served labels: a reload may swap in a rebuild of the same graph
	// (same vertex space, directedness and unit — compaction writes
	// exactly that), not an arbitrary other index.
	if s.log != nil {
		if err := fitsBase(s.log.Base(), fx.NumVertices(), fx.Directed(), fx.unitExp()); err != nil {
			fx.Close()
			return nil, fmt.Errorf("chl: reload %s rejected: %w", path, err)
		}
	}
	if s.prefault.Load() {
		// Fault the new mapping in while the old generation still serves;
		// the swap below then publishes an already-warm snapshot.
		fx.Prefault()
	}
	var g *Graph
	if s.log != nil {
		g = s.log.Base()
	}
	sn := s.install(fx, path, g)
	s.reloads.Add(1)
	return sn, nil
}

// Close retires the current snapshot (its mapping closes once in-flight
// queries drain). The server must not be queried afterwards: the
// current-snapshot pointer is cleared first, so a racing Acquire panics
// rather than touching unmapped memory.
func (s *Server) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if sn := s.cur.Swap(nil); sn != nil {
		sn.Release()
	}
	return nil
}

// EnableUpdates turns on dynamic edge updates (POST /update): g must be
// the exact graph the served labels were built from — the overlay
// corrects the tier's frozen join against distance rows of g (and of g
// patched), so a g the labels were not built from silently corrupts
// answers. journalPath, when
// non-empty, names the patch journal: every accepted batch is appended
// (and fsynced) before it is served, and any ops already in the journal
// are replayed now, so a restarted server resumes exactly the patched
// state it last acknowledged. Shard servers cannot enable updates —
// corrections need the whole vertex space, so the update path lives on
// plain servers and the Router. The switch is one-way: a second call is
// refused, because it would swap the base graph under the patch log. It
// publishes a new generation, which carries g for /paths to walk.
func (s *Server) EnableUpdates(g *Graph, journalPath string) error {
	if g == nil {
		return fmt.Errorf("chl: EnableUpdates needs the base graph the served index was built from")
	}
	if s.part != nil {
		return fmt.Errorf("chl: shard servers cannot serve updates; enable them on the cluster's router instead")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.log != nil {
		return fmt.Errorf("chl: updates are already enabled on this server")
	}
	cur := s.cur.Load()
	if cur == nil {
		return fmt.Errorf("chl: Server used after Close")
	}
	if err := fitsBase(g, cur.fx.NumVertices(), cur.fx.Directed(), cur.fx.unitExp()); err != nil {
		return err
	}
	log, ov, err := delta.OpenLog(g, journalPath)
	if err != nil {
		return err
	}
	s.log = log
	if ov != nil {
		s.publishLocked(cur, ov)
	} else {
		s.installHandle(cur.handle.acquire(), cur.path, g, nil)
	}
	return nil
}

// fitsBase refuses labels over n vertices (directed or not), counting
// units of 2^-k, that cannot have been built from base, the graph updates
// correct them against: a labeling counts in its graph's own unit.
func fitsBase(base *Graph, n int, directed bool, k int) error {
	if n != base.NumVertices() || directed != base.Directed() {
		return fmt.Errorf("chl: the index covers %d vertices (directed=%v) but the base graph %d (directed=%v) — not the graph it was built from?", n, directed, base.NumVertices(), base.Directed())
	}
	if k != base.WeightUnitExp() {
		return fmt.Errorf("chl: the index counts distances in units of 2^-%d but the base graph weighs its edges in units of 2^-%d — not the graph it was built from?", k, base.WeightUnitExp())
	}
	return nil
}

// errUpdatesDisabled is the one refusal of /update and /compact on a
// tier whose updates are off (409 on both).
var errUpdatesDisabled = errors.New("chl: updates are not enabled")

// Update applies a batch of edge operations: the ops are validated
// against the patched graph so far, journaled (when a journal is
// configured), folded into a fresh delta overlay, and published as a
// new snapshot generation sharing the current frozen index — queries
// in flight finish on the generation they started on, and every query
// from here on is overlay-corrected. Returns the installed snapshot's
// generation.
func (s *Server) Update(ops []EdgeOp) (uint64, error) {
	sn, err := s.update(ops)
	if err != nil {
		return 0, err
	}
	return sn.gen, nil
}

func (s *Server) update(ops []EdgeOp) (*Snapshot, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.log == nil {
		return nil, fmt.Errorf("%w on this server (EnableUpdates, or start with -graph)", errUpdatesDisabled)
	}
	cur := s.cur.Load()
	if cur == nil {
		return nil, fmt.Errorf("chl: Server used after Close")
	}
	ov, err := s.log.Apply(ops)
	if err != nil {
		return nil, err
	}
	return s.publishLocked(cur, ov), nil
}

// publishLocked publishes ov, with its patched graph, as a new
// generation sharing cur's index. Callers hold mu.
func (s *Server) publishLocked(cur *Snapshot, ov *delta.Overlay) *Snapshot {
	s.updates.Add(1)
	return s.installHandle(cur.handle.acquire(), cur.path, ov.Materialize(), ov.Serving())
}

// Compact folds the outstanding patch log into a fresh frozen index:
// rebuild over the patched graph, freeze (compressed when the retiring
// snapshot was), persist to path when given (atomic rename; path ""
// reuses the retiring snapshot's file, or stays in memory when it had
// none), then hot-swap — the patched graph becomes the new base, the
// overlay disappears, and the journal is truncated. Queries keep
// flowing on the overlay generation for the whole rebuild; only other
// reloads/updates/compactions serialize behind it. Returns the new
// generation.
func (s *Server) Compact(path string) (uint64, error) {
	sn, err := s.compact(path)
	if err != nil {
		return 0, err
	}
	return sn.gen, nil
}

// compact returns the installed snapshot so POST /compact describes the
// generation it installed, as reload does; the caller holds no reference.
func (s *Server) compact(path string) (*Snapshot, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.log == nil {
		return nil, fmt.Errorf("%w on this server", errUpdatesDisabled)
	}
	patched, err := s.log.Patched()
	if err != nil {
		return nil, err
	}
	ix, err := Build(patched, Options{})
	if err != nil {
		return nil, fmt.Errorf("chl: compaction rebuild: %w", err)
	}
	cur := s.cur.Load()
	if cur == nil {
		return nil, fmt.Errorf("chl: Server used after Close")
	}
	var fx *FlatIndex
	if cur.fx.Compressed() {
		fx, err = ix.FreezeCompressed()
	} else {
		fx, err = ix.Freeze()
	}
	if err != nil {
		return nil, fmt.Errorf("chl: compaction freeze: %w", err)
	}
	if path == "" {
		path = cur.path
	}
	if path != "" {
		if err := fx.SaveFile(path); err != nil {
			return nil, fmt.Errorf("chl: compaction save: %w", err)
		}
		if fx, err = OpenFlat(path); err != nil {
			return nil, fmt.Errorf("chl: compaction reopen: %w", err)
		}
	}
	if s.prefault.Load() {
		fx.Prefault()
	}
	sn := s.installHandle(newFxHandle(fx), path, patched, nil)
	if err := s.log.Compacted(patched); err != nil {
		return nil, fmt.Errorf("chl: truncating journal after compaction (updates ARE compacted into generation %d; clear the journal by hand before restarting): %w", sn.gen, err)
	}
	s.compactions.Add(1)
	return sn, nil
}

// Query answers one point-to-point query on the current snapshot,
// through its cache.
func (s *Server) Query(u, v int) float64 {
	d, _, _ := s.QueryHub(u, v)
	return d
}

// QueryHub answers one query with its witness hub on the current
// snapshot, through its cache.
func (s *Server) QueryHub(u, v int) (dist float64, hub int, ok bool) {
	sn := s.Acquire()
	defer sn.Release()
	dist, hub, ok, _ = sn.dist(u, v)
	return dist, hub, ok
}

// Batch answers a batch of queries on the current snapshot.
func (s *Server) Batch(pairs []QueryPair) []float64 {
	sn := s.Acquire()
	defer sn.Release()
	dists := make([]float64, len(pairs))
	sn.batch(context.Background(), dists, pairs)
	return dists
}

// Path answers /paths on the current snapshot: a shortest u→v path
// walked over its graph (FlatIndex.Path, or a row under an overlay), or,
// with updates off, the witness triple of one cached pair query.
func (s *Server) Path(u, v int) (dist float64, path []int, reachable bool, err error) {
	sn := s.Acquire()
	defer sn.Release()
	return sn.paths(u, v)
}

// KNN returns up to k nearest targets from u on the current snapshot,
// seeding the snapshot's pair cache with the results (see
// BatchEngine.KNN).
func (s *Server) KNN(u, k int) []Neighbor {
	sn := s.Acquire()
	defer sn.Release()
	neighbors, _ := sn.knn(u, k)
	return neighbors
}

// ServerStats is the /stats response: the current snapshot's shape and
// provenance plus the server's cumulative counters.
type ServerStats struct {
	Vertices      int         `json:"vertices"`
	Labels        int64       `json:"labels"`
	MemoryBytes   int64       `json:"memory_bytes"`
	Mapped        bool        `json:"mapped"`
	Directed      bool        `json:"directed"`
	Compressed    bool        `json:"compressed"`
	Path          string      `json:"path,omitempty"`
	Generation    uint64      `json:"generation"`
	LoadedAt      time.Time   `json:"loaded_at"`
	UptimeSeconds float64     `json:"uptime_seconds"`
	Queries       int64       `json:"queries_total"`
	Reloads       int64       `json:"reloads_total"`
	Updates       int64       `json:"updates_total,omitempty"`
	Compactions   int64       `json:"compactions_total,omitempty"`
	Patch         *PatchStats `json:"patch,omitempty"`
	Cache         *CacheStats `json:"cache,omitempty"`
	Shard         *ShardStats `json:"shard,omitempty"`
}

// PatchStats describes the outstanding delta overlay (see
// delta.Overlay.Stat): absent from /stats when no updates are
// outstanding.
type PatchStats = delta.Stats

// ShardStats identifies a shard server within its cluster.
type ShardStats struct {
	ID     int `json:"id"`
	Shards int `json:"shards"`
}

// Stats reports the server's current state.
func (s *Server) Stats() ServerStats {
	sn := s.Acquire()
	defer sn.Release()
	return s.statsOf(sn)
}

// statsOf reports the server's counters beside sn's shape and provenance.
func (s *Server) statsOf(sn *Snapshot) ServerStats {
	st := ServerStats{
		Vertices:      sn.fx.NumVertices(),
		Labels:        sn.fx.TotalLabels(),
		MemoryBytes:   sn.fx.TotalMemory(),
		Mapped:        sn.fx.Mapped(),
		Directed:      sn.fx.Directed(),
		Compressed:    sn.fx.Compressed(),
		Path:          sn.path,
		Generation:    sn.gen,
		LoadedAt:      sn.loadedAt,
		UptimeSeconds: s.clock.Now().Sub(s.start).Seconds(),
		Queries:       s.queries.Load(),
		Reloads:       s.reloads.Load(),
		Updates:       s.updates.Load(),
		Compactions:   s.compactions.Load(),
	}
	if ov := sn.Overlay(); ov != nil {
		ps := ov.Stat()
		st.Patch = &ps
	}
	if c := sn.eng.Cache(); c != nil {
		cs := c.Stats()
		st.Cache = &cs
	}
	if s.part != nil {
		st.Shard = &ShardStats{ID: s.shardID, Shards: s.part.Shards()}
	}
	return st
}

// Handler returns the HTTP API (see the Server type and README.md): every
// error is a JSON body {"error": "..."} with a precise status code.
func (s *Server) Handler() http.Handler { return s.api }

// --- the Server's backend: one snapshot per request ---

func (sn *Snapshot) vertices() int { return sn.fx.NumVertices() }
func (sn *Snapshot) shard() int    { return sn.srv.shardID }
func (sn *Snapshot) stats() any    { return sn.srv.statsOf(sn) }
func (sn *Snapshot) release()      { sn.Release() }

// owns is a bitmap test, not a ring lookup: SetShard precomputed it.
func (sn *Snapshot) owns(v int) bool {
	s := sn.srv
	return s.part == nil || s.owned[v>>6]&(1<<(v&63)) != 0
}

// stamp is the one place a Server fills the shard protocol's snapshot
// stamp (see shardStamp); a plain server's is zero, every key absent.
func (sn *Snapshot) stamp() shardStamp {
	s := sn.srv
	if s.part == nil {
		return shardStamp{}
	}
	return shardStamp{Generation: sn.gen, Epoch: s.epoch, Ident: sn.ident, N: sn.fx.NumVertices(), Directed: sn.fx.Directed(), UnitExp: sn.fx.unitExp()}
}

// The query methods below are where a Server counts its queries, for
// the HTTP front and the exported query methods alike.

func (sn *Snapshot) dist(u, v int) (float64, int, bool, error) {
	sn.srv.queries.Add(1)
	d, hub, ok := sn.eng.QueryHub(u, v)
	return d, hub, ok, nil
}

func (sn *Snapshot) batch(_ context.Context, dst []float64, pairs []QueryPair) error {
	sn.srv.queries.Add(int64(len(pairs)))
	sn.eng.BatchInto(dst, pairs)
	return nil
}

func (sn *Snapshot) paths(u, v int) (float64, []int, bool, error) {
	sn.srv.queries.Add(1)
	switch {
	case sn.g == nil:
		return witnessPath(u, v, sn.eng.hubQuery)
	case sn.Overlay() != nil:
		return rowPath(sn.g, u, v)
	}
	return sn.fx.Path(sn.g, u, v)
}

func (sn *Snapshot) knn(u, k int) ([]Neighbor, error) {
	sn.srv.queries.Add(1)
	return sn.eng.KNN(u, k), nil
}

func (sn *Snapshot) matrix(_ context.Context, sources, targets []int, emit func(u int, dists []float64) error) error {
	sn.srv.queries.Add(int64(len(sources)) * int64(len(targets)))
	return sn.eng.MatrixRows(sources, targets, emit)
}

func (sn *Snapshot) update(ops []EdgeOp) (any, error) {
	next, err := sn.srv.update(ops)
	if err != nil {
		return nil, err
	}
	resp := map[string]any{
		"applied":    len(ops),
		"generation": next.gen,
		"ident":      next.ident,
	}
	if ov := next.Overlay(); ov != nil {
		resp["patch"] = ov.Stat()
	}
	return resp, nil
}

// reload describes the snapshot this request installed, even if a racing
// reload superseded it; every failure is the operator's (400).
func (sn *Snapshot) reload(_ context.Context, path string, _ url.Values) (any, error) {
	next, err := sn.srv.reload(path)
	if err != nil {
		return nil, badRequest(err.Error())
	}
	resp := reloadResponse{
		Path:       next.path,
		Mapped:     next.fx.Mapped(),
		Compressed: next.fx.Compressed(),
		Vertices:   next.fx.NumVertices(),
		Labels:     next.fx.TotalLabels(),
		shardStamp: next.stamp(),
	}
	resp.Generation = next.gen // public on plain servers too
	return resp, nil
}

func (sn *Snapshot) health() (int, any) {
	resp := healthResponse{OK: true, shardStamp: sn.stamp()}
	resp.Generation = sn.gen // public on plain servers too
	return http.StatusOK, resp
}

func (sn *Snapshot) gauges(w io.Writer) {
	st := sn.srv.statsOf(sn)
	promGauge(w, "chl_index_vertices", "Vertices covered by the served index.", float64(st.Vertices))
	promGauge(w, "chl_index_labels", "Labels in the served index.", float64(st.Labels))
	promGauge(w, "chl_index_memory_bytes", "Byte footprint of the served label arrays.", float64(st.MemoryBytes))
	promGauge(w, "chl_index_mapped", "1 when the index is served from a memory mapping.", boolGauge(st.Mapped))
	promGauge(w, "chl_index_directed", "1 when the served index holds directed (forward/backward) labels.", boolGauge(st.Directed))
	promGauge(w, "chl_index_compressed", "1 when the served index stores compressed label streams.", boolGauge(st.Compressed))
	promGauge(w, "chl_index_generation", "Current snapshot generation.", float64(st.Generation))
	promGauge(w, "chl_uptime_seconds", "Seconds since the server started.", st.UptimeSeconds)
	promCounter(w, "chl_queries_total", "Point-to-point queries answered.", st.Queries)
	promCounter(w, "chl_reloads_total", "Successful hot reloads.", st.Reloads)
	promCounter(w, "chl_updates_total", "Edge-update batches applied.", st.Updates)
	promCounter(w, "chl_compactions_total", "Patch-log compactions completed.", st.Compactions)
	if st.Patch != nil {
		promGauge(w, "chl_patch_epoch", "Epoch of the outstanding delta overlay.", float64(st.Patch.Epoch))
		promGauge(w, "chl_patch_ops", "Ops in the outstanding patch log.", float64(st.Patch.Ops))
		promGauge(w, "chl_patch_vertices", "Patch vertices in the outstanding overlay.", float64(st.Patch.Vertices))
		promOverlayQueries(w, "chl_overlay_queries_total", st.Patch)
	}
	if st.Cache != nil {
		promGauge(w, "chl_cache_entries", "Answers currently cached.", float64(st.Cache.Entries))
		promGauge(w, "chl_cache_capacity", "Answer cache capacity.", float64(st.Cache.Capacity))
		promCounter(w, "chl_cache_hits_total", "Answer cache hits.", st.Cache.Hits)
		promCounter(w, "chl_cache_misses_total", "Answer cache misses.", st.Cache.Misses)
	}
	if st.Shard != nil {
		promGauge(w, "chl_shard_id", "This server's shard id within its cluster.", float64(st.Shard.ID))
		promGauge(w, "chl_shard_count", "Shards in this server's cluster.", float64(st.Shard.Shards))
	}
}

// --- the Server's own endpoints ---

// compact serves POST /compact (see Server.Compact): ?path= or a JSON
// body {"path":"..."} names the file to persist to. The response
// describes the generation the compaction installed.
func (sn *Snapshot) compact(w http.ResponseWriter, r *http.Request) error {
	path, err := pathParam(w, r, r.URL.Query())
	if err != nil {
		return err
	}
	next, err := sn.srv.compact(path)
	if err != nil {
		return err
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"generation": next.gen,
		"path":       next.path,
		"vertices":   next.fx.NumVertices(),
		"labels":     next.fx.TotalLabels(),
		"compressed": next.fx.Compressed(),
	})
	return nil
}

// shardOnly gates the internal shard protocol (raw label-row dumps,
// shipped-run scans, snapshot stamps): it stays off plain public
// servers — 404 — so a router misconfigured against one fails loudly on
// every path, not just the same-shard ones.
func (sn *Snapshot) shardOnly(r *http.Request, endpoint, usage string) error {
	if sn.srv.part == nil {
		return &requestError{code: http.StatusNotFound, msg: endpoint + " is only served by shard servers (started with a cluster manifest)"}
	}
	if r.Method != http.MethodPost {
		return &requestError{code: http.StatusMethodNotAllowed, msg: usage}
	}
	return nil
}

// ownedIDs checks a router-supplied id list against the vertex space
// (400) and this shard's ownership (421).
func (sn *Snapshot) ownedIDs(ids []int) error {
	n := sn.fx.NumVertices()
	for _, v := range ids {
		if v < 0 || v >= n {
			return badRequest(fmt.Sprintf("vertex id %d out of range [0,%d)", v, n))
		}
		if err := owned(sn, v); err != nil {
			return err
		}
	}
	return nil
}

// shardQuery serves the internal shard-to-router protocol: label rows for
// owned vertices (the router joins them locally), and for the forward
// rows named in hub_ids each entry's hub as an original id, from the same
// snapshot — the witness the router's join picks.
func (sn *Snapshot) shardQuery(w http.ResponseWriter, r *http.Request) error {
	const usage = `a JSON object {"vertices":[...],"backward":[...],"hub_ids":[...]}`
	if err := sn.shardOnly(r, "shardquery", "POST "+usage); err != nil {
		return err
	}
	var req shardQueryRequest
	if err := decodeBody(w, r, maxBatchBytes, &req, usage, false); err != nil {
		return err
	}
	if err := sn.ownedIDs(req.Vertices); err != nil {
		return err
	}
	if err := sn.ownedIDs(req.Backward); err != nil {
		return err
	}
	rows := func(ids []int, st label.Store) map[string]string {
		if len(ids) == 0 {
			return nil
		}
		out := make(map[string]string, len(ids))
		for _, v := range ids {
			out[strconv.Itoa(v)] = encodePackedRun(st.RunInto(nil, v))
		}
		return out
	}
	resp := shardQueryResponse{shardStamp: sn.stamp(), Rows: rows(req.Vertices, sn.fx.fwd), BackRows: rows(req.Backward, sn.fx.bwd),
		HubIDs: make(map[string][]int, len(req.HubIDs))}
	for _, v := range req.HubIDs {
		if !slices.Contains(req.Vertices, v) {
			return badRequest(fmt.Sprintf("hub_ids names vertex %d, which is not in vertices", v))
		}
		run := sn.fx.fwd.RunInto(nil, v)
		ids := make([]int, len(run))
		for i, e := range run {
			ids[i] = sn.fx.perm[e>>32]
		}
		resp.HubIDs[strconv.Itoa(v)] = ids
	}
	sn.srv.queries.Add(int64(len(req.Vertices) + len(req.Backward)))
	writeJSON(w, http.StatusOK, resp)
	return nil
}

// shardScan serves the internal scan protocol behind the router's /knn
// and /matrix: the router fetches the source's forward run once, then
// ships it to the shards owning the candidates, and each shard scans only
// its own label rows.
func (sn *Snapshot) shardScan(w http.ResponseWriter, r *http.Request) error {
	const usage = `a JSON object {"run":...,"k":...,"targets":[...]}`
	if err := sn.shardOnly(r, "shardscan", "POST "+usage); err != nil {
		return err
	}
	req := shardScanRequest{Exclude: -1}
	if err := decodeBody(w, r, maxBatchBytes, &req, usage, false); err != nil {
		return err
	}
	n := sn.fx.NumVertices()
	run, err := decodePackedRun(req.Run, n)
	if err != nil {
		return badRequest(err.Error())
	}
	if req.K < 0 || req.K > n {
		return badRequest(fmt.Sprintf("k must be in [0,%d]", n))
	}
	if err := sn.ownedIDs(req.Targets); err != nil {
		return err
	}
	resp := shardScanResponse{shardStamp: sn.stamp()}
	if req.K > 0 {
		resp.Neighbors = sn.fx.KNNFromRun(run, req.K, req.Exclude)
	}
	if len(req.Targets) > 0 {
		resp.Dists = make([]float64, len(req.Targets))
		scratch := sn.fx.scratch.Get(n)
		sn.fx.matrixRowInto(scratch, resp.Dists, run, req.Targets)
		sn.fx.scratch.Put(scratch)
		wireDists(resp.Dists)
	}
	sn.srv.queries.Add(1)
	writeJSON(w, http.StatusOK, resp)
	return nil
}

func boolGauge(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

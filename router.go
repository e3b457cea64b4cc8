package chl

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/delta"
	"repro/internal/label"
	"repro/internal/shard"
)

// Router fronts a cluster of shard servers and answers the same query API
// a single-process Server does, over an index too large for one process.
// Routing is QDOL-style (internal/query, §6 of the paper): every query is
// sent point-to-point to the shards owning its endpoints, never broadcast.
//
//   - Both endpoints on one shard: the router forwards the query whole;
//     the shard answers it alone from its local label runs (and its own
//     per-snapshot answer cache), exactly QDOL's owner-node case.
//   - Endpoints on two shards: where QDOL would have pre-replicated the
//     partition pair onto a common node, the router instead fetches the
//     two packed label rows (POST /shardquery) and hub-joins them locally
//     with the same scratch kernels BatchEngine serves with — one join,
//     two small messages, Θ(1/N) memory per shard instead of QDOL's
//     Θ(1/√q).
//
// Answers are bit-identical to a single-process FlatIndex over the
// unsharded file: the fetched rows are byte-identical slices of the
// shards' entry arrays and the join kernels are shared (label.JoinPacked
// / JoinPackedWith).
//
// Directed clusters (a v3 manifest with directed=true, split from a
// directed index) serve the same API with ordered semantics: /dist?u=&v=
// is the u→v distance. Same-shard queries forward unchanged (the shard's
// engine joins forward(u) × backward(v) locally); cross-shard queries
// fetch u's forward row from u's shard and v's BACKWARD row from v's,
// and the answer cache keys on ordered pairs so d(u→v) can never serve
// for d(v→u).
//
// Each shard may be served by a replica group — several processes over
// the same slice file (a v2 manifest's replica_addrs, or
// RouterConfig.ReplicaAddrs). The router load-balances every shard
// request across the group's healthy replicas with power-of-two-choices
// on in-flight counts, and fails over: a request that dies on one
// replica is retried on the next, so a query only fails when every
// replica of a shard is down. Per-replica health is tracked by
// consecutive failures — past ejectAfter of them the replica is ejected
// and sits out a probation window, after which exactly one request is
// routed to it as a probe (success rejoins it, failure re-ejects it).
// Ejection only steers; it never turns a reachable replica into a
// failure: when a whole group is ejected the router still tries them.
//
// The router keeps its own sharded LRU answer cache (the PR-2 Cache).
// Every shard response carries the answering replica's snapshot identity
// — its generation, a per-process epoch, and the snapshot's content hash
// (FlatIndex.ContentHash), so restarts are as visible as reloads;
// identities are tracked per replica (two replicas of one shard are
// different processes with different epochs). When any replica's
// identity moves to different content — it reloaded or restarted over
// changed bytes, possibly before its siblings — the router retires the
// whole cache: the same "a cache never outlives its index" rule the
// single-process tier enforces per Snapshot, lifted to the cluster. An
// identity that moved over the SAME content — a restart or no-op reload,
// even a coordinated whole-cluster restart — keeps the cache, because
// the durable content hash vouches for every cached answer. A sibling
// that did not change keeps validating against its own unchanged
// identity, so its answers re-enter a fresh cache immediately.
//
// The front door is traffic-shaped (see shaping.go and the "Traffic
// shaping" chapter of ARCHITECTURE.md): identical in-flight queries are
// collapsed to one backend round trip, slow shard calls are hedged at a
// second replica after HedgeDelay, overload is shed with 429s (global
// concurrency gate + per-client token buckets), and cross-shard witness
// resolutions are conflated into batched calls. All of its timers read
// the injected Clock, so every behavior is testable under a FakeClock.
//
// Failures degrade per shard: a query touching only shards with at least
// one live replica is unaffected, and one touching a fully-down shard
// gets a 502 whose JSON body names the shard and each replica's failure
// (see ClusterError). Use Health for the per-replica view the /healthz
// endpoint serves.
type Router struct {
	n    int
	part *shard.Partition
	// directed mirrors the manifest's flag: the cluster serves a
	// directed index, so the answer cache keys on ordered pairs and
	// cross-shard joins fetch forward(u) from u's shard and backward(v)
	// from v's. Every /shardquery response echoes the shard's own
	// directedness and a mismatch is a terminal error — manifest drift
	// must be loud, not silently wrong joins.
	directed bool
	shards   []*shardClient
	client   *http.Client

	cacheSize int
	state     atomic.Pointer[routerState]

	ejectAfter int64
	probation  time.Duration

	// Traffic shaping (see shaping.go and ARCHITECTURE.md): every time
	// source below goes through clock so the hedging/ejection/quota
	// machinery is deterministic under a FakeClock.
	clock       Clock
	hedgeDelay  time.Duration // 0 disables hedging
	maxInFlight int64         // 0 disables the concurrency gate
	flights     flightGroup   // collapses identical in-flight pairs
	quota       *quotaLimiter // nil disables per-client quotas

	metrics        *httpMetrics
	queries        atomic.Int64
	crossJoins     atomic.Int64
	failovers      atomic.Int64
	cacheResets    atomic.Int64
	hedges         atomic.Int64 // hedge attempts actually launched
	collapsed      atomic.Int64 // queries collapsed into another's flight
	shed           atomic.Int64 // HTTP requests answered 429
	shapeInFlight  atomic.Int64 // /dist + /batch currently being served
	resolveRanks   atomic.Int64 // witness ranks resolved (batched or not)
	resolveBatches atomic.Int64 // /shardquery resolve round trips
	start          time.Time

	// Dynamic-update state (RouterConfig.BaseGraph / UpdateJournal):
	// baseGraph is the graph the cluster's shard files were built from;
	// patchOps is the patch log accumulated so far, guarded by patchMu
	// along with patchBatches. journalLoaded flips once the journal has
	// been replayed — lazily, on the first query or update, because
	// NewRouter must not contact shards (replay pins patch-vertex rows).
	baseGraph     *Graph
	journal       string
	patchMu       sync.Mutex
	patchOps      []EdgeOp
	patchBatches  uint64
	journalLoaded atomic.Bool
	updates       atomic.Int64

	// Per-replica witness-resolution batchers (resolveRankOn): conflates
	// concurrent rank resolutions pinned to one replica into single
	// batched /shardquery calls. Keyed by replica pointer, so the map is
	// bounded by the cluster size.
	resolveMu sync.Mutex
	resolvers map[*replica]*resolveBatcher

	scratch label.ScratchPool // probe buffers sized n, for cross-shard joins
}

// routerState pairs the answer cache with the per-replica snapshot
// identities it was built against. Identity is the (epoch, generation,
// content-hash) triple each shard replica stamps its responses with:
// generations restart at 1 in every process, so the per-process epoch
// makes a replica restart as visible as a reload, and the content hash
// (FlatIndex.ContentHash, durable across processes and hosts) says
// whether the bytes behind the new identity actually changed.
// Identities are totally ordered — generations within one process, and
// epochs across processes (an epoch leads with its process start time in
// milliseconds; see Server) — which lets noteGenerations ignore any
// stale observation from a request that raced a reload or restart
// instead of mistaking it for another change. The zero genObs means
// "not yet observed". The state is swapped atomically whenever a
// replica's identity moves, so answers computed against a retired
// snapshot can never enter the live cache — but the cache itself is
// only retired when the content hash changed: a coordinated restart
// over the same slice files moves every epoch and costs nothing.
type routerState struct {
	idents [][]genObs // [shard][replica]
	cache  *Cache
	// patch is the outstanding delta overlay, built over the patch
	// vertices' label rows as fetched when the batch was applied (nil
	// when no edge updates are outstanding). It rides the
	// state pointer so a patch batch swaps overlay and cache in one
	// atomic publish: every query sees a coherent (overlay, cache) pair,
	// and the fresh cache instance is the patch-epoch discriminant that
	// retires pre-patch answers exactly once per batch.
	patch *delta.Overlay
}

// patchEpoch returns the state's overlay epoch (0 = no outstanding
// patches) — the discriminant mixed into singleflight keys so a flight
// computed before a patch batch cannot feed a query arriving after it.
func (st *routerState) patchEpoch() uint64 {
	if st.patch == nil {
		return 0
	}
	return st.patch.Epoch()
}

// genObs is one observed snapshot identity. hash is the snapshot's
// content hash (0 = backend predates stamping / unknown, treated as
// always-changed for safety).
type genObs struct {
	epoch, gen uint64
	hash       uint64
}

// repRef names one replica of one shard — the key identity observations
// are tracked under.
type repRef struct {
	shard, rep int
}

// errNotShardBackend rejects a 200 response without a snapshot identity:
// the backend is a plain server, not a shard (started without
// -manifest/-shard). Its answers may be right today, but its reloads
// would be invisible to the router's cache retirement — loud refusal
// beats silent staleness.
var errNotShardBackend = errors.New("backend did not stamp a snapshot identity — is it a shard server (started with -manifest and -shard)?")

// Replica health states.
const (
	replicaHealthy = int32(iota)
	replicaEjected
)

// replica tracks one serving process of one shard's replica group.
type replica struct {
	shard int
	id    int
	addr  string // base URL, no trailing slash

	inflight  atomic.Int64 // requests currently outstanding (p2c load signal)
	requests  atomic.Int64
	errors    atomic.Int64
	ejections atomic.Int64

	// Ejection state machine: consecFails counts consecutive failures;
	// at ejectAfter the replica is ejected and retryAt names the end of
	// its probation, after which one request (the probing-flag holder)
	// probes it — success rejoins, failure re-ejects for another window.
	consecFails atomic.Int64
	state       atomic.Int32
	retryAt     atomic.Int64 // unix nanos; valid while ejected
	probing     atomic.Bool

	lastGen atomic.Uint64 // last generation this replica reported, for /stats
	mu      sync.Mutex
	lastErr string

	// Clock-step self-heal (see noteGenerations): an epoch older than
	// the adopted one is normally a delayed response from a dead
	// process, but a host clock stepped backwards across a restart makes
	// the *live* process look old. staleSeen counts consecutive
	// responses bearing the same older epoch; past a small threshold it
	// must be the live process and is adopted.
	staleEpoch atomic.Uint64
	staleSeen  atomic.Int64
}

// staleAdoptThreshold is how many consecutive responses under the same
// older epoch convince the router it is the live process (a backwards
// clock step at restart) rather than stragglers from a dead one.
const staleAdoptThreshold = 3

func (rep *replica) setErr(err error) {
	rep.mu.Lock()
	rep.lastErr = err.Error()
	rep.mu.Unlock()
}

// succeed records a completed request: the replica is healthy, whatever
// its state said, and any probe it was holding is done.
func (rep *replica) succeed() {
	rep.consecFails.Store(0)
	rep.state.Store(replicaHealthy)
	rep.probing.Store(false)
	rep.mu.Lock()
	rep.lastErr = ""
	rep.mu.Unlock()
}

// fail records a replica-level failure (transport error or 5xx) at time
// now (the router's clock — fake in tests): it counts toward ejection,
// and a failure while ejected — a probe, or a desperation attempt with
// every sibling down — pushes the next probe a full probation window
// out.
func (rep *replica) fail(err error, ejectAfter int64, probation time.Duration, now time.Time) {
	rep.errors.Add(1)
	rep.setErr(err)
	fails := rep.consecFails.Add(1)
	if rep.state.Load() == replicaEjected {
		rep.retryAt.Store(now.Add(probation).UnixNano())
		rep.probing.Store(false)
		return
	}
	if fails >= ejectAfter && rep.state.CompareAndSwap(replicaHealthy, replicaEjected) {
		rep.ejections.Add(1)
		rep.retryAt.Store(now.Add(probation).UnixNano())
	}
}

// terminalFail records a request-level failure — a 4xx or a malformed
// payload — at time now. It counts as an error but not toward ejection
// (the transport worked; a sibling would answer the same). An ejected
// replica whose probe ends here must release the probe flag and wait out
// another probation window: the probe proved the process answers, but
// not that it serves — and a held flag would lock the replica out of
// re-probing forever.
func (rep *replica) terminalFail(err error, probation time.Duration, now time.Time) {
	rep.errors.Add(1)
	rep.setErr(err)
	if rep.state.Load() == replicaEjected {
		rep.retryAt.Store(now.Add(probation).UnixNano())
		rep.probing.Store(false)
	}
}

// hedgeCanceled records an attempt the router itself canceled (its hedge
// sibling answered first). Health-neutral — the replica did nothing
// wrong — but a held probe flag must be released, or a probe attempt
// that lost a hedge race would lock its replica out of rotation forever.
func (rep *replica) hedgeCanceled() {
	rep.probing.Store(false)
}

// shardClient is one shard's replica group.
type shardClient struct {
	id   int
	reps []*replica
}

func (c *shardClient) addrList() string {
	addrs := make([]string, len(c.reps))
	for i, rep := range c.reps {
		addrs[i] = rep.addr
	}
	return strings.Join(addrs, ",")
}

// pick chooses the next replica to try for one request, skipping those
// already tried by this request's earlier attempts. Selection order:
//
//  1. An ejected replica whose probation has expired, if this request
//     wins the probe flag — exactly one in-flight request probes a
//     recovering replica, everyone else keeps using its siblings.
//  2. A healthy replica, by power-of-two-choices on in-flight counts:
//     two random candidates, the less loaded one wins. Random pairing
//     keeps a slow replica from capturing all traffic decisions; the
//     in-flight comparison steers around it.
//  3. Desperation: every untried replica is ejected (probation pending
//     or probe held elsewhere). Try the least loaded anyway — ejection
//     must steer traffic, never fail a query a live replica could have
//     answered.
//
// Returns nil once every replica has been tried. now is the caller's
// clock reading in unix nanos (the router's injected clock, so probation
// expiry is testable without real sleeps).
func (c *shardClient) pick(tried []bool, now int64) *replica {
	for _, rep := range c.reps {
		if tried[rep.id] || rep.state.Load() != replicaEjected {
			continue
		}
		if now >= rep.retryAt.Load() && rep.probing.CompareAndSwap(false, true) {
			return rep
		}
	}
	var healthy []*replica
	for _, rep := range c.reps {
		if !tried[rep.id] && rep.state.Load() == replicaHealthy {
			healthy = append(healthy, rep)
		}
	}
	switch len(healthy) {
	case 0:
	case 1:
		return healthy[0]
	default:
		i := rand.Intn(len(healthy))
		j := rand.Intn(len(healthy) - 1)
		if j >= i {
			j++
		}
		if healthy[j].inflight.Load() < healthy[i].inflight.Load() {
			return healthy[j]
		}
		return healthy[i]
	}
	var best *replica
	for _, rep := range c.reps {
		if tried[rep.id] {
			continue
		}
		if best == nil || rep.inflight.Load() < best.inflight.Load() {
			best = rep
		}
	}
	return best
}

// ShardError reports a failed request to one shard. Replica names the
// replica that produced a request-level error, or -1 when the whole
// replica group failed (Err then lists each replica's failure).
type ShardError struct {
	Shard   int
	Replica int
	Addr    string
	Err     error
}

func (e *ShardError) Error() string {
	return fmt.Sprintf("shard %d (%s): %v", e.Shard, e.Addr, e.Err)
}

func (e *ShardError) Unwrap() error { return e.Err }

// ClusterError aggregates the shard failures of one routed request — the
// partial-failure error body: shards not listed answered fine, but the
// request needed the listed ones, and every replica of each listed shard
// failed.
type ClusterError struct {
	Failed []*ShardError
}

func (e *ClusterError) Error() string {
	parts := make([]string, len(e.Failed))
	for i, f := range e.Failed {
		parts[i] = f.Error()
	}
	return "cluster degraded: " + strings.Join(parts, "; ")
}

// VertexRangeError reports a query for an id outside the cluster's vertex
// space; the HTTP layer turns it into a 400.
type VertexRangeError struct {
	ID, N int
}

func (e *VertexRangeError) Error() string {
	return fmt.Sprintf("vertex id %d out of range [0,%d)", e.ID, e.N)
}

// RouterConfig configures NewRouter.
type RouterConfig struct {
	// Manifest describes the cluster (vertex count and ring); usually
	// shard.ReadManifest of the splitter's cluster.json.
	Manifest *shard.Manifest
	// Addrs are the shard servers' base URLs, indexed by shard id — the
	// unreplicated form, equivalent to one-element replica groups.
	Addrs []string
	// ReplicaAddrs are the per-shard replica groups, indexed by shard id:
	// every address in group i serves shard i's slice file. Takes
	// precedence over Addrs; when both are empty the manifest's
	// replica_addrs (v2) are used.
	ReplicaAddrs [][]string
	// CacheSize bounds the router's answer cache; <= 0 disables it.
	CacheSize int
	// Timeout bounds each shard request (default 5s).
	Timeout time.Duration
	// EjectAfter is how many consecutive failures eject a replica from
	// rotation (default 3).
	EjectAfter int
	// Probation is how long an ejected replica sits out before the
	// router probes it with one request (default 2s).
	Probation time.Duration
	// HedgeDelay is how long a shard request waits before hedging: firing
	// the same call at a second replica and taking whichever answers
	// first (the loser is canceled). 0 disables hedging. Only shards with
	// more than one replica hedge; witness-rank resolution never does
	// (it is pinned to one process by construction).
	HedgeDelay time.Duration
	// MaxInFlight caps concurrently served /dist and /batch HTTP
	// requests; excess requests are shed with a 429 (reason
	// "over_capacity"). 0 disables the gate. Only shapes the HTTP front
	// door — direct Query/Batch calls are never shed.
	MaxInFlight int
	// ClientQPS is the per-client sustained request rate on /dist and
	// /batch, keyed on the X-Client-ID header (falling back to the remote
	// host). Clients over quota are shed with a 429 (reason
	// "client_quota"). 0 disables quotas.
	ClientQPS float64
	// ClientBurst is the per-client burst on top of ClientQPS; <= 0
	// defaults to max(1, ClientQPS).
	ClientBurst int
	// BaseGraph enables dynamic edge updates (POST /update): it must be
	// the exact graph the cluster's shard files were built from. The
	// router corrects queries locally against a delta overlay — shards
	// stay frozen and never see updates. Nil disables updates.
	BaseGraph *Graph
	// UpdateJournal names the router's patch journal: accepted batches
	// are appended (and fsynced) before they serve, and journaled ops
	// are replayed on the first query after a restart. "" disables
	// journaling. Requires BaseGraph.
	UpdateJournal string
	// Clock overrides the router's time source — hedging, ejection,
	// probation, quotas, and uptime all read it. Nil means the real
	// clock; tests inject a FakeClock.
	Clock Clock
	// Client overrides the HTTP client (tests, custom transports);
	// Timeout is ignored when set.
	Client *http.Client
}

// NewRouter validates the cluster description and returns a router.
// Shards are not contacted — a router starts (and serves what it can)
// even while part of the cluster is down.
func NewRouter(cfg RouterConfig) (*Router, error) {
	if cfg.Manifest == nil {
		return nil, fmt.Errorf("chl: router needs a manifest")
	}
	if err := cfg.Manifest.Validate(); err != nil {
		return nil, err
	}
	groups := cfg.ReplicaAddrs
	if groups == nil && len(cfg.Addrs) > 0 {
		groups = make([][]string, len(cfg.Addrs))
		for i, a := range cfg.Addrs {
			groups[i] = []string{a}
		}
	}
	if groups == nil {
		groups = cfg.Manifest.ReplicaAddrs
	}
	if groups == nil {
		return nil, fmt.Errorf("chl: router needs shard addresses: Addrs, ReplicaAddrs, or a v2 manifest with replica_addrs")
	}
	if len(groups) != cfg.Manifest.Shards {
		return nil, fmt.Errorf("chl: manifest has %d shards but %d address groups given", cfg.Manifest.Shards, len(groups))
	}
	part, err := cfg.Manifest.Partition()
	if err != nil {
		return nil, err
	}
	client := cfg.Client
	if client == nil {
		timeout := cfg.Timeout
		if timeout <= 0 {
			timeout = 5 * time.Second
		}
		client = &http.Client{Timeout: timeout}
	}
	ejectAfter := int64(cfg.EjectAfter)
	if ejectAfter <= 0 {
		ejectAfter = 3
	}
	probation := cfg.Probation
	if probation <= 0 {
		probation = 2 * time.Second
	}
	clock := cfg.Clock
	if clock == nil {
		clock = realClock{}
	}
	hedgeDelay := cfg.HedgeDelay
	if hedgeDelay < 0 {
		hedgeDelay = 0
	}
	if cfg.UpdateJournal != "" && cfg.BaseGraph == nil {
		return nil, fmt.Errorf("chl: UpdateJournal requires BaseGraph — the journal is replayed against it")
	}
	if cfg.BaseGraph != nil {
		if cfg.BaseGraph.NumVertices() != cfg.Manifest.Vertices {
			return nil, fmt.Errorf("chl: base graph has %d vertices but the manifest says %d — not the graph this cluster was built from?", cfg.BaseGraph.NumVertices(), cfg.Manifest.Vertices)
		}
		if cfg.BaseGraph.Directed() != cfg.Manifest.Directed {
			return nil, fmt.Errorf("chl: base graph directedness (%v) does not match the manifest (%v)", cfg.BaseGraph.Directed(), cfg.Manifest.Directed)
		}
	}
	r := &Router{
		n:           cfg.Manifest.Vertices,
		part:        part,
		directed:    cfg.Manifest.Directed,
		client:      client,
		cacheSize:   cfg.CacheSize,
		ejectAfter:  ejectAfter,
		probation:   probation,
		clock:       clock,
		hedgeDelay:  hedgeDelay,
		maxInFlight: int64(cfg.MaxInFlight),
		quota:       newQuotaLimiter(clock, cfg.ClientQPS, cfg.ClientBurst),
		metrics:     newHTTPMetrics(clock, "/dist", "/batch", "/paths", "/knn", "/matrix", "/stats", "/reload", "/update", "/healthz"),
		start:       clock.Now(),
		baseGraph:   cfg.BaseGraph,
		journal:     cfg.UpdateJournal,
	}
	if r.journal == "" {
		r.journalLoaded.Store(true) // nothing to replay; skip the mutex fast path
	}
	idents := make([][]genObs, len(groups))
	for i, group := range groups {
		if len(group) == 0 {
			return nil, fmt.Errorf("chl: shard %d has an empty replica group", i)
		}
		c := &shardClient{id: i}
		for j, a := range group {
			if a == "" {
				return nil, fmt.Errorf("chl: shard %d replica %d has an empty address", i, j)
			}
			c.reps = append(c.reps, &replica{shard: i, id: j, addr: strings.TrimRight(a, "/")})
		}
		r.shards = append(r.shards, c)
		idents[i] = make([]genObs, len(group))
	}
	r.state.Store(&routerState{
		idents: idents,
		cache:  r.newAnswerCache(),
	})
	return r, nil
}

// newAnswerCache builds a cluster-level answer cache matching the
// cluster's directedness (ordered keys for directed clusters).
func (r *Router) newAnswerCache() *Cache { return newCache(r.cacheSize, r.directed) }

// NumVertices returns the vertex-id space the cluster serves.
func (r *Router) NumVertices() int { return r.n }

// Directed reports whether the cluster serves a directed index.
func (r *Router) Directed() bool { return r.directed }

// hubUnknown marks a cached answer whose witness hub was never computed
// (batch paths only need distances). QueryHub treats such hits as misses.
const hubUnknown = -1

// Query answers one point-to-point query through the cluster. Unlike
// QueryHub it never pays the witness-resolution round trip.
func (r *Router) Query(u, v int) (float64, error) {
	d, _, _, err := r.queryHub(u, v, false)
	return d, err
}

// QueryHub answers one query with its witness hub (an original vertex
// id), exactly as Server.QueryHub does on the unsharded index.
func (r *Router) QueryHub(u, v int) (dist float64, hub int, ok bool, err error) {
	return r.queryHub(u, v, true)
}

// queryHub is the shared single-query path. needHub=false (Query) skips
// the witness-rank resolution round trip on cross-shard misses — the
// hub would be discarded anyway, and Batch already caches hub-less
// answers the same way.
//
// Concurrent duplicate misses are collapsed (flightGroup): the first
// caller for a pair routes it, everyone else arriving before it returns
// waits for that answer — under hot-pair traffic a thundering herd
// costs one backend round trip. The flight key follows the cache's
// pairKey discipline (ordered for directed clusters), split by needHub
// because a hub-less flight cannot feed a hub-needing caller.
func (r *Router) queryHub(u, v int, needHub bool) (dist float64, hub int, ok bool, err error) {
	if u < 0 || u >= r.n {
		return 0, 0, false, &VertexRangeError{ID: u, N: r.n}
	}
	if v < 0 || v >= r.n {
		return 0, 0, false, &VertexRangeError{ID: v, N: r.n}
	}
	if err := r.ensurePatch(); err != nil {
		return 0, 0, false, err
	}
	st := r.state.Load()
	if st.cache != nil {
		if a, hit := st.cache.Get(u, v); hit && (!needHub || a.Hub != hubUnknown || !a.Reachable) {
			r.queries.Add(1)
			return a.Dist, a.Hub, a.Reachable, nil
		}
	}
	r.queries.Add(1)
	key := flightKeyFor(flightDist, r.directed, u, v, needHub, st.patchEpoch())
	res := r.flights.do(key, func() { r.collapsed.Add(1) }, func() flightResult {
		if st.patch != nil {
			return r.routePatchedQueryHub(st, u, v, needHub)
		}
		return r.routeQueryHub(st, u, v, needHub)
	})
	if res.err != nil {
		return 0, 0, false, res.err
	}
	return res.dist, res.hub, res.ok, nil
}

// routeQueryHub is the leader's half of queryHub: route the miss to the
// owning shard(s) and feed the answer to the cache.
func (r *Router) routeQueryHub(st *routerState, u, v int, needHub bool) flightResult {
	su, sv := r.part.Owner(u), r.part.Owner(v)
	obs := map[repRef]genObs{}
	var (
		dist float64
		hub  int
		ok   bool
		err  error
	)
	if su == sv {
		dist, hub, ok, err = r.fetchDist(su, u, v, obs)
	} else {
		dist, hub, ok, err = r.crossQueryHub(su, sv, u, v, obs, needHub)
	}
	if err != nil {
		return flightResult{err: err}
	}
	r.cachePut(st, obs, u, v, Answer{Dist: dist, Hub: hub, Reachable: ok})
	return flightResult{dist: dist, hub: hub, ok: ok}
}

// Batch answers a batch of queries through the cluster, returning the
// distances in order (Infinity for unreachable pairs). Same-shard pairs
// are forwarded whole, one sub-batch per shard; cross-shard pairs are
// answered by fetching each involved vertex's label row once per shard
// and hub-joining at the router. All shard traffic for a batch runs
// concurrently; each shard request load-balances and fails over within
// the shard's replica group independently.
func (r *Router) Batch(pairs []QueryPair) ([]float64, error) {
	if err := r.ensurePatch(); err != nil {
		return nil, err
	}
	dists := make([]float64, len(pairs))
	st := r.state.Load()

	// Under a delta overlay every pair needs the seeded correction; the
	// batch row-join fast path below answers from frozen labels only, so
	// it is bypassed — each pair runs the (cached, collapsed) corrected
	// single-query path instead.
	if st.patch != nil {
		for i, p := range pairs {
			d, _, _, err := r.queryHub(p.U, p.V, false)
			if err != nil {
				return nil, err
			}
			dists[i] = d
		}
		return dists, nil
	}

	// Cache pass; pending collects the misses.
	pending := make([]int, 0, len(pairs))
	for i, p := range pairs {
		if p.U < 0 || p.U >= r.n {
			return nil, &VertexRangeError{ID: p.U, N: r.n}
		}
		if p.V < 0 || p.V >= r.n {
			return nil, &VertexRangeError{ID: p.V, N: r.n}
		}
		if st.cache != nil {
			if a, hit := st.cache.Get(p.U, p.V); hit {
				dists[i] = a.Dist
				continue
			}
		}
		pending = append(pending, i)
	}
	r.queries.Add(int64(len(pairs)))
	if len(pending) == 0 {
		return dists, nil
	}

	// Group the misses: same-shard sub-batches and cross-shard row needs.
	// On a directed cluster a cross pair (u,v) needs u's forward row and
	// v's backward row; undirected clusters need only (symmetric) forward
	// rows for both endpoints.
	direct := map[int][]int{} // shard id -> indexes into pairs
	cross := make([]int, 0)
	needF := map[int]map[int]struct{}{} // shard id -> forward-row vertex set
	needB := map[int]map[int]struct{}{} // shard id -> backward-row vertex set (directed)
	addNeed := func(m map[int]map[int]struct{}, s, v int) {
		if m[s] == nil {
			m[s] = map[int]struct{}{}
		}
		m[s][v] = struct{}{}
	}
	for _, i := range pending {
		p := pairs[i]
		su, sv := r.part.Owner(p.U), r.part.Owner(p.V)
		if su == sv {
			direct[su] = append(direct[su], i)
			continue
		}
		cross = append(cross, i)
		addNeed(needF, su, p.U)
		if r.directed {
			addNeed(needB, sv, p.V)
		} else {
			addNeed(needF, sv, p.V)
		}
	}

	// Fan out: one /batch per direct shard, one /shardquery per row shard
	// (carrying that shard's forward and backward needs together).
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		fails    []*ShardError
		rowsF    = map[int][]uint64{}  // vertex -> decoded forward packed run
		rowsB    = map[int][]uint64{}  // vertex -> decoded backward packed run
		obs      = map[repRef]genObs{} // replica -> observed snapshot identity
		conflict bool                  // one replica answered under two identities
	)
	observe := func(k repRef, o genObs, err *ShardError) {
		mu.Lock()
		defer mu.Unlock()
		if err != nil {
			fails = append(fails, err)
			return
		}
		// A batch may hit the same replica twice (direct sub-batch + row
		// fetch). If a reload lands between the two responses, part of
		// this batch was computed on the retired snapshot, and no single
		// identity can vouch for all of its answers — skip caching. Two
		// *different* replicas of one shard answering is not a conflict:
		// each identity is validated on its own.
		if prev, seen := obs[k]; seen && prev != o {
			conflict = true
		}
		obs[k] = o
	}
	for sid, idxs := range direct {
		wg.Add(1)
		go func(sid int, idxs []int) {
			defer wg.Done()
			sub := make([]QueryPair, len(idxs))
			for k, i := range idxs {
				sub[k] = pairs[i]
			}
			ds, rep, o, err := r.fetchBatch(sid, sub)
			if err != nil {
				observe(repRef{}, genObs{}, err)
				return
			}
			for k, i := range idxs {
				dists[i] = ds[k]
			}
			observe(repRef{sid, rep.id}, o, nil)
		}(sid, idxs)
	}
	rowShards := map[int]struct{}{}
	for sid := range needF {
		rowShards[sid] = struct{}{}
	}
	for sid := range needB {
		rowShards[sid] = struct{}{}
	}
	sortedVerts := func(verts map[int]struct{}) []int {
		vs := make([]int, 0, len(verts))
		for v := range verts {
			vs = append(vs, v)
		}
		sort.Ints(vs)
		return vs
	}
	for sid := range rowShards {
		wg.Add(1)
		go func(sid int) {
			defer wg.Done()
			gotF, gotB, rep, o, err := r.fetchRows(sid, sortedVerts(needF[sid]), sortedVerts(needB[sid]))
			if err != nil {
				observe(repRef{}, genObs{}, err)
				return
			}
			mu.Lock()
			for v, run := range gotF {
				rowsF[v] = run
			}
			for v, run := range gotB {
				rowsB[v] = run
			}
			mu.Unlock()
			observe(repRef{sid, rep.id}, o, nil)
		}(sid)
	}
	wg.Wait()
	if len(fails) > 0 {
		sort.Slice(fails, func(i, j int) bool { return fails[i].Shard < fails[j].Shard })
		return nil, &ClusterError{Failed: fails}
	}

	// Hub-join the cross-shard pairs locally, with the same kernel and
	// scratch-size policy the single-process BatchEngine serves with
	// (label.ScratchPool.GetJoin; a nil scratch merge-joins).
	var s *label.QueryScratch
	if len(cross) > 0 {
		s = r.scratch.GetJoin(r.n)
		defer r.scratch.Put(s)
	}
	for _, i := range cross {
		p := pairs[i]
		a, b := rowsF[p.U], rowsF[p.V]
		if r.directed {
			b = rowsB[p.V]
		}
		d, _, ok := label.JoinPackedWith(s, a, b)
		if !ok {
			d = Infinity
		}
		dists[i] = d
	}
	r.crossJoins.Add(int64(len(cross)))

	// Populate the cache (hub unknown on this path — /batch never needs
	// witnesses; QueryHub will recompute and upgrade the entry). A batch
	// that observed one replica under two identities raced a reload: its
	// answers are correct for the snapshots that computed them but not
	// attributable to a single identity, so they are not cached. The
	// identity validation runs once for the whole batch, then the
	// answers are inserted directly.
	if !conflict && r.cacheValid(st, obs) {
		for _, i := range pending {
			p := pairs[i]
			st.cache.Put(p.U, p.V, Answer{Dist: dists[i], Hub: hubUnknown, Reachable: dists[i] != Infinity})
		}
	} else if conflict {
		r.noteGenerations(obs)
	}
	return dists, nil
}

// cacheValid folds the observations into the router state and reports
// whether answers computed under them may enter st's cache: the cache
// instance the request started with must still be the live one, and
// every replica identity observed while computing must match the live
// state — an answer that raced a replica reload is simply not cached.
// First observations (which adopt identities into the state but keep
// the cache instance) therefore do not lose their answers. The check is
// per request, not per answer: callers validate once and Put in bulk.
func (r *Router) cacheValid(st *routerState, obs map[repRef]genObs) bool {
	r.noteGenerations(obs)
	if st.cache == nil {
		return false
	}
	cur := r.state.Load()
	if cur.cache != st.cache {
		return false // cache retired by an observed reload/restart
	}
	for k, o := range obs {
		if cur.idents[k.shard][k.rep] != o {
			return false
		}
	}
	return true
}

// cachePut is cacheValid plus one insertion — the single-query path.
func (r *Router) cachePut(st *routerState, obs map[repRef]genObs, u, v int, a Answer) {
	if r.cacheValid(st, obs) {
		st.cache.Put(u, v, a)
	}
}

// noteGenerations folds freshly observed replica snapshot identities into
// the router state. First observations are adopted, keeping the current
// cache. An identity move — a reload (same epoch, higher generation) or
// a restart (new epoch) — is classified by the snapshot content hash:
// when the hash is unchanged (a process restart over the same slice
// file, or a reload of identical bytes) the new identity is adopted
// with the cache kept, because every cached answer is still an answer
// the new snapshot would give; only a hash change retires the cache —
// the cluster-level equivalent of the per-snapshot caches below. A
// coordinated whole-cluster restart therefore costs zero cache resets.
// A stale observation (same epoch, generation at or below the known one
// — a slow response that started before a reload) is ignored rather
// than treated as another change, so a content change under concurrent
// traffic retires the cache exactly once. Identities are per replica: a
// replica that reloads new content before its siblings retires the
// cache once, without making the unchanged siblings look stale.
func (r *Router) noteGenerations(obs map[repRef]genObs) {
	// Clock-step pre-pass, once per call (not per CAS retry): count
	// consecutive sightings of the same older epoch; past the threshold
	// it is the live process answering under a stepped-back clock, and
	// must be adopted or the replica would be ignored forever.
	adoptStale := map[repRef]bool{}
	if pre := r.state.Load(); pre != nil {
		for k, o := range obs {
			E := pre.idents[k.shard][k.rep].epoch
			if o.gen == 0 || E == 0 || o.epoch >= E {
				continue
			}
			rep := r.shards[k.shard].reps[k.rep]
			if rep.staleEpoch.Swap(o.epoch) == o.epoch {
				if rep.staleSeen.Add(1) >= staleAdoptThreshold {
					adoptStale[k] = true
					rep.staleSeen.Store(0)
				}
			} else {
				rep.staleSeen.Store(1)
			}
		}
	}
	for {
		st := r.state.Load()
		changed := false
		adopted := false
		apply := func(k repRef, o genObs) bool {
			cur := st.idents[k.shard][k.rep]
			switch {
			case o.gen == 0: // no observation
				return false
			case cur.epoch == 0 && cur.gen == 0: // first sighting of this replica
				return true
			case o.epoch == cur.epoch: // same process: generations are ordered
				return o.gen > cur.gen
			default:
				// Epochs lead with process start time: a larger one is a
				// restart, a smaller one a delayed response from a dead
				// process, which must not regress the state — unless it
				// keeps answering (clock step; see adoptStale).
				return o.epoch > cur.epoch || adoptStale[k]
			}
		}
		for k, o := range obs {
			if !apply(k, o) {
				continue
			}
			cur := st.idents[k.shard][k.rep]
			switch {
			case cur.epoch == 0 && cur.gen == 0:
				adopted = true
			case o.hash != 0 && o.hash == cur.hash:
				// The identity moved but the bytes behind it did not: a
				// restart or no-op reload over the same content. Track the
				// new identity, keep the cache.
				adopted = true
			default:
				changed = true
			}
		}
		if !changed && !adopted {
			return
		}
		next := &routerState{
			idents: make([][]genObs, len(st.idents)),
			cache:  st.cache,
			patch:  st.patch,
		}
		for i, group := range st.idents {
			next.idents[i] = append([]genObs(nil), group...)
		}
		for k, o := range obs {
			if apply(k, o) {
				next.idents[k.shard][k.rep] = o
			}
		}
		if changed {
			next.cache = r.newAnswerCache()
		}
		if r.state.CompareAndSwap(st, next) {
			if changed {
				r.cacheResets.Add(1)
			}
			return
		}
	}
}

// --- shard protocol clients ---

// terminalError marks a request-level failure — a 4xx or a payload the
// router cannot use. Retrying a sibling replica would produce the same
// answer, so withReplica fails the request instead of failing over.
type terminalError struct {
	err error
}

func (e *terminalError) Error() string { return e.err.Error() }
func (e *terminalError) Unwrap() error { return e.err }

// terminalErr folds a request-level failure into rep's health state (see
// replica.terminalFail) and wraps it for the caller. Also used after a
// successful round trip whose payload turns out unusable (missing rows,
// vertex-space mismatch) — the accounting is the same.
func (r *Router) terminalErr(rep *replica, err error) *ShardError {
	rep.terminalFail(err, r.probation, r.clock.Now())
	return &ShardError{Shard: rep.shard, Replica: rep.id, Addr: rep.addr, Err: err}
}

// tryReplica runs one request attempt against rep with the full health
// accounting every caller must agree on: request/in-flight counters
// around call, success resetting the ejection state and releasing any
// held probe, a terminal failure counted without feeding ejection (but
// still releasing the probe — terminalFail), and a replica-level
// failure feeding the ejection/probation machinery. terminal reports
// which kind of failure occurred: terminal ones must not be retried on
// a sibling.
func (r *Router) tryReplica(rep *replica, call func(rep *replica) error) (serr *ShardError, terminal bool) {
	rep.requests.Add(1)
	rep.inflight.Add(1)
	err := call(rep)
	rep.inflight.Add(-1)
	if err == nil {
		rep.succeed()
		return nil, false
	}
	var term *terminalError
	if errors.As(err, &term) {
		return r.terminalErr(rep, term.err), true
	}
	rep.fail(err, r.ejectAfter, r.probation, r.clock.Now())
	return &ShardError{Shard: rep.shard, Replica: rep.id, Addr: rep.addr, Err: err}, false
}

// attemptOutcome is one withReplica attempt's result. canceled marks an
// attempt the router itself canceled (hedge loser): health-neutral, no
// error, no answer.
type attemptOutcome[T any] struct {
	rep      *replica
	out      *T
	serr     *ShardError
	terminal bool
	canceled bool
}

// runAttempt runs one request attempt against rep under ctx with the
// full health accounting: request/in-flight counters around call,
// success resetting the ejection state and releasing any held probe, a
// cancellation (the attempt lost a hedge race) health-neutral but still
// releasing the probe, a terminal failure counted without feeding
// ejection, and a replica-level failure feeding the ejection/probation
// machinery.
func runAttempt[T any](r *Router, ctx context.Context, rep *replica, call func(ctx context.Context, rep *replica) (*T, error)) attemptOutcome[T] {
	rep.requests.Add(1)
	rep.inflight.Add(1)
	out, err := call(ctx, rep)
	rep.inflight.Add(-1)
	if err == nil {
		rep.succeed()
		return attemptOutcome[T]{rep: rep, out: out}
	}
	if ctx.Err() != nil {
		rep.hedgeCanceled()
		return attemptOutcome[T]{rep: rep, canceled: true}
	}
	var term *terminalError
	if errors.As(err, &term) {
		return attemptOutcome[T]{rep: rep, serr: r.terminalErr(rep, term.err), terminal: true}
	}
	rep.fail(err, r.ejectAfter, r.probation, r.clock.Now())
	return attemptOutcome[T]{rep: rep, serr: &ShardError{Shard: rep.shard, Replica: rep.id, Addr: rep.addr, Err: err}}
}

// withReplica runs one logical shard request against shard sid's replica
// group: pick a replica (see shardClient.pick), run call against it, and
// on a replica-level failure fail over to the next untried replica. The
// request fails only when every replica failed (one ShardError listing
// each attempt) or a replica produced a terminal error.
//
// When the router hedges (hedgeDelay > 0 and the group has siblings), an
// attempt that has not answered within hedgeDelay gets a second attempt
// launched at another replica — picked by the same probe/p2c/desperation
// policy — and the first answer wins; the loser's context is canceled on
// return and its outcome discarded as health-neutral. At most one hedge
// fires per logical request (a hedge of a hedge just multiplies load
// when the cluster is slow), and failover keeps working underneath: a
// replica-level failure with no attempt still in flight launches the
// next untried replica immediately, hedged or not.
//
// A package-level generic (methods cannot have type parameters): each
// attempt decodes into its own *T, so a canceled loser can never tear
// the winner's decoded response.
func withReplica[T any](r *Router, sid int, call func(ctx context.Context, rep *replica) (*T, error)) (*T, *replica, *ShardError) {
	c := r.shards[sid]
	tried := make([]bool, len(c.reps))
	// Buffered to the attempt cap: a loser finishing after return must
	// never block on a channel nobody reads.
	outcomes := make(chan attemptOutcome[T], len(c.reps))
	var cancels []context.CancelFunc
	defer func() {
		for _, cancel := range cancels {
			cancel()
		}
	}()
	outstanding := 0
	launch := func() bool {
		rep := c.pick(tried, r.clock.Now().UnixNano())
		if rep == nil {
			return false
		}
		tried[rep.id] = true
		ctx, cancel := context.WithCancel(context.Background())
		cancels = append(cancels, cancel)
		outstanding++
		go func() { outcomes <- runAttempt(r, ctx, rep, call) }()
		return true
	}
	// The hedge timer is registered before the first attempt launches, so
	// once a backend has observably received a request the timer already
	// exists — what lets a FakeClock test Advance past the delay without
	// racing the registration.
	var hedgeC <-chan time.Time
	if r.hedgeDelay > 0 && len(c.reps) > 1 {
		t := r.clock.NewTimer(r.hedgeDelay)
		defer t.Stop()
		hedgeC = t.C()
	}
	launch()
	var attempts []string
	for outstanding > 0 {
		select {
		case o := <-outcomes:
			outstanding--
			if o.canceled {
				continue
			}
			if o.serr == nil {
				return o.out, o.rep, nil
			}
			if o.terminal {
				return nil, nil, o.serr
			}
			attempts = append(attempts, fmt.Sprintf("replica %d (%s): %v", o.rep.id, o.rep.addr, o.serr.Err))
			if outstanding == 0 && launch() {
				r.failovers.Add(1)
			}
		case <-hedgeC:
			hedgeC = nil
			if launch() {
				r.hedges.Add(1)
			}
		}
	}
	return nil, nil, &ShardError{
		Shard: sid, Replica: -1, Addr: c.addrList(),
		Err: fmt.Errorf("all %d replicas failed: %s", len(c.reps), strings.Join(attempts, "; ")),
	}
}

// getJSON GETs path on one replica of shard sid (with failover and
// hedging) and decodes the response body into a fresh *T per attempt,
// returning the replica that answered.
func getJSON[T any](r *Router, sid int, path string) (*T, *replica, *ShardError) {
	return withReplica(r, sid, func(ctx context.Context, rep *replica) (*T, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, rep.addr+path, nil)
		if err != nil {
			return nil, err
		}
		resp, err := r.client.Do(req)
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		out := new(T)
		if err := decodeReplicaResponse(resp, out); err != nil {
			return nil, err
		}
		return out, nil
	})
}

// postJSON POSTs a JSON body to path on one replica of shard sid (with
// failover and hedging), returning the replica that answered.
func postJSON[T any](r *Router, sid int, path string, body any) (*T, *replica, *ShardError) {
	b, err := json.Marshal(body)
	if err != nil {
		return nil, nil, &ShardError{Shard: sid, Replica: -1, Addr: r.shards[sid].addrList(), Err: err}
	}
	return withReplica(r, sid, func(ctx context.Context, rep *replica) (*T, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, rep.addr+path, bytes.NewReader(b))
		if err != nil {
			return nil, err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := r.client.Do(req)
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		out := new(T)
		if err := decodeReplicaResponse(resp, out); err != nil {
			return nil, err
		}
		return out, nil
	})
}

// decodeReplicaResponse turns one replica's HTTP response into out or an
// error: 4xx is terminal (the request is wrong — a sibling would say the
// same), everything else — 5xx, undecodable bodies — is a replica
// failure the caller may retry elsewhere.
func decodeReplicaResponse(resp *http.Response, out any) error {
	if resp.StatusCode != http.StatusOK {
		var eb struct {
			Error string `json:"error"`
		}
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		err := fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
		if json.Unmarshal(msg, &eb) == nil && eb.Error != "" {
			err = fmt.Errorf("status %d: %s", resp.StatusCode, eb.Error)
		}
		if resp.StatusCode >= 400 && resp.StatusCode < 500 {
			return &terminalError{err: err}
		}
		return err
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("undecodable response: %w", err)
	}
	return nil
}

// checkDirected rejects a shard response whose slice directedness
// disagrees with the manifest — on every routed path, same-shard
// forwards included: a directed router accepting an undirected shard's
// symmetric answer would cache d(u,v) as d(u→v), silently wrong.
func (r *Router) checkDirected(rep *replica, directed bool) *ShardError {
	if directed == r.directed {
		return nil
	}
	return r.terminalErr(rep, fmt.Errorf("shard serves directed=%v but the manifest says directed=%v — mismatched index files?", directed, r.directed))
}

// distWire is the shard /dist response as the router reads it.
type distWire struct {
	Reachable  bool    `json:"reachable"`
	Dist       float64 `json:"dist"`
	Hub        int     `json:"hub"`
	Generation uint64  `json:"generation"`
	Epoch      uint64  `json:"epoch"`
	Ident      uint64  `json:"ident"`
	Directed   bool    `json:"directed"`
}

// batchWire is the shard /batch response as the router reads it.
type batchWire struct {
	Dists      []float64 `json:"dists"`
	Generation uint64    `json:"generation"`
	Epoch      uint64    `json:"epoch"`
	Ident      uint64    `json:"ident"`
	Directed   bool      `json:"directed"`
}

// fetchDist forwards a same-shard query whole; the shard answers from its
// local runs and cache, witness hub included.
func (r *Router) fetchDist(sid, u, v int, obs map[repRef]genObs) (float64, int, bool, error) {
	resp, rep, serr := getJSON[distWire](r, sid, fmt.Sprintf("/dist?u=%d&v=%d", u, v))
	if serr != nil {
		return 0, 0, false, &ClusterError{Failed: []*ShardError{serr}}
	}
	if resp.Generation == 0 {
		return 0, 0, false, &ClusterError{Failed: []*ShardError{r.terminalErr(rep, errNotShardBackend)}}
	}
	if serr := r.checkDirected(rep, resp.Directed); serr != nil {
		return 0, 0, false, &ClusterError{Failed: []*ShardError{serr}}
	}
	rep.lastGen.Store(resp.Generation)
	obs[repRef{sid, rep.id}] = genObs{epoch: resp.Epoch, gen: resp.Generation, hash: resp.Ident}
	if !resp.Reachable {
		return Infinity, 0, false, nil
	}
	return resp.Dist, resp.Hub, true, nil
}

// fetchBatch forwards a same-shard sub-batch, translating the wire's -1
// back to Infinity.
func (r *Router) fetchBatch(sid int, pairs []QueryPair) ([]float64, *replica, genObs, *ShardError) {
	body := make([][2]int, len(pairs))
	for i, p := range pairs {
		body[i] = [2]int{p.U, p.V}
	}
	resp, rep, serr := postJSON[batchWire](r, sid, "/batch", body)
	if serr != nil {
		return nil, nil, genObs{}, serr
	}
	if len(resp.Dists) != len(pairs) {
		return nil, nil, genObs{}, r.terminalErr(rep, fmt.Errorf("batch of %d pairs answered with %d distances", len(pairs), len(resp.Dists)))
	}
	if resp.Generation == 0 {
		return nil, nil, genObs{}, r.terminalErr(rep, errNotShardBackend)
	}
	if serr := r.checkDirected(rep, resp.Directed); serr != nil {
		return nil, nil, genObs{}, serr
	}
	for i, d := range resp.Dists {
		if d == -1 {
			resp.Dists[i] = Infinity
		}
	}
	rep.lastGen.Store(resp.Generation)
	return resp.Dists, rep, genObs{epoch: resp.Epoch, gen: resp.Generation, hash: resp.Ident}, nil
}

// fetchRows fetches and validates packed label rows from shard sid —
// forward runs for fwd, backward runs for bwd (directed clusters only) —
// returning the replica that served them (witness-rank resolution must
// go back to that exact process; see crossQueryHub).
func (r *Router) fetchRows(sid int, fwd, bwd []int) (rowsF, rowsB map[int][]uint64, rep *replica, o genObs, serr *ShardError) {
	resp, rep, serr := postJSON[shardQueryResponse](r, sid, "/shardquery", shardQueryRequest{Vertices: fwd, Backward: bwd})
	if serr != nil {
		return nil, nil, nil, genObs{}, serr
	}
	if resp.Generation == 0 {
		return nil, nil, nil, genObs{}, r.terminalErr(rep, errNotShardBackend)
	}
	// A shard serving a file over the wrong vertex space or the wrong
	// directedness (manifest drift) must be a loud error, not silently
	// wrong joins.
	if resp.Vertices != r.n {
		return nil, nil, nil, genObs{}, r.terminalErr(rep, fmt.Errorf("shard serves %d vertices but the manifest says %d — mismatched index files?", resp.Vertices, r.n))
	}
	if serr := r.checkDirected(rep, resp.Directed); serr != nil {
		return nil, nil, nil, genObs{}, serr
	}
	decode := func(vs []int, got map[string]string, side string) (map[int][]uint64, *ShardError) {
		rows := make(map[int][]uint64, len(vs))
		for _, v := range vs {
			enc, found := got[strconv.Itoa(v)]
			if !found {
				return nil, r.terminalErr(rep, fmt.Errorf("%s row for vertex %d missing from response", side, v))
			}
			run, err := decodePackedRun(enc, r.n)
			if err != nil {
				return nil, r.terminalErr(rep, err)
			}
			rows[v] = run
		}
		return rows, nil
	}
	if rowsF, serr = decode(fwd, resp.Rows, "forward"); serr != nil {
		return nil, nil, nil, genObs{}, serr
	}
	if rowsB, serr = decode(bwd, resp.BackRows, "backward"); serr != nil {
		return nil, nil, nil, genObs{}, serr
	}
	rep.lastGen.Store(resp.Generation)
	return rowsF, rowsB, rep, genObs{epoch: resp.Epoch, gen: resp.Generation, hash: resp.Ident}, nil
}

// resolveReply is one waiter's share of a batched resolution.
type resolveReply struct {
	orig int
	obs  genObs
	serr *ShardError
}

// resolveWaiter is one queued rank resolution: the rank and the channel
// its answer is delivered on (buffered — delivery never blocks the
// drainer).
type resolveWaiter struct {
	rank int
	ch   chan resolveReply
}

// resolveBatcher conflates concurrent witness-rank resolutions pinned to
// one replica: while one batched /shardquery call is in flight, newly
// arriving ranks queue up and ride the next call together. Under a
// thundering herd of cross-shard QueryHub misses this folds what used to
// be one round trip per query into one round trip per drain cycle.
type resolveBatcher struct {
	mu    sync.Mutex
	queue []resolveWaiter
	busy  bool // a drain loop is running
}

// resolveRankOn translates a rank-space hub to its original vertex id on
// one specific replica — the one whose snapshot produced the rank. No
// load balancing, no failover, and no hedging: a sibling replica is a
// different process whose identity can never match the row's, and a
// rebuilt index may permute ranks differently. The replica's snapshot
// identity is returned so the caller can verify the resolution used the
// same snapshot the rank came from.
//
// Resolutions for one replica are batched (see resolveBatcher): the
// calling goroutine queues its rank and either starts the drain loop or
// waits for the running one to carry it.
func (r *Router) resolveRankOn(rep *replica, rank int) (int, genObs, *ShardError) {
	r.resolveMu.Lock()
	if r.resolvers == nil {
		r.resolvers = make(map[*replica]*resolveBatcher)
	}
	rb := r.resolvers[rep]
	if rb == nil {
		rb = &resolveBatcher{}
		r.resolvers[rep] = rb
	}
	r.resolveMu.Unlock()
	w := resolveWaiter{rank: rank, ch: make(chan resolveReply, 1)}
	rb.mu.Lock()
	rb.queue = append(rb.queue, w)
	if !rb.busy {
		rb.busy = true
		rb.mu.Unlock()
		go r.drainResolves(rep, rb)
	} else {
		rb.mu.Unlock()
	}
	reply := <-w.ch
	return reply.orig, reply.obs, reply.serr
}

// drainResolves services one replica's resolution queue until it is
// empty: grab everything queued, resolve the deduplicated rank set in
// one pinned /shardquery call, deliver each waiter its answer, repeat.
func (r *Router) drainResolves(rep *replica, rb *resolveBatcher) {
	for {
		rb.mu.Lock()
		waiters := rb.queue
		rb.queue = nil
		if len(waiters) == 0 {
			rb.busy = false
			rb.mu.Unlock()
			return
		}
		rb.mu.Unlock()
		seen := make(map[int]struct{}, len(waiters))
		ranks := make([]int, 0, len(waiters))
		for _, w := range waiters {
			if _, dup := seen[w.rank]; !dup {
				seen[w.rank] = struct{}{}
				ranks = append(ranks, w.rank)
			}
		}
		sort.Ints(ranks)
		r.resolveBatches.Add(1)
		r.resolveRanks.Add(int64(len(waiters)))
		resp, serr := r.resolveOn(rep, ranks)
		for _, w := range waiters {
			if serr != nil {
				w.ch <- resolveReply{serr: serr}
				continue
			}
			orig, found := resp.Resolved[strconv.Itoa(w.rank)]
			if !found {
				w.ch <- resolveReply{serr: r.terminalErr(rep, fmt.Errorf("rank %d missing from resolution response", w.rank))}
				continue
			}
			w.ch <- resolveReply{orig: orig, obs: genObs{epoch: resp.Epoch, gen: resp.Generation, hash: resp.Ident}}
		}
	}
}

// resolveOn runs one pinned, batched rank resolution against rep.
func (r *Router) resolveOn(rep *replica, ranks []int) (*shardQueryResponse, *ShardError) {
	b, err := json.Marshal(shardQueryRequest{Resolve: ranks})
	if err != nil {
		return nil, &ShardError{Shard: rep.shard, Replica: rep.id, Addr: rep.addr, Err: err}
	}
	var resp shardQueryResponse
	serr, _ := r.tryReplica(rep, func(rep *replica) error {
		hresp, err := r.client.Post(rep.addr+"/shardquery", "application/json", bytes.NewReader(b))
		if err != nil {
			return err
		}
		defer hresp.Body.Close()
		return decodeReplicaResponse(hresp, &resp)
	})
	if serr != nil {
		return nil, serr
	}
	rep.lastGen.Store(resp.Generation)
	return &resp, nil
}

// crossQueryHub answers a cross-shard query: fetch the two rows
// concurrently, join locally and — when the caller needs the witness —
// resolve the winning rank to an original id. The witness rank is
// meaningful only in the permutation of the snapshot the rows came
// from, so the resolution is pinned to the replica that served u's row,
// and a resolution that lands on a different snapshot (that replica
// hot-swapped between the two requests — a rebuilt index may permute
// ranks differently) is retried from the row fetch; queries never block
// a reload, they just redo the work. A resolution whose pinned replica
// died retries the same way — the refetched row comes from a sibling,
// which then serves the resolution too. With needHub=false the
// resolution (and with it the retry loop) is skipped and the hub is
// hubUnknown.
func (r *Router) crossQueryHub(su, sv, u, v int, obs map[repRef]genObs, needHub bool) (float64, int, bool, error) {
	const attempts = 3
	var lastErr error
	for try := 0; try < attempts; try++ {
		var (
			wg    sync.WaitGroup
			mu    sync.Mutex
			fails []*ShardError
			rowU  []uint64
			rowV  []uint64
			repU  *replica
			repV  *replica
			obsU  genObs
			obsV  genObs
		)
		fetch := func(sid, vertex int, backward bool, dst *[]uint64, dstRep **replica, rowObs *genObs) {
			defer wg.Done()
			var fwd, bwd []int
			if backward {
				bwd = []int{vertex}
			} else {
				fwd = []int{vertex}
			}
			rowsF, rowsB, rep, o, err := r.fetchRows(sid, fwd, bwd)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				fails = append(fails, err)
				return
			}
			if backward {
				*dst = rowsB[vertex]
			} else {
				*dst = rowsF[vertex]
			}
			*dstRep = rep
			*rowObs = o
			obs[repRef{sid, rep.id}] = o
		}
		// Directed clusters join forward(u) with backward(v); undirected
		// ones use the (symmetric) forward runs for both sides.
		wg.Add(2)
		go fetch(su, u, false, &rowU, &repU, &obsU)
		go fetch(sv, v, r.directed, &rowV, &repV, &obsV)
		wg.Wait()
		if len(fails) > 0 {
			sort.Slice(fails, func(i, j int) bool { return fails[i].Shard < fails[j].Shard })
			return 0, 0, false, &ClusterError{Failed: fails}
		}
		r.crossJoins.Add(1)
		d, rank, ok := label.JoinPacked(rowU, rowV)
		if !ok {
			return Infinity, 0, false, nil
		}
		if !needHub {
			return d, hubUnknown, true, nil
		}
		hub, resolveObs, serr := r.resolveRankOn(repU, int(rank))
		if serr != nil {
			// The pinned replica died between row fetch and resolution;
			// refetch (a sibling will serve both) rather than fail.
			lastErr = serr
			continue
		}
		if resolveObs == obsU {
			return d, hub, true, nil
		}
		// The replica swapped snapshots between row fetch and resolution;
		// the rank may not mean the same vertex anymore. Retry cleanly.
		lastErr = fmt.Errorf("shard %d replica %d reloaded mid-query %d times in a row", su, repU.id, try+1)
	}
	return 0, 0, false, &ClusterError{Failed: []*ShardError{{
		Shard: su, Replica: -1, Addr: r.shards[su].addrList(), Err: lastErr,
	}}}
}

// --- health, stats, HTTP ---

// ReplicaHealth is one replica's state as seen by the router.
type ReplicaHealth struct {
	ID         int    `json:"id"`
	Addr       string `json:"addr"`
	OK         bool   `json:"ok"`
	Ejected    bool   `json:"ejected"`
	Generation uint64 `json:"generation,omitempty"`
	Error      string `json:"error,omitempty"`
}

// ShardHealth is one shard's state as seen by the router: the shard is
// OK while at least one of its replicas answers.
type ShardHealth struct {
	ID         int             `json:"id"`
	Addr       string          `json:"addr"` // first replica, for the unreplicated view
	OK         bool            `json:"ok"`
	Generation uint64          `json:"generation,omitempty"`
	Error      string          `json:"error,omitempty"`
	Replicas   []ReplicaHealth `json:"replicas"`
}

// Health probes every replica's /healthz concurrently and reports each
// one's state; the router serves (degraded) regardless of the outcome.
// Probes feed the same ejection/probation machinery as query traffic, so
// a recovered replica noticed here rejoins rotation immediately.
func (r *Router) Health() []ShardHealth {
	out := make([]ShardHealth, len(r.shards))
	var wg sync.WaitGroup
	for i, c := range r.shards {
		out[i] = ShardHealth{ID: c.id, Addr: c.reps[0].addr, Replicas: make([]ReplicaHealth, len(c.reps))}
		for j, rep := range c.reps {
			wg.Add(1)
			go func(i, j int, rep *replica) {
				defer wg.Done()
				out[i].Replicas[j] = r.probeReplica(rep)
			}(i, j, rep)
		}
	}
	wg.Wait()
	for i := range out {
		for _, rh := range out[i].Replicas {
			if rh.OK {
				out[i].OK = true
				if rh.Generation > out[i].Generation {
					out[i].Generation = rh.Generation
				}
			} else if out[i].Error == "" {
				out[i].Error = fmt.Sprintf("replica %d: %s", rh.ID, rh.Error)
			}
		}
		if out[i].OK {
			out[i].Error = ""
		}
	}
	return out
}

// probeReplica GETs one replica's /healthz, folding the result into the
// replica's health state and the router's identity tracking.
func (r *Router) probeReplica(rep *replica) ReplicaHealth {
	h := ReplicaHealth{ID: rep.id, Addr: rep.addr}
	var resp struct {
		OK         bool   `json:"ok"`
		Generation uint64 `json:"generation"`
		Epoch      uint64 `json:"epoch"`
		Ident      uint64 `json:"ident"`
	}
	serr, _ := r.tryReplica(rep, func(rep *replica) error {
		hresp, err := r.client.Get(rep.addr + "/healthz")
		if err != nil {
			return err
		}
		defer hresp.Body.Close()
		return decodeReplicaResponse(hresp, &resp)
	})
	if serr != nil {
		h.Error = serr.Err.Error()
		h.Ejected = rep.state.Load() == replicaEjected
		return h
	}
	h.OK = resp.OK
	h.Generation = resp.Generation
	rep.lastGen.Store(resp.Generation)
	r.noteGenerations(map[repRef]genObs{{rep.shard, rep.id}: {epoch: resp.Epoch, gen: resp.Generation, hash: resp.Ident}})
	return h
}

// RouterReplicaStats is the per-replica block of RouterShardStats.
type RouterReplicaStats struct {
	ID         int    `json:"id"`
	Addr       string `json:"addr"`
	Requests   int64  `json:"requests_total"`
	Errors     int64  `json:"errors_total"`
	Ejections  int64  `json:"ejections_total"`
	Ejected    bool   `json:"ejected"`
	InFlight   int64  `json:"in_flight"`
	LastError  string `json:"last_error,omitempty"`
	Generation uint64 `json:"generation"` // last observed; 0 = never seen
}

// RouterShardStats is the per-shard block of RouterStats. The counters
// aggregate the shard's replica group; Replicas breaks them down.
type RouterShardStats struct {
	ID         int                  `json:"id"`
	Addr       string               `json:"addr"` // first replica, for the unreplicated view
	Requests   int64                `json:"requests_total"`
	Errors     int64                `json:"errors_total"`
	Ejections  int64                `json:"ejections_total"`
	LastError  string               `json:"last_error,omitempty"`
	Generation uint64               `json:"generation"` // highest observed; 0 = never seen
	Replicas   []RouterReplicaStats `json:"replicas"`
}

// RouterStats is the router's /stats response.
type RouterStats struct {
	Vertices       int                `json:"vertices"`
	Directed       bool               `json:"directed"`
	Shards         []RouterShardStats `json:"shards"`
	Queries        int64              `json:"queries_total"`
	CrossJoins     int64              `json:"cross_joins_total"`
	Failovers      int64              `json:"failovers_total"`
	CacheResets    int64              `json:"cache_resets_total"`
	Hedges         int64              `json:"hedges_total"`
	Collapsed      int64              `json:"collapsed_total"`
	Shed           int64              `json:"shed_total"`
	ResolveBatches int64              `json:"resolve_batches_total"`
	ResolveRanks   int64              `json:"resolve_ranks_total"`
	Updates        int64              `json:"updates_total"`
	UptimeSeconds  float64            `json:"uptime_seconds"`
	Cache          *CacheStats        `json:"cache,omitempty"`
	Patch          *PatchStats        `json:"patch,omitempty"` // outstanding delta overlay, nil when none
}

// Stats reports the router's counters and its view of the cluster.
func (r *Router) Stats() RouterStats {
	out := RouterStats{
		Vertices:       r.n,
		Directed:       r.directed,
		Queries:        r.queries.Load(),
		CrossJoins:     r.crossJoins.Load(),
		Failovers:      r.failovers.Load(),
		CacheResets:    r.cacheResets.Load(),
		Hedges:         r.hedges.Load(),
		Collapsed:      r.collapsed.Load(),
		Shed:           r.shed.Load(),
		ResolveBatches: r.resolveBatches.Load(),
		ResolveRanks:   r.resolveRanks.Load(),
		Updates:        r.updates.Load(),
		UptimeSeconds:  r.clock.Now().Sub(r.start).Seconds(),
	}
	if p := r.state.Load().patch; p != nil {
		ps := p.Stat()
		out.Patch = &ps
	}
	for _, c := range r.shards {
		ss := RouterShardStats{ID: c.id, Addr: c.reps[0].addr}
		for _, rep := range c.reps {
			rep.mu.Lock()
			lastErr := rep.lastErr
			rep.mu.Unlock()
			rs := RouterReplicaStats{
				ID:         rep.id,
				Addr:       rep.addr,
				Requests:   rep.requests.Load(),
				Errors:     rep.errors.Load(),
				Ejections:  rep.ejections.Load(),
				Ejected:    rep.state.Load() == replicaEjected,
				InFlight:   rep.inflight.Load(),
				LastError:  lastErr,
				Generation: rep.lastGen.Load(),
			}
			ss.Requests += rs.Requests
			ss.Errors += rs.Errors
			ss.Ejections += rs.Ejections
			if ss.LastError == "" {
				ss.LastError = rs.LastError
			}
			if rs.Generation > ss.Generation {
				ss.Generation = rs.Generation
			}
			ss.Replicas = append(ss.Replicas, rs)
		}
		out.Shards = append(out.Shards, ss)
	}
	if c := r.state.Load().cache; c != nil {
		cs := c.Stats()
		out.Cache = &cs
	}
	return out
}

// Handler returns the router's HTTP API — the same public surface as a
// single-process Server (GET /dist, POST /batch, GET /paths, GET /knn,
// POST /matrix, GET /stats, GET /healthz, GET /metrics) plus POST
// /reload?shard=I[&replica=J][&path=P], which proxies a hot reload to
// one shard replica. Errors are JSON bodies; shard failures are 502s
// listing the failed shards; shed requests are 429s with a retry-after
// body (see shape).
func (r *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/dist", r.metrics.wrap("/dist", r.shape(r.handleDist)))
	mux.HandleFunc("/batch", r.metrics.wrap("/batch", r.shape(r.handleBatch)))
	mux.HandleFunc("/paths", r.metrics.wrap("/paths", r.shape(r.handlePaths)))
	mux.HandleFunc("/knn", r.metrics.wrap("/knn", r.shape(r.handleKNN)))
	mux.HandleFunc("/matrix", r.metrics.wrap("/matrix", r.shape(r.handleMatrix)))
	mux.HandleFunc("/stats", r.metrics.wrap("/stats", r.handleStats))
	mux.HandleFunc("/healthz", r.metrics.wrap("/healthz", r.handleHealthz))
	mux.HandleFunc("/reload", r.metrics.wrap("/reload", r.handleReload))
	mux.HandleFunc("/update", r.metrics.wrap("/update", r.handleUpdate))
	mux.HandleFunc("/metrics", r.handleMetrics)
	return mux
}

// shape is the admission-control middleware on the query endpoints
// (/dist, /batch, /paths, /knn, and /matrix only — health, stats, and
// operator endpoints must keep answering under overload, that's what
// they are for). Two gates,
// cheapest first: a global concurrency limit, then the per-client token
// bucket. Both shed with a 429 whose JSON body carries the machine-
// usable reason and retry-after (shedBody); shed requests never touch
// the routing layer.
func (r *Router) shape(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, req *http.Request) {
		if r.maxInFlight > 0 {
			if n := r.shapeInFlight.Add(1); n > r.maxInFlight {
				r.shapeInFlight.Add(-1)
				r.shed.Add(1)
				writeShed(w, shedBody{
					Error:             fmt.Sprintf("router over capacity (%d requests in flight)", r.maxInFlight),
					Reason:            shedReasonCapacity,
					RetryAfterSeconds: clampRetryAfter(shedCapacityRetry),
				})
				return
			}
			defer r.shapeInFlight.Add(-1)
		}
		if r.quota != nil {
			key := quotaKey(req.Header.Get(QuotaKeyHeader), req.RemoteAddr)
			if ok, retry := r.quota.take(key); !ok {
				r.shed.Add(1)
				writeShed(w, shedBody{
					Error:             "client over quota",
					Reason:            shedReasonQuota,
					RetryAfterSeconds: clampRetryAfter(retry),
				})
				return
			}
		}
		h(w, req)
	}
}

// routeError maps a routing failure to its HTTP response.
func routeError(w http.ResponseWriter, err error) {
	var vr *VertexRangeError
	if errors.As(err, &vr) {
		// Same body, byte for byte, as the shard tier's /dist range check
		// (see Server.handleDist): clients must see one error schema no
		// matter which tier rejected them.
		httpError(w, http.StatusBadRequest, fmt.Sprintf("vertex ids must be in [0,%d)", vr.N))
		return
	}
	var ce *ClusterError
	if errors.As(err, &ce) {
		failed := make([]map[string]any, len(ce.Failed))
		for i, f := range ce.Failed {
			failed[i] = map[string]any{"shard": f.Shard, "replica": f.Replica, "addr": f.Addr, "error": f.Err.Error()}
		}
		writeJSON(w, http.StatusBadGateway, map[string]any{
			"error":         ce.Error(),
			"failed_shards": failed,
		})
		return
	}
	httpError(w, http.StatusBadGateway, err.Error())
}

func (r *Router) handleDist(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "use GET /dist?u=&v=")
		return
	}
	u, err1 := strconv.Atoi(req.URL.Query().Get("u"))
	v, err2 := strconv.Atoi(req.URL.Query().Get("v"))
	if err1 != nil || err2 != nil {
		httpError(w, http.StatusBadRequest, "u and v must be integer vertex ids")
		return
	}
	d, hub, ok, err := r.QueryHub(u, v)
	if err != nil {
		routeError(w, err)
		return
	}
	resp := map[string]any{"u": u, "v": v, "reachable": ok}
	if ok {
		resp["dist"] = d
		resp["hub"] = hub
	}
	writeJSON(w, http.StatusOK, resp)
}

func (r *Router) handleBatch(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST a JSON array of [u,v] pairs")
		return
	}
	pairs, ok := decodeBatchBody(w, req, r.n)
	if !ok {
		return
	}
	dists, err := r.Batch(pairs)
	if err != nil {
		routeError(w, err)
		return
	}
	for i, d := range dists {
		if d == Infinity {
			dists[i] = -1 // JSON has no +Inf
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"dists": dists})
}

func (r *Router) handleStats(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "use GET /stats")
		return
	}
	writeJSON(w, http.StatusOK, r.Stats())
}

func (r *Router) handleHealthz(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "use GET /healthz")
		return
	}
	shards := r.Health()
	ok := true
	degraded := false
	for _, h := range shards {
		ok = ok && h.OK
		for _, rh := range h.Replicas {
			degraded = degraded || !rh.OK
		}
	}
	code := http.StatusOK
	if !ok {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, map[string]any{"ok": ok, "degraded": degraded, "shards": shards})
}

// handleReload proxies POST /reload?shard=I[&replica=J][&path=P] to one
// shard replica (replica 0 when J is omitted), so an operator can
// hot-swap any serving process through the router. The response is the
// replica's own /reload response.
func (r *Router) handleReload(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "use POST /reload?shard=I&replica=J&path=P")
		return
	}
	sid, err := strconv.Atoi(req.URL.Query().Get("shard"))
	if err != nil || sid < 0 || sid >= len(r.shards) {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("shard must name a shard in [0,%d)", len(r.shards)))
		return
	}
	c := r.shards[sid]
	rid := 0
	if rq := req.URL.Query().Get("replica"); rq != "" {
		rid, err = strconv.Atoi(rq)
		if err != nil || rid < 0 || rid >= len(c.reps) {
			httpError(w, http.StatusBadRequest, fmt.Sprintf("replica must name a replica of shard %d in [0,%d)", sid, len(c.reps)))
			return
		}
	}
	path := "/reload"
	if p := req.URL.Query().Get("path"); p != "" {
		path += "?path=" + url.QueryEscape(p)
	}
	rep := c.reps[rid]
	rep.requests.Add(1)
	resp, err := r.client.Post(rep.addr+path, "application/json", strings.NewReader("{}"))
	if err != nil {
		// Transport failure: the replica really is unreachable.
		rep.fail(err, r.ejectAfter, r.probation, r.clock.Now())
		routeError(w, &ClusterError{Failed: []*ShardError{{Shard: sid, Replica: rid, Addr: rep.addr, Err: err}}})
		return
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if resp.StatusCode != http.StatusOK {
		// The replica spoke; an operator error (bad path → 400) is relayed
		// verbatim, not dressed up as a shard failure — it must not trip
		// error counters or health dashboards.
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(resp.StatusCode)
		w.Write(body)
		return
	}
	var out map[string]any
	if err := json.Unmarshal(body, &out); err != nil {
		routeError(w, &ClusterError{Failed: []*ShardError{r.terminalErr(rep, fmt.Errorf("undecodable reload response: %w", err))}})
		return
	}
	// Successful round trip: the replica is healthy again as far as the
	// router can tell (mirrors withReplica's success path).
	rep.succeed()
	// A successful reload bumped the replica's generation; fold it in now
	// so the next query doesn't serve one answer from the retired cache.
	// The ident says whether the reloaded content actually changed —
	// reloading the same file keeps the cache (see noteGenerations).
	g, gok := out["generation"].(float64)
	e, eok := out["epoch"].(float64)
	id, _ := out["ident"].(float64)
	if gok && eok {
		rep.lastGen.Store(uint64(g))
		r.noteGenerations(map[repRef]genObs{{sid, rid}: {epoch: uint64(e), gen: uint64(g), hash: uint64(id)}})
	}
	writeJSON(w, http.StatusOK, out)
}

// handleMetrics exposes the router in Prometheus text format.
func (r *Router) handleMetrics(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "use GET /metrics")
		return
	}
	st := r.Stats()
	w.Header().Set("Content-Type", promContentType)
	r.metrics.writeTo(w, "chl_router")
	promGauge(w, "chl_router_vertices", "Vertex-id space served by the cluster.", float64(st.Vertices))
	promGauge(w, "chl_router_directed", "1 when the cluster serves a directed index.", boolGauge(st.Directed))
	promGauge(w, "chl_router_shard_count", "Shards behind this router.", float64(len(st.Shards)))
	promGauge(w, "chl_router_uptime_seconds", "Seconds since the router started.", st.UptimeSeconds)
	promCounter(w, "chl_router_queries_total", "Queries routed.", st.Queries)
	promCounter(w, "chl_router_cross_joins_total", "Cross-shard hub joins performed at the router.", st.CrossJoins)
	promCounter(w, "chl_router_failovers_total", "Requests retried on another replica after a replica failure.", st.Failovers)
	promCounter(w, "chl_router_cache_resets_total", "Answer-cache resets after observed shard content changes.", st.CacheResets)
	promCounter(w, "chl_router_hedges_total", "Hedge attempts launched at a second replica after the hedge delay.", st.Hedges)
	promCounter(w, "chl_router_collapsed_total", "Queries collapsed into an identical in-flight query (singleflight).", st.Collapsed)
	promCounter(w, "chl_router_shed_total", "HTTP requests shed with a 429 (capacity or client quota).", st.Shed)
	promCounter(w, "chl_router_resolve_batches_total", "Batched witness-rank resolution round trips.", st.ResolveBatches)
	promCounter(w, "chl_router_resolve_ranks_total", "Witness ranks resolved through the batcher.", st.ResolveRanks)
	if st.Patch != nil {
		promOverlayQueries(w, "chl_router_overlay_queries_total", st.Patch)
	}
	if st.Cache != nil {
		promGauge(w, "chl_router_cache_entries", "Answers currently cached at the router.", float64(st.Cache.Entries))
		promGauge(w, "chl_router_cache_capacity", "Router answer cache capacity.", float64(st.Cache.Capacity))
		promCounter(w, "chl_router_cache_hits_total", "Router answer cache hits.", st.Cache.Hits)
		promCounter(w, "chl_router_cache_misses_total", "Router answer cache misses.", st.Cache.Misses)
	}
	fmt.Fprintf(w, "# HELP chl_router_shard_requests_total Requests sent to each shard (all replicas).\n# TYPE chl_router_shard_requests_total counter\n")
	for _, sh := range st.Shards {
		fmt.Fprintf(w, "chl_router_shard_requests_total{shard=\"%d\"} %d\n", sh.ID, sh.Requests)
	}
	fmt.Fprintf(w, "# HELP chl_router_shard_errors_total Failed requests per shard (all replicas).\n# TYPE chl_router_shard_errors_total counter\n")
	for _, sh := range st.Shards {
		fmt.Fprintf(w, "chl_router_shard_errors_total{shard=\"%d\"} %d\n", sh.ID, sh.Errors)
	}
	fmt.Fprintf(w, "# HELP chl_router_shard_generation Highest observed snapshot generation per shard (0 = never seen).\n# TYPE chl_router_shard_generation gauge\n")
	for _, sh := range st.Shards {
		fmt.Fprintf(w, "chl_router_shard_generation{shard=\"%d\"} %d\n", sh.ID, sh.Generation)
	}
	promReplicaCounter(w, st, "chl_router_replica_requests_total", "Requests sent to each shard replica.",
		func(rs RouterReplicaStats) int64 { return rs.Requests })
	promReplicaCounter(w, st, "chl_router_replica_errors_total", "Failed requests per shard replica.",
		func(rs RouterReplicaStats) int64 { return rs.Errors })
	promReplicaCounter(w, st, "chl_router_replica_ejections_total", "Times each replica was ejected after consecutive failures.",
		func(rs RouterReplicaStats) int64 { return rs.Ejections })
	fmt.Fprintf(w, "# HELP chl_router_replica_ejected 1 while the replica is ejected from rotation.\n# TYPE chl_router_replica_ejected gauge\n")
	for _, sh := range st.Shards {
		for _, rs := range sh.Replicas {
			fmt.Fprintf(w, "chl_router_replica_ejected{shard=\"%d\",replica=\"%d\"} %g\n", sh.ID, rs.ID, boolGauge(rs.Ejected))
		}
	}
	fmt.Fprintf(w, "# HELP chl_router_replica_generation Last observed snapshot generation per replica (0 = never seen).\n# TYPE chl_router_replica_generation gauge\n")
	for _, sh := range st.Shards {
		for _, rs := range sh.Replicas {
			fmt.Fprintf(w, "chl_router_replica_generation{shard=\"%d\",replica=\"%d\"} %d\n", sh.ID, rs.ID, rs.Generation)
		}
	}
}

// promReplicaCounter writes one {shard,replica}-labelled counter family
// from the per-replica stats blocks.
func promReplicaCounter(w io.Writer, st RouterStats, name, help string, get func(RouterReplicaStats) int64) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n", name, help, name)
	for _, sh := range st.Shards {
		for _, rs := range sh.Replicas {
			fmt.Fprintf(w, "%s{shard=\"%d\",replica=\"%d\"} %d\n", name, sh.ID, rs.ID, get(rs))
		}
	}
}

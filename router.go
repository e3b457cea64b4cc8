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
	"slices"
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
// Vertices are placed on a consistent-hash ring (internal/shard): each
// vertex's label runs live on one shard, and every query is sent
// point-to-point to the shards owning its endpoints, never broadcast.
//
//   - Both endpoints on one shard: the router forwards the query whole;
//     the shard answers it alone from its local label runs (and its own
//     per-snapshot answer cache).
//   - Endpoints on two shards: the router fetches the two packed label
//     rows (POST /shardquery) and joins them itself with the same scratch
//     kernels BatchEngine serves with — one join, two small messages,
//     Θ(1/N) memory per shard. u's row arrives with its hubs' original
//     ids, so the witness is read off the same response.
//
// Edge updates (RouterConfig.BaseGraph) change no route: every pair
// routes, joins and caches exactly as above, then the delta overlay
// corrects its frozen answer, forwarded or joined alike.
//
// This is not the paper's QDOL (§6), which places every partition pair on
// one node so that one node answers any pair; internal/query models QDOL,
// and ROADMAP 16 holds pair placement for the router.
//
// Answers are bit-identical to a single-process FlatIndex over the
// unsharded file: the fetched rows are byte-identical slices of the
// shards' entry arrays and the join kernel is shared
// (label.JoinPackedWith).
//
// The router speaks the shard protocol (shardproto.go; ARCHITECTURE.md
// "Shard protocol") through one call and one row fetch: callShard is the
// only way a request reaches a shard — pick, attempt, hedge, fail over,
// decode, stamp check, observe — and fetchRows the only way label rows
// arrive, validated, for every workload that joins or ships them
// (single pairs, /batch, /knn, /matrix, patch application).
//
// Directed clusters (a manifest with directed=true, split from a
// directed index) serve the same API with ordered semantics: /dist?u=&v=
// is the u→v distance. Same-shard queries forward unchanged (the shard's
// engine joins forward(u) × backward(v) locally); cross-shard queries
// fetch u's forward row from u's shard and v's BACKWARD row from v's,
// and the answer cache keys on ordered pairs so d(u→v) can never serve
// for d(v→u).
//
// Each shard may be served by a replica group — several processes over
// the same slice file (the manifest's replica_addrs, or
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
// concurrency gate + per-client token buckets). All of its timers read
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
	// from v's. Every shard response's stamp echoes the shard's own
	// directedness and a mismatch is a terminal error (checkStamp) —
	// manifest drift must be loud, not silently wrong joins.
	directed bool
	// unitExp mirrors the manifest's unit: every shard's label rows count
	// units of 2^-unitExp, which the router's own joins convert back
	// (label.FromUnits). Every stamp echoes it, checked like directed.
	unitExp int
	shards  []*shardClient
	client  *http.Client

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

	api           *http.ServeMux
	queries       atomic.Int64
	crossJoins    atomic.Int64
	failovers     atomic.Int64
	cacheResets   atomic.Int64
	hedges        atomic.Int64 // hedge attempts actually launched
	collapsed     atomic.Int64 // queries collapsed into another's flight
	shed          atomic.Int64 // HTTP requests answered 429
	shapeInFlight atomic.Int64 // /dist + /batch currently being served
	start         time.Time

	// Dynamic-update state (RouterConfig.BaseGraph / UpdateJournal): log
	// is the patch log over the graph the cluster's shard files were
	// built from, its journal replayed by NewRouter (nil: updates are
	// off), guarded by patchMu.
	log     *delta.Log
	patchMu sync.Mutex
	updates atomic.Int64

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
	// patch is the outstanding delta overlay, its rows read off
	// RouterConfig.BaseGraph and the patched graph (nil when no edge
	// updates are outstanding). It rides the state pointer so a patch
	// batch swaps overlay and cache in one atomic publish: every query
	// sees a coherent (overlay, cache) pair, and the fresh cache instance
	// is the patch-epoch discriminant that retires pre-patch answers
	// exactly once per batch.
	patch *delta.Overlay
}

// with returns a copy of st serving cache and patch, its identities
// copied so the caller may edit them.
func (st *routerState) with(cache *Cache, patch *delta.Overlay) *routerState {
	next := &routerState{idents: make([][]genObs, len(st.idents)), cache: cache, patch: patch}
	for i, group := range st.idents {
		next.idents[i] = append([]genObs(nil), group...)
	}
	return next
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

// errNotShardBackend rejects a 200 response without a snapshot identity
// (see checkStamp).
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

// neutral records an attempt that says nothing about the replica's
// health: the router canceled it (its hedge sibling answered first, or
// the caller's client hung up), or an operator's own request was
// refused. The replica did nothing wrong — but a held probe flag must be
// released, or a probe attempt that lost a hedge race would lock its
// replica out of rotation forever.
func (rep *replica) neutral() {
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
	// replica_addrs are used.
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
	// more than one replica hedge; calls addressed to one process (health
	// probes, the /reload proxy) never do.
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
	// the exact graph the cluster's shard files were built from. Queries
	// route as on a frozen cluster and the router corrects each answer
	// locally against a delta overlay — shards stay frozen and never see
	// updates. Nil disables updates.
	BaseGraph *Graph
	// UpdateJournal names the router's patch journal: accepted batches
	// are appended (and fsynced) before they serve, and journaled ops
	// are replayed by NewRouter, which fails when the journal cannot be
	// read or replayed. "" disables journaling. Requires BaseGraph.
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
		return nil, fmt.Errorf("chl: router needs shard addresses: Addrs, ReplicaAddrs, or a manifest with replica_addrs")
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
	r := &Router{
		n:           cfg.Manifest.Vertices,
		part:        part,
		directed:    cfg.Manifest.Directed,
		unitExp:     cfg.Manifest.UnitExp,
		client:      client,
		cacheSize:   cfg.CacheSize,
		ejectAfter:  ejectAfter,
		probation:   probation,
		clock:       clock,
		hedgeDelay:  hedgeDelay,
		maxInFlight: int64(cfg.MaxInFlight),
		quota:       newQuotaLimiter(clock, cfg.ClientQPS, cfg.ClientBurst),
		start:       clock.Now(),
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
	if cfg.BaseGraph != nil {
		if err := fitsBase(cfg.BaseGraph, cfg.Manifest.Vertices, cfg.Manifest.Directed, cfg.Manifest.UnitExp); err != nil {
			return nil, err
		}
		log, ov, err := delta.OpenLog(cfg.BaseGraph, cfg.UpdateJournal)
		if err != nil {
			return nil, err
		}
		r.log = log
		if ov != nil {
			r.publishLocked(ov)
		}
	}
	r.api = newFront(clock, "chl_router", func() backend { return r }, r.shape)
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
// (/batch only needs distances). No answer carries it — a witness is a
// vertex id, and a corrected answer's is -1 — so a hub-needing lookup
// refuses exactly these entries.
const hubUnknown = -2

// Query answers one point-to-point query through the cluster. A miss
// costs what QueryHub's does (the witness rides the answer) and shares
// its flight; only a cached answer without a witness serves Query alone.
func (r *Router) Query(u, v int) (float64, error) {
	d, _, _, err := r.queryHub(u, v, false)
	return d, err
}

// QueryHub answers one query with its witness hub (an original vertex
// id), exactly as Server.QueryHub does on the unsharded index.
func (r *Router) QueryHub(u, v int) (dist float64, hub int, ok bool, err error) {
	return r.dist(u, v)
}

// queryHub is the shared single-query path: one counted query.
func (r *Router) queryHub(u, v int, needHub bool) (dist float64, hub int, ok bool, err error) {
	if err := inRange(r.n, u, v); err != nil {
		return 0, 0, false, err
	}
	r.queries.Add(1)
	return r.answer(r.state.Load(), u, v, needHub)
}

// answer serves one in-range pair from st's cache or routes it, counting
// no query (/knn under an overlay answers its winners through it).
// needHub only decides cache hits: Query accepts an answer Batch cached
// without its witness (hubUnknown); QueryHub counts it a miss.
//
// Concurrent duplicate misses are collapsed (flightGroup): the first
// caller for a pair routes it, everyone else arriving before it returns
// waits for that answer — under hot-pair traffic a thundering herd
// costs one backend round trip. The flight key follows the cache's
// pairKey discipline (ordered for directed clusters); every flight
// computes the witness, so Query and QueryHub callers share one.
func (r *Router) answer(st *routerState, u, v int, needHub bool) (dist float64, hub int, ok bool, err error) {
	if st.cache != nil {
		usable := func(a Answer) bool { return !needHub || a.Hub != hubUnknown || !a.Reachable }
		if a, hit := st.cache.getIf(u, v, usable); hit {
			return a.Dist, a.Hub, a.Reachable, nil
		}
	}
	key := flightKeyFor(flightDist, r.directed, u, v, st.patchEpoch())
	res := r.flights.do(key, func() { r.collapsed.Add(1) }, func() flightResult {
		// A flight outlives its leader's client — followers that never
		// hung up are waiting on it — so its shard calls hang off a
		// background parent, not the leader's request.
		return r.routePair(context.Background(), st, u, v)
	})
	return res.dist, res.hub, res.ok, res.err
}

// routePair is the leader's half of answer: route the miss exactly as on
// a frozen cluster, correct the frozen answer under st's overlay, and
// feed the cache.
//
// A same-shard pair is forwarded whole as GET /dist — the shard joins
// locally, witness included. A cross-shard pair is answered from rows:
// fetch u's forward row, with its hubs' original ids, and v's backward
// (directed) or forward row; join them here as batch does
// (label.JoinPackedWith on a pooled table, label's kernel decision) and
// read the witness's original id at the joined hub's index in u's row.
// Row and ids come from one response, so from one snapshot: a reload can
// never pair a rank with another snapshot's permutation. Either way the
// answer is a frozen join, which queryPatched — the engine tier's own
// correction and hub contract — corrects when an overlay is outstanding.
func (r *Router) routePair(ctx context.Context, st *routerState, u, v int) flightResult {
	so := newObserver()
	res := flightResult{dist: Infinity}
	if su := r.part.Owner(u); su == r.part.Owner(v) {
		resp, _, serr := callShard[distResponse](ctx, r, shardCall{sid: su, path: fmt.Sprintf("/dist?u=%d&v=%d", u, v)}, so)
		if serr != nil {
			return flightResult{err: &ClusterError{Failed: []*ShardError{serr}}}
		}
		if resp.Reachable {
			res = flightResult{dist: resp.Dist, hub: resp.Hub, ok: true}
		}
	} else {
		fwd, bwd := r.pairNeeds(nil, nil, u, v)
		rows := r.fetchRows(ctx, fwd, bwd, []int{u}, so)
		if err := so.err(); err != nil {
			return flightResult{err: err}
		}
		r.crossJoins.Add(1)
		rowU, rowV := rows.pair(r.directed, u, v)
		js := r.scratch.GetJoin(r.n)
		d, rank, ok := label.JoinPackedWith(js, rowU, rowV)
		r.scratch.Put(js) // not deferred: only a clean scratch goes back
		if ok {
			// The joined hub is an entry of rowU, whose words sort by hub.
			i := sort.Search(len(rowU), func(i int) bool { return uint32(rowU[i]>>32) >= rank })
			res = flightResult{dist: label.FromUnits(d, r.unitExp), hub: rows.hubIDs[u][i], ok: true}
		}
	}
	if st.patch != nil {
		res.dist, res.hub, res.ok = queryPatched(st.patch, u, v, res.dist, res.hub)
	}
	r.cachePut(st, so, u, v, res)
	return res
}

// pairNeeds appends the rows one pair's join needs: u's forward row and
// v's backward row on a directed cluster, the (symmetric) forward rows
// of both endpoints otherwise.
func (r *Router) pairNeeds(fwd, bwd []int, u, v int) ([]int, []int) {
	if r.directed {
		return append(fwd, u), append(bwd, v)
	}
	return append(fwd, u, v), bwd
}

// Batch answers a batch of queries through the cluster, returning the
// distances in order (Infinity for unreachable pairs). Misses route as on
// a frozen cluster: same-shard pairs are forwarded whole, one POST /batch
// per shard; cross-shard pairs are answered by fetching each involved
// vertex's label row once per shard and hub-joining at the router. Under
// a delta overlay the overlay then corrects every answer, forwarded and
// joined alike (see routePair). All shard traffic for a batch runs
// concurrently; each shard request load-balances and fails over within
// the shard's replica group independently.
func (r *Router) Batch(pairs []QueryPair) ([]float64, error) {
	// The exported call has no client to hang up; the /batch handler
	// passes its request's context instead.
	dists := make([]float64, len(pairs))
	if err := r.batch(context.Background(), dists, pairs); err != nil {
		return nil, err
	}
	return dists, nil
}

// batch is Batch answering into dists (len(pairs) long).
func (r *Router) batch(ctx context.Context, dists []float64, pairs []QueryPair) error {
	st := r.state.Load()

	// Cache pass; the misses (pending) split into same-shard sub-batches
	// forwarded whole (direct) and pairs joined here from fetched rows
	// (joined).
	var pending, joined, fwd, bwd []int
	direct := map[int][]int{} // shard id -> indexes into pairs
	for i, p := range pairs {
		if err := inRange(r.n, p.U, p.V); err != nil {
			return err
		}
		if st.cache != nil {
			if a, hit := st.cache.Get(p.U, p.V); hit {
				dists[i] = a.Dist
				continue
			}
		}
		pending = append(pending, i)
		if su := r.part.Owner(p.U); su == r.part.Owner(p.V) {
			direct[su] = append(direct[su], i)
			continue
		}
		joined = append(joined, i)
		fwd, bwd = r.pairNeeds(fwd, bwd, p.U, p.V)
	}
	r.queries.Add(int64(len(pairs)))
	if len(pending) == 0 {
		return nil
	}

	// Fan out: one /batch per direct shard beside the one row fetch.
	so := newObserver()
	var wg sync.WaitGroup
	for sid, idxs := range direct {
		wg.Add(1)
		go func(sid int, idxs []int) {
			defer wg.Done()
			r.forwardBatch(ctx, sid, pairs, idxs, dists, so)
		}(sid, idxs)
	}
	var rows *rowSet
	if len(joined) > 0 {
		rows = r.fetchRows(ctx, fwd, bwd, nil, so)
	}
	wg.Wait()
	if err := so.err(); err != nil {
		return err
	}

	// Join locally with the same kernel and scratch-size policy the
	// single-process BatchEngine serves with (label.ScratchPool.GetJoin; a
	// nil scratch merge-joins).
	if len(joined) > 0 {
		s := r.scratch.GetJoin(r.n)
		for _, i := range joined {
			a, b := rows.pair(r.directed, pairs[i].U, pairs[i].V)
			d, _, _ := label.JoinPackedWith(s, a, b)
			dists[i] = label.FromUnits(d, r.unitExp)
		}
		r.scratch.Put(s) // not deferred: only a clean scratch goes back
		r.crossJoins.Add(int64(len(joined)))
	}
	// The overlay, when one is outstanding, corrects every frozen answer.
	st.patch.Correct(len(pending), func(k int) (int, int, *float64) {
		i := pending[k]
		return pairs[i].U, pairs[i].V, &dists[i]
	})

	// Populate the cache (hub unknown on this path — /batch never needs
	// witnesses; QueryHub will recompute and upgrade the entry). The
	// identity validation runs once for the whole batch, then the
	// answers are inserted directly.
	if r.cacheValid(st, so) {
		for _, i := range pending {
			st.cache.Put(pairs[i].U, pairs[i].V, Answer{Dist: dists[i], Hub: hubUnknown, Reachable: dists[i] != Infinity})
		}
	}
	return nil
}

// cacheValid folds a request's observations into the router state and
// reports whether answers computed under them may enter st's cache: the
// cache instance the request started with must still be the live one,
// and every replica identity observed while computing must match the
// live state — an answer that raced a replica reload is simply not
// cached. Nor is anything from a request that saw one replica under two
// identities (observer.conflict): its answers are correct for the
// snapshots that computed them but not attributable to a single one.
// First observations (which adopt identities into the state but keep
// the cache instance) do not lose their answers. The check is per
// request, not per answer: callers validate once and Put in bulk.
func (r *Router) cacheValid(st *routerState, so *observer) bool {
	r.noteGenerations(so.obs)
	cur := r.state.Load()
	if so.conflict || st.cache == nil || cur.cache != st.cache {
		return false // uncached, or retired by an observed reload/restart
	}
	for k, o := range so.obs {
		if cur.idents[k.shard][k.rep] != o {
			return false
		}
	}
	return true
}

// cachePut is cacheValid plus one insertion — the single-query path.
func (r *Router) cachePut(st *routerState, so *observer, u, v int, res flightResult) {
	if r.cacheValid(st, so) {
		st.cache.Put(u, v, Answer{Dist: res.dist, Hub: res.hub, Reachable: res.ok})
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
		next := st.with(st.cache, st.patch)
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

// --- the shard call ---
//
// Everything the router asks of a shard goes through callShard, and
// every row it joins comes from fetchRows; ARCHITECTURE.md ("Shard
// protocol") tabulates the endpoints and walks the call path.

// terminalError marks a request-level failure — a 4xx or a payload the
// router cannot use. Retrying a sibling replica would produce the same
// answer, so callShard fails the request instead of failing over.
type terminalError struct {
	err error
}

func (e *terminalError) Error() string { return e.err.Error() }
func (e *terminalError) Unwrap() error { return e.err }

// statusError is a replica's non-200 response, kept whole so the /reload
// proxy can relay an operator error verbatim.
type statusError struct {
	code int
	body []byte
}

func (e *statusError) Error() string {
	var eb struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(e.body, &eb) == nil && eb.Error != "" {
		return fmt.Sprintf("status %d: %s", e.code, eb.Error)
	}
	return fmt.Sprintf("status %d: %s", e.code, bytes.TrimSpace(e.body))
}

// terminalErr folds a request-level failure into rep's health state (see
// replica.terminalFail) and wraps it for the caller. callShard uses it
// for terminal attempts; its callers use it after a successful round
// trip whose payload turns out unusable (missing rows, wrong lengths) —
// the accounting is the same.
func (r *Router) terminalErr(rep *replica, err error) *ShardError {
	rep.terminalFail(err, r.probation, r.clock.Now())
	return rep.shardErr(err)
}

// shardErr names rep as the source of err.
func (rep *replica) shardErr(err error) *ShardError {
	return &ShardError{Shard: rep.shard, Replica: rep.id, Addr: rep.addr, Err: err}
}

// observer accumulates what one routed request saw across its fan-out:
// the snapshot identity of every replica that answered (callShard
// records them) and the shard failures (the fan-out's goroutines record
// those). One replica answering under two identities means a reload
// landed mid-request — a request may hit the same replica twice (direct
// sub-batch + row fetch, scan after scan) —
// so no single identity can vouch for all of its answers: conflict tells
// cacheValid not to cache them. Two *different* replicas of one shard
// answering is not a conflict: each identity is validated on its own.
type observer struct {
	mu       sync.Mutex
	obs      map[repRef]genObs
	fails    []*ShardError
	conflict bool
}

func newObserver() *observer {
	return &observer{obs: map[repRef]genObs{}}
}

func (so *observer) observe(k repRef, o genObs) {
	so.mu.Lock()
	defer so.mu.Unlock()
	if prev, seen := so.obs[k]; seen && prev != o {
		so.conflict = true
	}
	so.obs[k] = o
}

func (so *observer) fail(serr *ShardError) {
	so.mu.Lock()
	defer so.mu.Unlock()
	so.fails = append(so.fails, serr)
}

// err returns the accumulated fan-out failure, if any, as a
// ClusterError with deterministically ordered shards.
func (so *observer) err() error {
	if len(so.fails) == 0 {
		return nil
	}
	sort.Slice(so.fails, func(i, j int) bool { return so.fails[i].Shard < so.fails[j].Shard })
	return &ClusterError{Failed: so.fails}
}

// shardCall is one request of the shard protocol: GET path when body is
// nil, else POST path with body as JSON.
type shardCall struct {
	sid  int
	path string
	body any
	// pin, when set, sends the call to that replica only: no pick, no
	// hedge, no failover. Health probes and the /reload proxy pin: they
	// address one process by definition.
	pin *replica
	// operator marks a call made on an operator's behalf (the /reload
	// proxy): a 4xx is their error to read, not a shard failure — it is
	// returned (as a *statusError) without touching the error counters.
	operator bool
}

// attemptOutcome is one callShard attempt's result. canceled marks an
// attempt whose context was canceled (hedge loser, or the caller's
// client hung up): health-neutral, no error, no answer.
type attemptOutcome[T stamped] struct {
	rep      *replica
	out      *T
	serr     *ShardError
	terminal bool
	canceled bool
}

// callShard runs one logical shard request and is the only way the
// router talks to a shard: pick a replica of c.sid's group (see
// shardClient.pick; or c.pin), attempt the round trip, hedge, fail over,
// decode the typed response, check its stamp (checkStamp), and hand the
// answering replica's snapshot identity to so. The request fails only
// when every replica failed (one ShardError listing each attempt), a
// replica produced a terminal error, or ctx was canceled (the context's
// error).
//
// Each attempt carries the full health accounting every caller must
// agree on: request/in-flight counters around the round trip, success
// resetting the ejection state and releasing any held probe, a canceled
// context health-neutral but still releasing the probe, a terminal
// failure counted without feeding ejection, and a replica-level failure
// feeding the ejection/probation machinery.
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
func callShard[T stamped](ctx context.Context, r *Router, c shardCall, so *observer) (*T, *replica, *ShardError) {
	group := r.shards[c.sid]
	var payload []byte
	if c.body != nil {
		var err error
		if payload, err = json.Marshal(c.body); err != nil {
			return nil, nil, &ShardError{Shard: c.sid, Replica: -1, Addr: group.addrList(), Err: err}
		}
	}
	attempt := func(ctx context.Context, rep *replica) attemptOutcome[T] {
		rep.requests.Add(1)
		rep.inflight.Add(1)
		out, err := roundTrip[T](ctx, r, rep, c.path, payload)
		rep.inflight.Add(-1)
		var term *terminalError
		var refused *statusError
		switch {
		case err == nil:
			rep.succeed()
			return attemptOutcome[T]{rep: rep, out: out}
		case ctx.Err() != nil:
			rep.neutral()
			return attemptOutcome[T]{rep: rep, canceled: true}
		case c.operator && errors.As(err, &refused) && refused.code < 500:
			rep.neutral()
			return attemptOutcome[T]{rep: rep, terminal: true, serr: rep.shardErr(refused)}
		case errors.As(err, &term):
			return attemptOutcome[T]{rep: rep, terminal: true, serr: r.terminalErr(rep, term.err)}
		}
		rep.fail(err, r.ejectAfter, r.probation, r.clock.Now())
		return attemptOutcome[T]{rep: rep, serr: rep.shardErr(err)}
	}

	// finish turns the one outcome that ends the call into its result.
	finish := func(o attemptOutcome[T]) (*T, *replica, *ShardError) {
		switch {
		case o.canceled:
			return nil, nil, &ShardError{Shard: c.sid, Replica: -1, Addr: group.addrList(), Err: ctx.Err()}
		case o.serr != nil:
			return nil, nil, o.serr
		}
		st := (*o.out).stampOf()
		so.observe(repRef{c.sid, o.rep.id}, genObs{epoch: st.Epoch, gen: st.Generation, hash: st.Ident})
		return o.out, o.rep, nil
	}
	if c.pin != nil {
		// Pinned: the attempt alone, on the caller's goroutine.
		return finish(attempt(ctx, c.pin))
	}

	tried := make([]bool, len(group.reps))
	// Buffered to the attempt cap: a loser finishing after return must
	// never block on a channel nobody reads.
	outcomes := make(chan attemptOutcome[T], len(group.reps))
	var cancels []context.CancelFunc
	defer func() {
		for _, cancel := range cancels {
			cancel()
		}
	}()
	outstanding := 0
	launch := func() bool {
		// Checked before pick, which may take a probe flag only an
		// attempt's outcome releases.
		if ctx.Err() != nil {
			return false
		}
		rep := group.pick(tried, r.clock.Now().UnixNano())
		if rep == nil {
			return false
		}
		tried[rep.id] = true
		actx, cancel := context.WithCancel(ctx)
		cancels = append(cancels, cancel)
		outstanding++
		go func() { outcomes <- attempt(actx, rep) }()
		return true
	}
	// The hedge timer is registered before the first attempt launches, so
	// once a backend has observably received a request the timer already
	// exists — what lets a FakeClock test Advance past the delay without
	// racing the registration.
	var hedgeC <-chan time.Time
	if r.hedgeDelay > 0 && len(group.reps) > 1 {
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
			if o.serr == nil || o.terminal {
				return finish(o)
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
	if ctx.Err() != nil {
		return finish(attemptOutcome[T]{canceled: true})
	}
	return nil, nil, &ShardError{
		Shard: c.sid, Replica: -1, Addr: group.addrList(),
		Err: fmt.Errorf("all %d replicas failed: %s", len(group.reps), strings.Join(attempts, "; ")),
	}
}

// roundTrip is one attempt's network exchange with rep — the only
// function that touches the router's HTTP client — through to a decoded,
// stamp-checked *T.
func roundTrip[T stamped](ctx context.Context, r *Router, rep *replica, path string, payload []byte) (*T, error) {
	method, body := http.MethodGet, io.Reader(nil)
	if payload != nil {
		method, body = http.MethodPost, bytes.NewReader(payload)
	}
	req, err := http.NewRequestWithContext(ctx, method, rep.addr+path, body)
	if err != nil {
		return nil, err
	}
	if payload != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	// 4xx is terminal (the request is wrong — a sibling would say the
	// same); everything else — 5xx, undecodable bodies — is a replica
	// failure the caller may retry elsewhere.
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
		err := error(&statusError{code: resp.StatusCode, body: msg})
		if resp.StatusCode >= 400 && resp.StatusCode < 500 {
			err = &terminalError{err: err}
		}
		return nil, err
	}
	out := new(T)
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return nil, fmt.Errorf("undecodable response: %w", err)
	}
	st := (*out).stampOf()
	if err := r.checkStamp(st); err != nil {
		return nil, &terminalError{err: err}
	}
	rep.lastGen.Store(st.Generation)
	return out, nil
}

// checkStamp is the one stamp check, run on every shard response on
// every path. A response without a snapshot identity comes from a plain
// server, not a shard (started without -manifest/-shard): its answers
// may be right today, but its reloads would be invisible to the router's
// cache retirement — loud refusal beats silent staleness. A shard
// serving a file over the wrong vertex space, the wrong directedness or
// the wrong unit (manifest drift) must be just as loud: a directed router
// accepting an undirected shard's symmetric answer would cache d(u,v) as
// d(u→v), and rows counted in another unit would join to wrong sums.
func (r *Router) checkStamp(st shardStamp) error {
	switch {
	case st.Generation == 0 || st.Epoch == 0:
		return errNotShardBackend
	case st.N != r.n:
		return fmt.Errorf("shard serves %d vertices but the manifest says %d — mismatched index files?", st.N, r.n)
	case st.Directed != r.directed:
		return fmt.Errorf("shard serves directed=%v but the manifest says directed=%v — mismatched index files?", st.Directed, r.directed)
	case st.UnitExp != r.unitExp:
		return fmt.Errorf("shard counts distances in units of 2^-%d but the manifest says 2^-%d — mismatched index files?", st.UnitExp, r.unitExp)
	}
	return nil
}

// forwardBatch forwards the same-shard sub-batch pairs[idxs...] to shard
// sid whole, translating the wire's -1 back to Infinity into dists.
func (r *Router) forwardBatch(ctx context.Context, sid int, pairs []QueryPair, idxs []int, dists []float64, so *observer) {
	body := make([][2]int, len(idxs))
	for k, i := range idxs {
		body[k] = [2]int{pairs[i].U, pairs[i].V}
	}
	resp, rep, serr := callShard[batchResponse](ctx, r, shardCall{sid: sid, path: "/batch", body: body}, so)
	if serr == nil && len(resp.Dists) != len(idxs) {
		serr = r.terminalErr(rep, fmt.Errorf("batch of %d pairs answered with %d distances", len(idxs), len(resp.Dists)))
	}
	if serr != nil {
		so.fail(serr)
		return
	}
	for k, i := range idxs {
		dists[i] = unwireDist(resp.Dists[k])
	}
}

// unwireDist reverses wireDists for one distance.
func unwireDist(d float64) float64 {
	if d == -1 {
		return Infinity
	}
	return d
}

// shardScan runs one /shardscan against shard sid, recording a failure
// (a matrix fragment of the wrong length included) in so.
func (r *Router) shardScan(ctx context.Context, sid int, req shardScanRequest, so *observer) *shardScanResponse {
	resp, rep, serr := callShard[shardScanResponse](ctx, r, shardCall{sid: sid, path: "/shardscan", body: req}, so)
	if serr == nil && len(resp.Dists) != len(req.Targets) {
		serr = r.terminalErr(rep, fmt.Errorf("scan of %d targets answered with %d distances", len(req.Targets), len(resp.Dists)))
	}
	if serr != nil {
		so.fail(serr)
		return nil
	}
	return resp
}

// rowSet is one row fetch's result: validated packed label runs by
// vertex, and for the forward rows fetched with hub ids, each entry's hub
// as an original id (aligned with the row; see routePair).
type rowSet struct {
	fwd, bwd map[int][]uint64
	hubIDs   map[int][]int
}

// pair returns the two rows the join of (u, v) reads (see pairNeeds).
func (rs *rowSet) pair(directed bool, u, v int) (rowU, rowV []uint64) {
	if directed {
		return rs.fwd[u], rs.bwd[v]
	}
	return rs.fwd[u], rs.fwd[v]
}

// fetchRows is the one row fetch: group the forward and backward vertex
// needs by owning shard, fan out one /shardquery per shard concurrently
// (a shard's forward and backward needs ride together), and validate
// every row with label.ParsePackedRun before it can reach a join kernel
// (decodePackedRun). hubs names forward rows, each also in fwd, whose
// hubs should come back as original ids too, from the snapshot that
// served the row; the ids are validated as well. Failures — a missing or
// malformed row or id array is a terminal one — are recorded in so;
// callers check so.err() before touching the rows.
func (r *Router) fetchRows(ctx context.Context, fwd, bwd, hubs []int, so *observer) *rowSet {
	needs := map[int]*shardQueryRequest{}
	need := func(v int) *shardQueryRequest {
		sid := r.part.Owner(v)
		if needs[sid] == nil {
			needs[sid] = &shardQueryRequest{}
		}
		return needs[sid]
	}
	for _, v := range fwd {
		q := need(v)
		q.Vertices = append(q.Vertices, v)
	}
	for _, v := range bwd {
		q := need(v)
		q.Backward = append(q.Backward, v)
	}
	for _, v := range hubs {
		q := need(v)
		q.HubIDs = append(q.HubIDs, v)
	}
	rows := &rowSet{fwd: make(map[int][]uint64, len(fwd)), bwd: make(map[int][]uint64, len(bwd)), hubIDs: make(map[int][]int, len(hubs))}
	var (
		wg sync.WaitGroup
		mu sync.Mutex
	)
	for sid, q := range needs {
		wg.Add(1)
		go func(sid int, q *shardQueryRequest) {
			defer wg.Done()
			q.Vertices, q.Backward, q.HubIDs = sortedSet(q.Vertices), sortedSet(q.Backward), sortedSet(q.HubIDs)
			resp, rep, serr := callShard[shardQueryResponse](ctx, r, shardCall{sid: sid, path: "/shardquery", body: q}, so)
			if serr != nil {
				so.fail(serr)
				return
			}
			gotF, err := r.decodeRows("forward", q.Vertices, resp.Rows)
			var gotB [][]uint64
			var gotH [][]int
			if err == nil {
				gotB, err = r.decodeRows("backward", q.Backward, resp.BackRows)
			}
			if err == nil {
				gotH, err = r.decodeHubIDs(q, gotF, resp.HubIDs)
			}
			if err != nil {
				so.fail(r.terminalErr(rep, err))
				return
			}
			mu.Lock()
			defer mu.Unlock()
			for i, v := range q.Vertices {
				rows.fwd[v] = gotF[i]
			}
			for i, v := range q.Backward {
				rows.bwd[v] = gotB[i]
			}
			for i, v := range q.HubIDs {
				rows.hubIDs[v] = gotH[i]
			}
		}(sid, q)
	}
	wg.Wait()
	return rows
}

// decodeRows validates the rows one /shardquery response carries for
// ids, in ids order; side names the half for the error.
func (r *Router) decodeRows(side string, ids []int, got map[string]string) ([][]uint64, error) {
	rows := make([][]uint64, len(ids))
	for i, v := range ids {
		enc, found := got[strconv.Itoa(v)]
		if !found {
			return nil, fmt.Errorf("%s row for vertex %d missing from response", side, v)
		}
		var err error
		if rows[i], err = decodePackedRun(enc, r.n); err != nil {
			return nil, err
		}
	}
	return rows, nil
}

// decodeHubIDs validates the hub ids one /shardquery response carries for
// q.HubIDs, in that order: one id per entry of the vertex's forward row
// (fwd, aligned with q.Vertices), each a vertex id in [0,n).
func (r *Router) decodeHubIDs(q *shardQueryRequest, fwd [][]uint64, got map[string][]int) ([][]int, error) {
	out := make([][]int, len(q.HubIDs))
	for i, v := range q.HubIDs {
		ids, found := got[strconv.Itoa(v)]
		if !found {
			return nil, fmt.Errorf("hub ids for vertex %d missing from response", v)
		}
		k, _ := slices.BinarySearch(q.Vertices, v)
		if len(ids) != len(fwd[k]) {
			return nil, fmt.Errorf("%d hub ids for vertex %d's row of %d entries", len(ids), v, len(fwd[k]))
		}
		for _, id := range ids {
			if id < 0 || id >= r.n {
				return nil, fmt.Errorf("hub id %d for vertex %d out of range [0,%d)", id, v, r.n)
			}
		}
		out[i] = ids
	}
	return out, nil
}

// sortedSet sorts ids and drops duplicates, in place.
func sortedSet(ids []int) []int {
	slices.Sort(ids)
	return slices.Compact(ids)
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

// probeReplica GETs one replica's /healthz (a pinned shardCall), folding
// the result into the replica's health state and the router's identity
// tracking.
func (r *Router) probeReplica(rep *replica) ReplicaHealth {
	h := ReplicaHealth{ID: rep.id, Addr: rep.addr}
	so := newObserver()
	// Health is an exported call with no client to hang up.
	resp, _, serr := callShard[healthResponse](context.Background(), r, shardCall{sid: rep.shard, pin: rep, path: "/healthz"}, so)
	if serr != nil {
		h.Error = serr.Err.Error()
		h.Ejected = rep.state.Load() == replicaEjected
		return h
	}
	h.OK = resp.OK
	h.Generation = resp.Generation
	r.noteGenerations(so.obs)
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
	Vertices      int                `json:"vertices"`
	Directed      bool               `json:"directed"`
	Shards        []RouterShardStats `json:"shards"`
	Queries       int64              `json:"queries_total"`
	CrossJoins    int64              `json:"cross_joins_total"`
	Failovers     int64              `json:"failovers_total"`
	CacheResets   int64              `json:"cache_resets_total"`
	Hedges        int64              `json:"hedges_total"`
	Collapsed     int64              `json:"collapsed_total"`
	Shed          int64              `json:"shed_total"`
	Updates       int64              `json:"updates_total"`
	UptimeSeconds float64            `json:"uptime_seconds"`
	Cache         *CacheStats        `json:"cache,omitempty"`
	Patch         *PatchStats        `json:"patch,omitempty"` // outstanding delta overlay, nil when none
}

// Stats reports the router's counters and its view of the cluster.
func (r *Router) Stats() RouterStats {
	out := RouterStats{
		Vertices:      r.n,
		Directed:      r.directed,
		Queries:       r.queries.Load(),
		CrossJoins:    r.crossJoins.Load(),
		Failovers:     r.failovers.Load(),
		CacheResets:   r.cacheResets.Load(),
		Hedges:        r.hedges.Load(),
		Collapsed:     r.collapsed.Load(),
		Shed:          r.shed.Load(),
		Updates:       r.updates.Load(),
		UptimeSeconds: r.clock.Now().Sub(r.start).Seconds(),
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

// Handler returns the router's HTTP API: a Server's public endpoints,
// where POST /reload?shard=I[&replica=J][&path=P] proxies a hot reload to
// one shard replica. Shard failures are 502s listing the failed shards;
// shed requests are 429s with a retry-after body (see shape).
func (r *Router) Handler() http.Handler { return r.api }

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

// --- the Router's backend: the router itself ---

func (r *Router) vertices() int     { return r.n }
func (r *Router) shard() int        { return -1 }
func (r *Router) owns(int) bool     { return true }
func (r *Router) stamp() shardStamp { return shardStamp{} }
func (r *Router) release()          {}

// dist is QueryHub, also the hubQuerier of Path's witness triple.
func (r *Router) dist(u, v int) (float64, int, bool, error) { return r.queryHub(u, v, true) }

func (r *Router) paths(u, v int) (float64, []int, bool, error) { return r.Path(u, v) }

func (r *Router) knn(u, k int) ([]Neighbor, error) { return r.KNN(u, k) }

func (r *Router) stats() any { return r.Stats() }

func (r *Router) health() (int, any) {
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
	return code, map[string]any{"ok": ok, "degraded": degraded, "shards": shards}
}

// reload proxies POST /reload to replica J (default 0) of shard I as a
// pinned shardCall, so the replica's in-flight count and health
// accounting see it like any other request. The response is the
// replica's own; an operator error it answers (a bad path is a 400) is
// relayed verbatim, not dressed up as a shard failure.
func (r *Router) reload(ctx context.Context, path string, q url.Values) (any, error) {
	sid, ok := intParam(q, "shard")
	if !ok || sid < 0 || sid >= len(r.shards) {
		return nil, badRequest(fmt.Sprintf("shard must name a shard in [0,%d)", len(r.shards)))
	}
	reps := r.shards[sid].reps
	rid := 0
	if q.Get("replica") != "" {
		if rid, ok = intParam(q, "replica"); !ok || rid < 0 || rid >= len(reps) {
			return nil, badRequest(fmt.Sprintf("replica must name a replica of shard %d in [0,%d)", sid, len(reps)))
		}
	}
	call := "/reload"
	if path != "" {
		call += "?path=" + url.QueryEscape(path)
	}
	so := newObserver()
	resp, _, serr := callShard[reloadResponse](ctx, r, shardCall{sid: sid, pin: reps[rid], path: call, body: struct{}{}, operator: true}, so)
	if serr != nil {
		var status *statusError
		if errors.As(serr.Err, &status) {
			return nil, status
		}
		return nil, &ClusterError{Failed: []*ShardError{serr}}
	}
	// A successful reload bumped the replica's generation; fold it in now
	// so the next query doesn't serve one answer from the retired cache.
	// The ident says whether the reloaded content actually changed —
	// reloading the same file keeps the cache (see noteGenerations).
	r.noteGenerations(so.obs)
	return resp, nil
}

// gauges writes the router's Prometheus gauges and counters.
func (r *Router) gauges(w io.Writer) {
	st := r.Stats()
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

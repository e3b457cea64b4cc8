// Package chl is a Go implementation of Canonical Hub Labeling (CHL)
// construction and point-to-point shortest-distance (PPSD) querying for
// weighted graphs, reproducing "Planting Trees for scalable and efficient
// Canonical Hub Labeling" (Lakhotia, Dong, Kannan, Prasanna — VLDB 2019,
// arXiv:1907.00140).
//
// # Overview
//
// A hub labeling assigns every vertex v a small set of (hub, distance)
// pairs such that any PPSD query can be answered by intersecting two label
// sets. Given a vertex ranking R (a "network hierarchy"), the Canonical Hub
// Labeling is the unique minimal labeling that respects R: for every
// connected pair (u,v), exactly the highest-ranked vertex on their shortest
// paths is a hub of both.
//
// The package implements every construction algorithm from the paper:
//
//   - AlgoSeqPLL — sequential pruned landmark labeling (Akiba et al.), the
//     reference CHL constructor.
//   - AlgoSParaPLL — shared-memory paraPLL (Qiu et al.): fast, parallel,
//     but NOT canonical: it holds the CHL plus redundant labels, which grow
//     with the thread count.
//   - AlgoLCC — parallel Label Construction and Cleaning (§4.1): rank
//     queries make optimistic parallel mistakes recoverable; a cleaning
//     pass deletes them. Output: the CHL. It is AlgoGLL with Alpha = +Inf:
//     one superstep, cleaned once.
//   - AlgoGLL — Global Local Labeling (§4.2): interleaved cleaning against
//     a small local table, lock-free global reads. Output: the CHL.
//   - AlgoPLaNT — "Prune Labels and (do) Not (prune) Trees" (§5.2):
//     embarrassingly parallel canonical labeling via ancestor-tracking
//     Dijkstras. What a tree emits depends on no other tree's labels;
//     finished trees only prune later ones (Options.Eta, §5.3).
//     Output: the CHL. Build's default, because the measurements say so:
//     build_plant_s is the lowest build_*_s of bench/ on both build-road
//     and build-scalefree, and BenchmarkBuildDirected times it against
//     seqPLL on a directed graph.
//   - AlgoDParaPLL, AlgoDGLL, AlgoDPLaNT, AlgoHybrid — the distributed
//     algorithms of §3/§5, executed on a simulated message-passing cluster
//     that meters every byte (see below).
//
// The three distributed query modes of §6 (QLSN, QFDL, QDOL) are modelled
// for Table 4 by cmd/experiments, not exported here.
//
// # Quick start
//
//	g := chl.GenerateRoadGrid(64, 64, 1)            // or chl.ReadGraphFile(...)
//	ix, err := chl.Build(g, chl.Options{})          // AlgoPLaNT unless Options.Algorithm says otherwise
//	if err != nil { ... }
//	d := ix.Query(17, 3942)                         // exact shortest distance
//
// Shortest paths need no extra labels (§5.4): FlatIndex.Path(g, u, v)
// walks one over g, the graph the index was built from, reading each
// vertex's distance from u off the frozen labels — for every builder, on
// directed graphs too.
//
// # Serving
//
// Build once, freeze, serve many times. Freeze packs the labeling into a
// FlatIndex — CSR offsets plus one contiguous (hub, dist) entry array —
// which is the only form a labeling persists in (FlatIndex.SaveFile /
// OpenFlat; cmd/chl -out writes it, each distance an exact uint32 count of
// the index's unit 2^-k — 1 on integer-weighted graphs) and fans
// batches out over all cores through NewBatchEngineFlat.
// A FlatIndex is two label stores (forward and backward runs; the same
// store twice when undirected), each fixed-width or compressed, and every
// pairwise query is one call to label.Join, which picks among the
// surviving kernels: the hash join on a table from the index's pool, the
// merge join past 2^17 vertices (go test -bench JoinKernels
// ./internal/label: 0.41–0.52µs hash against 0.76–1.00µs merge on a
// 32768-vertex scale-free graph), or the streaming merge join on
// compressed labels. No caller passes a scratch. BenchmarkQuery is the
// slice-based Index on the same pairs (0.89–0.93µs, against
// BenchmarkFlatQuery's 0.44–0.52µs).
//
//	fx, _ := ix.Freeze()
//	fx.SaveFile("road.flat")                        // once
//	fx, _ = chl.OpenFlat("road.flat")               // every serving process, mmap-backed
//	eng := chl.NewBatchEngineFlat(fx)
//	dists := eng.Batch(pairs)                       // parallel, zero-alloc hot path
//
// OpenFlat serves the file's label arrays zero-copy from a memory
// mapping when the host allows (LoadFlatMapped), falling back to the
// copying loader (LoadFlatFile) otherwise — the kernel pages labels in
// on demand and serving processes of the same file share one physical
// copy.
//
// Directed indexes (AlgoSeqPLL / AlgoPLaNT over a directed graph) freeze
// and serve through the same stack: Freeze packs both label halves —
// forward runs (hubs reachable from v) and backward runs (hubs that
// reach v) — into one file, every kernel answers u→v as the
// forward(u) × backward(v) hub join, and the answer caches key on
// ordered pairs (NewDirectedCache) so d(u→v) and d(v→u) never alias.
//
// # Compressed labels
//
// FlatIndex.Compress converts either directedness to the compressed
// label encoding: one stream per vertex of varint-coded hub gaps and unit
// counts. Files shrink 71–72% on the benchmark fixtures and every query
// answers bit-identically through a merge join that decodes as it goes,
// at 1.5–1.7× the fixed-width merge join on the road fixture (the
// scoreboard's label.join_compressed_ns against label.join_packed_ns) and
// about 2× on 32768-vertex scale-free (JoinCompressed against JoinPacked
// in internal/label's BenchmarkJoinKernels). Compress is explicit and
// Decompress inverts it exactly. Index.FreezeCompressed is
// Freeze+Compress; cmd/chlquery exposes the conversion as -compress; the
// scoreboard in bench/ (BENCHMARK.json) measures both formats. The
// whole serving stack below — Server, shard
// slicing, replicated clusters, the router — serves either format;
// FlatIndex.Compressed reports which one an index holds.
//
// The production tier on top is Server: a hot-swappable Snapshot of the
// index behind an atomic pointer, an optional sharded LRU Cache of full
// answers (NewCache / NewDirectedCache, per snapshot — a swap can never
// serve stale distances), and an HTTP Handler. Server.Reload publishes
// a new index file with zero dropped in-flight queries: old queries
// drain on their generation, whose mapping is unmapped by the last one
// out.
//
//	s, _ := chl.NewServer("road.flat", 1<<16)       // mmap + 64k-answer cache
//	http.ListenAndServe(":8080", s.Handler())       // /dist /batch /paths /knn /matrix /stats /reload /update /healthz /metrics
//	s.Reload("road-v2.flat")                        // hot swap, no downtime
//
// cmd/chlquery wraps this flow (-save / -load / -serve / -cache /
// -prefault) and additionally reloads on SIGHUP; README.md documents the
// HTTP API's request and response schemas. Both the server and the
// router below export Prometheus text-format metrics (per-endpoint
// latency histograms, cache and index gauges) at GET /metrics.
//
// # Sharded serving
//
// An index too large or too hot for one process is sliced across a
// cluster: SaveShards partitions the vertex set with a consistent-hash
// ring (internal/shard) and writes one ordinary flat index file per
// shard — each holding only its owned vertices' label runs — plus a
// cluster.json manifest. Every shard file is served by the ordinary
// Server (SetShard adds the ownership checks and the internal
// /shardquery row-fetch endpoint), and a Router in front answers the
// same API as a single server, with bit-identical answers:
//
//	m, _ := fx.SaveShards("cluster", 3, 64, 1)       // 3 shard files + cluster.json
//	// per shard process: chlquery -serve :808N -manifest cluster/cluster.json -shard N
//	r, _ := chl.NewRouter(chl.RouterConfig{Manifest: m, Addrs: addrs, CacheSize: 1 << 16})
//	http.ListenAndServe(":8080", r.Handler())
//
// Routing is QDOL-style (§6): a query whose endpoints share a shard is
// forwarded whole and answered there; a cross-shard query fetches the
// two packed label rows and hub-joins them at the router with the same
// kernels BatchEngine serves with. Each shard keeps its own snapshot
// hot-swap and answer cache; the router watches shard generations and
// retires its cluster-level cache whenever a shard reloads, and degrades
// per shard — failures 502 with a body naming exactly the shards that
// failed. Any shard may be served by a replica group (several processes
// over the same slice file, RouterConfig.ReplicaAddrs or a
// manifest's replica_addrs): the router load-balances across healthy
// replicas with power-of-two-choices, retries failed requests on the
// next replica — a query fails only when every replica of a shard is
// down — and ejects repeatedly failing replicas until a timed probation
// probe readmits them. Directed clusters work end to end: the manifest
// records directedness, shards slice both label halves, cross-shard
// joins fetch u's forward and v's backward row, and /dist?u=&v= is the
// u→v distance on every tier. The two tiers share one wire format
// (shardproto.go): every shard response is a typed struct carrying one
// snapshot stamp (generation, epoch, ident, n, directed) that Server
// fills in one helper and Router checks in one call (callShard: pick →
// attempt → hedge → fail over → stamp check → observe), which is also
// the only place the router touches the network. cmd/chlrouter is the
// standalone router; ARCHITECTURE.md ("Sharded serving" — its "Shard
// protocol" section has the endpoint table — "Replicated serving",
// "Directed serving") has the topology, file layout, and protocol.
//
// # Traffic shaping
//
// The router's front door is shaped (all knobs default to off).
// Identical in-flight (u,v) queries collapse into one backend round
// trip — duplicate suppression behind the answer cache, keyed by the
// cache's pair discipline plus a needs-witness-hub bit. With
// RouterConfig.HedgeDelay set, a shard request that has not answered in
// time fires once more at a second replica and the first answer wins;
// the canceled loser is health-neutral — as is every attempt of a /batch
// or /matrix whose client hung up: those handlers hand their request's
// context to the fan-out, which stops. RouterConfig.MaxInFlight and
// ClientQPS/ClientBurst shed excess HTTP load with a 429 whose JSON
// body carries reason ("over_capacity" or "client_quota") and
// retry_after_seconds, plus a whole-second Retry-After header; clients
// are keyed on the X-Client-ID header (QuotaKeyHeader) with the remote
// host as fallback, and operator endpoints are never shed. Cache
// identity is content-addressed: responses carry a hash of the
// snapshot's bytes, so restarts and same-content reloads keep the
// router's cache while real content changes retire it exactly once.
// Everything time-driven — hedge timers, ejection, probation, token
// buckets — reads RouterConfig.Clock, so tests inject FakeClock and
// step it deterministically. ARCHITECTURE.md ("Traffic shaping") has
// the design.
//
// # Query workloads
//
// Three richer workloads run over the same labels, on every storage
// format and deployment shape, with no new file formats. Shortest paths
// (FlatIndex.Path, Server.Path, Router.Path, GET /paths) are one walk
// over the graph: from v back to u, each step to the smallest-id
// in-neighbour on a shortest path, every step an arc, the arcs summing
// to the distance exactly. Its distances come from the frozen labels,
// or from one Dijkstra search from u, stopped once v is final, under an
// overlay and on the router, which holds no labels; a tier with no graph
// answers the witness triple [u, h, v] of one query instead. K-nearest
// neighbors (BatchEngine.KNN, Router.KNN, GET /knn) runs a k-way merge
// over a label-inverted index derived lazily at load time — never serialized,
// so the pinned file formats are untouched — returning exactly the
// (dist, hub) pairs QueryHub would answer. Distance matrices
// (FlatIndex.MatrixRows, Router.Matrix, POST /matrix) scatter each
// source run once and probe every target in a single pass, streamed
// as NDJSON one row at a time so neither end materializes the matrix.
// On the router, /knn deposits its results as pair answers, /matrix
// bypasses the cache, and /paths reads it only for the witness triple; a parity harness pins all three bit-identical to an
// in-memory Dijkstra oracle across every cell of the deployment
// matrix. ARCHITECTURE.md ("Query workloads") has the design.
//
// # Dynamic updates
//
// Server.EnableUpdates(graph, journal) layers a delta overlay
// (internal/delta) over the frozen index so POST /update serves exact
// answers for a mutated graph without a rebuild: edge patches ("add u v
// w" / "del u v" / "set u v w" lines, ParsePatchLog) reduce against the
// base graph, and every query runs its frozen label join exactly as
// without updates, then the overlay corrects that distance — the min of
// the frozen answer and the best path through a patch vertex, read off
// patched-graph rows of the patch vertices, falling back to an exact
// search when a removed edge may lie on a frozen shortest path and no
// path through a patch vertex matches the frozen answer.
// Untouched pairs stay bit-identical; corrected answers that lose the
// frozen witness report hub -1. Each accepted batch is journaled-ahead
// (replayed on restart), advances the overlay epoch, and retires the
// answer caches exactly once — the epoch extends the snapshot identity
// and the router's singleflight keys the same way content hashes do. In
// a cluster the router owns the overlay (RouterConfig.BaseGraph /
// UpdateJournal): shards stay frozen, and the router routes as on a
// frozen cluster, then corrects — a same-shard pair's forwarded answer
// and a cross-shard pair's row join alike go to the same
// delta.Overlay.Query the server calls. POST /compact folds the patches
// into a fresh snapshot — rebuild over the patched graph, rename,
// hot-swap with zero dropped queries, truncate the journal.
// ARCHITECTURE.md ("Dynamic updates") has the correction math and the
// operator rules.
//
// # Distributed execution
//
// The paper runs on a 64-node MPI cluster. This package simulates that
// cluster with one goroutine per node and collectives that copy and meter
// all traffic, so the quantities the paper's distributed evaluation is
// about — label traffic, synchronizations, per-node memory, label-size
// growth — are reproduced exactly; the internal/cluster package doc gives
// the substitution rationale. Use Options.Nodes > 1 with a distributed
// algorithm. The paper's QLSN/QFDL/QDOL query modes are modelled for its
// Table 4 only, by `go run ./cmd/experiments -only table4`; this package
// serves through the frozen stack (NewBatchEngineFlat, Server, Router).
//
// # Rankings
//
// Rankings are chl.Order values: RankByDegree (the paper's choice for
// scale-free graphs), RankByBetweenness (sampled approximate betweenness,
// the paper's choice for road networks; its samples run in parallel and the
// order does not depend on how many), RankAuto (picks between them), or any
// custom permutation via RankFromPerm.
//
// # Static analysis
//
// The serving stack's invariants — the serving tree runs on the
// injectable Clock (the root package and every internal/ package except
// the label constructors and the experiment harness, whose timers are
// measurements, not behaviour), the centralized pairKey/flightKeyFor key
// construction, the JSON error contract, distance bit-exactness, and the
// snapshot acquire/release pairing — are enforced mechanically by
// cmd/chlvet, the repository's own vet tool (five analyzers in
// internal/analysis, run clean by go test ./... through cmd/chlvet's
// TestRepositoryIsClean, and so by CI on every change). A justified
// //chlvet:allow annotation exempts a line; see ARCHITECTURE.md ("Static
// analysis").
package chl

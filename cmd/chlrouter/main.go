// Command chlrouter fronts a cluster of chlquery shard servers and serves
// the same query API a single chlquery -serve process does, over an index
// sliced across many machines.
//
// Split an index and start the cluster (see README.md "Running a
// cluster" for the full walkthrough):
//
//	chlquery -load cal.flat -split 3 -shards-dir ./cluster
//	chlquery -serve :8081 -manifest ./cluster/cluster.json -shard 0
//	chlquery -serve :8082 -manifest ./cluster/cluster.json -shard 1
//	chlquery -serve :8083 -manifest ./cluster/cluster.json -shard 2
//	chlrouter -serve :8080 -manifest ./cluster/cluster.json \
//	    -shards http://localhost:8081,http://localhost:8082,http://localhost:8083
//
// Each shard may be served by a replica group — several processes over
// the same slice file, listed with | inside the shard's slot — and the
// router load-balances across them (power-of-two-choices) and fails
// over when a replica dies: a query only fails when every replica of a
// shard is down. Start a second process per shard and list both:
//
//	chlquery -serve :9081 -manifest ./cluster/cluster.json -shard 0   # replica 1 of shard 0
//	chlrouter -serve :8080 -manifest ./cluster/cluster.json \
//	    -shards 'http://localhost:8081|http://localhost:9081,http://localhost:8082,http://localhost:8083'
//
// With -shards omitted the router uses the replica_addrs recorded in
// the manifest (chlquery -split -addrs). The router then answers:
//
//	GET  /dist?u=17&v=3942      → same schema as a single server, bit-identical answers
//	POST /batch  [[u,v],...]    → {"dists":[...]}   (-1 marks unreachable pairs)
//	GET  /paths?u=17&v=3942     → with -graph the arc-by-arc walk over one Dijkstra search (on the patched graph under an overlay); without, the witness triple of one query
//	GET  /knn?u=17&k=8          → k nearest targets, merged from per-shard inverted-index scans
//	POST /matrix {"sources":[...],"targets":[...]} → NDJSON distance rows, streamed per source
//	GET  /stats                 → per-replica request/error/ejection counters, router cache, generations
//	GET  /healthz               → per-replica health; 503 only when some shard has no live replica
//	GET  /metrics               → Prometheus text format, per-endpoint latency histograms
//	POST /reload?shard=1&replica=0&path=… → proxy a hot swap to one shard replica
//
// Same-shard queries are forwarded whole; cross-shard queries fetch the
// two label rows and hub-join at the router (QDOL-style point-to-point
// routing — see ARCHITECTURE.md "Sharded serving" and "Replicated
// serving").
//
// A cluster split from a directed index (the manifest records
// directed=true) serves ordered queries: /dist?u=&v= is the u→v
// distance, the router's answer cache keys on ordered pairs, and
// cross-shard joins fetch u's forward row and v's backward row. No extra
// flags are needed — directedness travels with the manifest.
//
// The front door is traffic-shaped: identical in-flight (u,v) queries
// always collapse into one backend round trip (singleflight);
// -hedge-after fires a slow shard request at a second replica and takes
// whichever answers first; -max-inflight and -client-qps/-client-burst
// shed excess load with a 429 whose JSON body is {"error", "reason",
// "retry_after_seconds"} (reason "over_capacity" or "client_quota",
// clients keyed on the X-Client-ID header with the remote host as
// fallback) plus a whole-second Retry-After header. Hedge, collapse,
// and shed counts surface in /stats and as
// chl_router_{hedges,collapsed,shed}_total in /metrics.
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"strings"
	"time"

	chl "repro"
	"repro/internal/shard"
)

func main() {
	var (
		manifestPath = flag.String("manifest", "", "cluster manifest written by chlquery -split (cluster.json)")
		shardAddrs   = flag.String("shards", "", "comma-separated shard slots in shard-id order; replicas of one shard joined with | (default: the manifest's replica_addrs)")
		serveAddr    = flag.String("serve", ":8080", "address to serve the router API on")
		cacheCap     = flag.Int("cache", 1<<16, "router answer cache capacity (0 disables)")
		timeout      = flag.Duration("timeout", 5*time.Second, "per-shard request timeout")
		ejectAfter   = flag.Int("eject-after", 3, "consecutive failures before a replica is ejected from rotation")
		probation    = flag.Duration("probation", 2*time.Second, "how long an ejected replica sits out before one request probes it")
		hedgeAfter   = flag.Duration("hedge-after", 0, "fire a shard request at a second replica after this delay, first answer wins (0 disables hedging)")
		maxInFlight  = flag.Int("max-inflight", 0, "max concurrently served /dist and /batch requests; excess shed with 429 (0 disables)")
		clientQPS    = flag.Float64("client-qps", 0, "per-client sustained requests/second on /dist and /batch, keyed on X-Client-ID or remote host; over-quota requests shed with 429 (0 disables)")
		clientBurst  = flag.Int("client-burst", 0, "per-client burst on top of -client-qps (default max(1, -client-qps))")
		graphPath    = flag.String("graph", "", "the graph the cluster's index was built from (.gr DIMACS or edge list) — enables POST /update: the router corrects queries against a delta overlay, shards stay frozen")
		journalPath  = flag.String("update-journal", "", "with -graph: update journal file — accepted patches are appended before serving and replayed on restart")
	)
	flag.Parse()
	if flag.NArg() != 0 {
		fatal(fmt.Errorf("unexpected arguments %q (chlrouter takes flags only)", flag.Args()))
	}

	if *manifestPath == "" {
		fatal(fmt.Errorf("pass -manifest FILE (and -shards URL[|URL...],... unless the manifest records replica_addrs)"))
	}
	m, err := shard.ReadManifest(*manifestPath)
	if err != nil {
		fatal(err)
	}
	var groups [][]string
	if *shardAddrs != "" {
		for _, slot := range strings.Split(*shardAddrs, ",") {
			groups = append(groups, strings.Split(slot, "|"))
		}
	}
	var baseGraph *chl.Graph
	if *graphPath != "" {
		if baseGraph, err = chl.ReadGraphFile(*graphPath, m.Directed); err != nil {
			fatal(err)
		}
	} else if *journalPath != "" {
		fatal(fmt.Errorf("-update-journal needs -graph GRAPH to replay against"))
	}
	r, err := chl.NewRouter(chl.RouterConfig{
		Manifest:      m,
		ReplicaAddrs:  groups,
		CacheSize:     *cacheCap,
		Timeout:       *timeout,
		EjectAfter:    *ejectAfter,
		Probation:     *probation,
		HedgeDelay:    *hedgeAfter,
		MaxInFlight:   *maxInFlight,
		ClientQPS:     *clientQPS,
		ClientBurst:   *clientBurst,
		BaseGraph:     baseGraph,
		UpdateJournal: *journalPath,
	})
	if err != nil {
		fatal(err)
	}
	if baseGraph != nil {
		fmt.Printf("updates: enabled (graph %s, journal %s) — POST /update corrects queries at the router; shards stay frozen\n",
			*graphPath, *journalPath)
	}
	fmt.Printf("cluster: n=%d shards=%d ring-replicas=%d directed=%v cache=%d eject-after=%d probation=%v\n",
		m.Vertices, m.Shards, m.Replicas, m.Directed, *cacheCap, *ejectAfter, *probation)
	fmt.Printf("shaping: hedge-after=%v max-inflight=%d client-qps=%g client-burst=%d (0 = disabled)\n",
		*hedgeAfter, *maxInFlight, *clientQPS, *clientBurst)
	for _, h := range r.Health() {
		states := make([]string, len(h.Replicas))
		for j, rh := range h.Replicas {
			state := "up"
			if !rh.OK {
				state = "DOWN (" + rh.Error + ")"
			}
			states[j] = fmt.Sprintf("%s %s", rh.Addr, state)
		}
		fmt.Printf("  shard %d: %s\n", h.ID, strings.Join(states, ", "))
	}
	endpoints := "GET /dist?u=&v=, POST /batch, GET /paths?u=&v=, GET /knn?u=&k=, POST /matrix, GET /stats, GET /healthz, GET /metrics, POST /reload?shard=&replica="
	if baseGraph != nil {
		endpoints += ", POST /update"
	}
	fmt.Printf("routing on %s (%s)\n", *serveAddr, endpoints)
	log.Fatal(http.ListenAndServe(*serveAddr, r.Handler()))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "chlrouter:", err)
	os.Exit(1)
}

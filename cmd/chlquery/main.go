// Command chlquery loads an index file written by cmd/chl -out and answers
// point-to-point shortest distance queries — interactively ("u v" per line
// on stdin), as a random-batch benchmark timed in wall-clock seconds on
// this machine, or as an HTTP serving process over the flat packed label
// store.
//
// Usage:
//
//	chlquery -load road.flat 17 3942
//	chlquery -load road.flat                 # interactive: one "u v" per line
//	chlquery -load road.flat -bench 100000
//	chlquery -load road.flat -serve :8080
//
// -bench answers a random batch through the parallel batch engine
// (chl.NewBatchEngineFlat), the kernel /batch serves with, and reports
// its wall-clock throughput. The paper's modelled QLSN/QFDL/QDOL cluster
// modes are reproduced by `experiments -only table4`, not here. Every
// distance is exact: the file counts it in uint32 units of 2^-k (k = 0
// for integer weights), and chl refuses to build a label past 2^32 units
// rather than round it.
//
// For indexes too large (or too hot) for one process, -split slices the
// flat index into per-shard files plus a cluster manifest, and -shard
// serves one slice; cmd/chlrouter fronts the shard servers (README.md
// "Running a cluster"):
//
//	chlquery -load road.flat -split 3 -shards-dir ./cluster
//	chlquery -serve :8081 -manifest ./cluster/cluster.json -shard 0
//
// Any shard may be served by several replica processes (same -manifest
// and -shard, different ports) for read scaling and failover; -split
// -addrs records the replica topology in the manifest for the router.
//
// Directed indexes (built by cmd/chl over a directed graph) serve
// through the same flags end to end: the file packs both label halves,
// -bench times ordered pairs, -split marks the manifest directed so the
// router keys its cache on ordered pairs, and /dist?u=&v= answers the
// u→v distance.
//
// -compress switches -save and -split to the compressed label format
// (one delta+varint stream per vertex — 71–72% smaller on disk than the
// fixed-width file on the benchmark fixtures); queries over compressed
// indexes use a merge kernel that decodes as it joins and answer
// bit-identically. It is the only encoding choice; every file is
// the same CHFX container (ARCHITECTURE.md, "On-disk format"):
//
//	chlquery -load road.flat -compress -save road.cflat
//	chlquery -load road.flat -compress -save road.cflat -serve :8080
//	chlquery -load road.cflat -compress -split 3 -shards-dir ./cluster
//
// Serving loads the flat file through chl.OpenFlat — memory-mapped and
// zero-copy on platforms that support it — and hot-swaps index files
// without dropping in-flight queries, via POST /reload or SIGHUP. The
// serving API (JSON error bodies and schemas documented in README.md):
//
//	GET  /dist?u=17&v=3942      → {"u":17,"v":3942,"reachable":true,"dist":42,"hub":106}
//	POST /batch  [[u,v],...]    → {"dists":[...]}   (-1 marks unreachable pairs)
//	GET  /paths?u=17&v=3942     → {"dist":42,"path":[17,18,...,3942]} one shortest path's vertices in order
//	GET  /knn?u=17&k=8          → {"neighbors":[{"v":...,"dist":...,"hub":...},...]} k nearest by label scan
//	POST /matrix {"sources":[...],"targets":[...]} → NDJSON stream, one distance row per source
//	GET  /stats                 → index shape, generation, cache hit/miss counters
//	POST /reload?path=new.flat  → hot-swap to a new flat file (empty path: re-open the current file)
//	GET  /healthz               → {"ok":true,"generation":N}
//
// Served with -graph, /paths walks the graph: every step one arc, read
// off the frozen labels (off one Dijkstra search on the patched graph
// under an outstanding POST /update). Without -graph it returns the witness
// triple [u, h, v] of one query, whose consecutive vertices need not
// share an arc.
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"log"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	chl "repro"
	"repro/internal/shard"
)

func main() {
	var (
		loadPath  = flag.String("load", "", "index file written by chl -out or -save")
		savePath  = flag.String("save", "", "write the loaded index (compressed with -compress) to this file")
		serveAddr = flag.String("serve", "", "serve queries over HTTP on this address (e.g. :8080)")
		bench     = flag.Int("bench", 0, "run a random batch of this many queries")
		seed      = flag.Int64("seed", 1, "seed for -bench query generation; also the consistent-hash ring seed for -split")
		cacheCap  = flag.Int("cache", 1<<16, "answer cache capacity for -serve (0 disables)")
		prefault  = flag.Bool("prefault", false, "fault mapped indexes fully in before serving them (and before each hot swap)")
		comp      = flag.Bool("compress", false, "use the compressed label encoding for -save, -split and in-process serving")

		graphPath = flag.String("graph", "", "for -serve: the graph the index was built from (.gr DIMACS or edge list) — enables POST /update (delta overlay) and /compact")
		journal   = flag.String("journal", "", "for -serve with -graph: update journal file — accepted patches are appended before serving and replayed on restart")

		splitK    = flag.Int("split", 0, "slice the index into this many shard files plus a cluster manifest")
		shardsDir = flag.String("shards-dir", "cluster", "output directory for -split")
		replicas  = flag.Int("replicas", 64, "virtual ring points per shard for -split")
		addrs     = flag.String("addrs", "", "for -split: record the serving topology in the manifest — comma-separated shard slots in shard-id order, replicas of one shard joined with |")
		shardID   = flag.Int("shard", -1, "serve as this shard of the cluster described by -manifest")
		manifest  = flag.String("manifest", "", "cluster manifest (cluster.json) for -shard")
	)
	flag.Parse()

	// The only positional form is "u v" (one point-to-point query); one
	// stray argument or three used to fall silently into interactive
	// mode, which reads as a hang when the user mistyped a flag.
	if n := flag.NArg(); n != 0 && n != 2 {
		fatal(fmt.Errorf("expected no positional arguments or exactly two vertex ids, got %d: %q", n, flag.Args()))
	}

	if *serveAddr != "" {
		runServe(*serveAddr, *loadPath, *savePath, *cacheCap, *prefault, *comp, *shardID, *manifest, *graphPath, *journal)
		return
	}
	if *graphPath != "" || *journal != "" {
		fatal(fmt.Errorf("-graph/-journal enable dynamic updates on the serving tier; pass them with -serve"))
	}

	if *loadPath == "" {
		fatal(errNoLoad)
	}
	fx, err := chl.LoadFlatFile(*loadPath)
	if err != nil {
		fatal(err)
	}
	if *comp {
		// Compress is idempotent: re-saving an already-compressed flat
		// file with -compress is a no-op, not an error.
		if fx, err = fx.Compress(); err != nil {
			fatal(err)
		}
	}

	if *splitK > 0 {
		runSplit(fx, *splitK, *shardsDir, *replicas, uint64(*seed), *addrs)
		return
	}
	fmt.Printf("index: n=%d labels=%d flat=%.2f MiB directed=%v compressed=%v\n",
		fx.NumVertices(), fx.TotalLabels(), float64(fx.TotalMemory())/(1<<20), fx.Directed(), fx.Compressed())

	if *savePath != "" {
		if err := fx.SaveFile(*savePath); err != nil {
			fatal(err)
		}
		fmt.Printf("saved flat index to %s\n", *savePath)
		if *bench == 0 && flag.NArg() == 0 {
			return
		}
	}
	if *bench > 0 {
		runBench(fx, *bench, *seed)
		return
	}
	if flag.NArg() == 2 {
		u, err1 := strconv.Atoi(flag.Arg(0))
		v, err2 := strconv.Atoi(flag.Arg(1))
		if n := fx.NumVertices(); err1 != nil || err2 != nil || u < 0 || v < 0 || u >= n || v >= n {
			fatal(fmt.Errorf("bad vertex ids %q %q (want ids in [0,%d))", flag.Arg(0), flag.Arg(1), n))
		}
		answer(fx, u, v)
		return
	}
	// Interactive mode.
	sc := bufio.NewScanner(os.Stdin)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 2 {
			fmt.Println("enter: u v")
			continue
		}
		u, err1 := strconv.Atoi(f[0])
		v, err2 := strconv.Atoi(f[1])
		if err1 != nil || err2 != nil || u < 0 || v < 0 || u >= fx.NumVertices() || v >= fx.NumVertices() {
			fmt.Printf("vertex ids must be in [0,%d)\n", fx.NumVertices())
			continue
		}
		answer(fx, u, v)
	}
	// A read error (closed terminal, piped file going away) is not the
	// same as a clean EOF; surface it instead of exiting 0.
	if err := sc.Err(); err != nil {
		fatal(fmt.Errorf("reading queries: %w", err))
	}
}

// errNoLoad is the refusal of a run without an index file.
var errNoLoad = errors.New("pass -load FILE: an index file written by chl -out (or by -save)")

func answer(fx *chl.FlatIndex, u, v int) {
	// Ordered notation for directed indexes: d(u→v) and d(v→u) differ.
	pair := fmt.Sprintf("d(%d,%d)", u, v)
	if fx.Directed() {
		pair = fmt.Sprintf("d(%d→%d)", u, v)
	}
	d, hub, ok := fx.QueryHub(u, v)
	if !ok || math.IsInf(d, 1) || d == math.MaxFloat64 {
		fmt.Printf("%s = unreachable\n", pair)
		return
	}
	fmt.Printf("%s = %g (via hub %d)\n", pair, d, hub)
}

// runSplit slices fx into k per-shard flat files plus the cluster
// manifest cmd/chlrouter and -shard serving consume. A non-empty addrs
// spec ("http://a|http://a2,http://b,...": one slot per shard, replicas
// joined with |) is recorded in the manifest as the cluster's serving
// topology, so the router can be pointed at the manifest alone.
func runSplit(fx *chl.FlatIndex, k int, dir string, replicas int, seed uint64, addrs string) {
	m, err := fx.SaveShards(dir, k, replicas, seed)
	if err != nil {
		fatal(err)
	}
	manifestPath := filepath.Join(dir, shard.ManifestName)
	if addrs != "" {
		for _, slot := range strings.Split(addrs, ",") {
			m.ReplicaAddrs = append(m.ReplicaAddrs, strings.Split(slot, "|"))
		}
		if err := shard.WriteManifest(manifestPath, m); err != nil {
			fatal(err)
		}
	}
	fmt.Printf("wrote %d shards + %s to %s (directed=%v)\n", k, shard.ManifestName, dir, m.Directed)
	for i, f := range m.Files {
		fmt.Printf("  shard %d: %s (%d vertices)", i, f, m.VertexCounts[i])
		if m.ReplicaAddrs != nil {
			fmt.Printf(" @ %s", strings.Join(m.ReplicaAddrs[i], ", "))
		}
		fmt.Println()
	}
	fmt.Printf("serve each with: chlquery -serve :PORT -manifest %s -shard I  (every replica of shard I uses the same -shard I)\n",
		manifestPath)
}

// runServe builds the hot-swappable serving tier and blocks on HTTP. The
// -load file is opened mmap-backed (chl.OpenFlat); with -save it is first
// copied (compressed with -compress) and the copy is served, so /reload
// and SIGHUP re-open the file being served. With -manifest and -shard the
// process serves one slice of a split cluster. A plain -load serves
// whatever format the file already holds.
func runServe(addr, loadPath, savePath string, cacheCap int, prefault, comp bool, shardID int, manifestPath, graphPath, journal string) {
	if manifestPath != "" || shardID >= 0 {
		if loadPath != "" {
			// The manifest names the shard's file; a conflicting -load
			// must not be silently discarded.
			fatal(fmt.Errorf("shard serving takes its file from the manifest; drop -load"))
		}
		if graphPath != "" || journal != "" {
			// Shards are frozen by design; the router owns the overlay.
			fatal(fmt.Errorf("shard servers do not take updates (-graph/-journal); point them at chlrouter -graph instead"))
		}
		runShardServe(addr, cacheCap, prefault, shardID, manifestPath)
		return
	}
	if journal != "" && graphPath == "" {
		fatal(fmt.Errorf("-journal needs -graph GRAPH to replay against"))
	}
	if loadPath == "" {
		fatal(errNoLoad)
	}
	if comp && savePath == "" {
		// A bare -load serves the file as-is (possibly mmapped); the
		// format conversion needs a file to write.
		fatal(fmt.Errorf("-compress with -load needs -save FILE to write the converted index"))
	}
	if savePath != "" { // copy the flat file, then serve the copy
		fx, err := chl.LoadFlatFile(loadPath)
		if err == nil && comp {
			fx, err = fx.Compress()
		}
		if err == nil {
			err = fx.SaveFile(savePath)
		}
		if err != nil {
			fatal(err)
		}
		fmt.Printf("saved flat index to %s\n", savePath)
		loadPath = savePath
	}
	s, err := chl.NewServer(loadPath, cacheCap)
	if err != nil {
		fatal(err)
	}
	if prefault {
		s.SetPrefault(true)
	}
	if graphPath != "" {
		g, err := chl.ReadGraphFile(graphPath, s.Stats().Directed)
		if err != nil {
			fatal(err)
		}
		if err := s.EnableUpdates(g, journal); err != nil {
			fatal(err)
		}
		if st := s.Stats(); st.Patch != nil {
			fmt.Printf("updates: enabled (graph %s, journal %s) — replayed %d ops, overlay epoch %d\n",
				graphPath, journal, st.Patch.Ops, st.Patch.Epoch)
		} else {
			fmt.Printf("updates: enabled (graph %s, journal %s)\n", graphPath, journal)
		}
	}
	st := s.Stats()
	fmt.Printf("index: n=%d labels=%d flat=%.2f MiB mapped=%v directed=%v compressed=%v cache=%d\n",
		st.Vertices, st.Labels, float64(st.MemoryBytes)/(1<<20), st.Mapped, st.Directed, st.Compressed, cacheCap)
	installReload(s)
	endpoints := "GET /dist?u=&v=, POST /batch, GET /paths?u=&v=, GET /knn?u=&k=, POST /matrix, GET /stats, POST /reload, GET /healthz, GET /metrics"
	if graphPath != "" {
		endpoints += ", POST /update, POST /compact"
	}
	fmt.Printf("serving on %s (%s)\n", addr, endpoints)
	log.Fatal(http.ListenAndServe(addr, s.Handler()))
}

// runShardServe serves one shard of a split cluster: the shard's slice
// file (resolved from the manifest), the shard ownership checks, and the
// /shardquery endpoint the router joins across. Hot reload (POST /reload,
// SIGHUP) re-opens the shard's own file — e.g. after the splitter
// re-published the cluster in place.
func runShardServe(addr string, cacheCap int, prefault bool, shardID int, manifestPath string) {
	if manifestPath == "" || shardID < 0 {
		fatal(fmt.Errorf("shard serving needs both -manifest FILE and -shard ID"))
	}
	m, err := shard.ReadManifest(manifestPath)
	if err != nil {
		fatal(err)
	}
	p, err := m.Partition()
	if err != nil {
		fatal(err)
	}
	file, err := chl.ShardFilePath(manifestPath, m, shardID)
	if err != nil {
		fatal(err)
	}
	s, err := chl.NewServer(file, cacheCap)
	if err != nil {
		fatal(err)
	}
	if err := s.SetShard(shardID, p); err != nil {
		fatal(err)
	}
	if prefault {
		s.SetPrefault(true)
	}
	st := s.Stats()
	if st.Vertices != m.Vertices {
		fatal(fmt.Errorf("shard file %s covers %d vertices but the manifest says %d — mismatched cluster build?",
			file, st.Vertices, m.Vertices))
	}
	if st.Directed != m.Directed {
		fatal(fmt.Errorf("shard file %s is directed=%v but the manifest says directed=%v — mismatched cluster build?",
			file, st.Directed, m.Directed))
	}
	fmt.Printf("shard %d/%d: file=%s n=%d labels=%d flat=%.2f MiB mapped=%v directed=%v cache=%d\n",
		shardID, m.Shards, file, st.Vertices, st.Labels, float64(st.MemoryBytes)/(1<<20), st.Mapped, st.Directed, cacheCap)
	installReload(s)
	fmt.Printf("serving on %s (router-facing POST /shardquery, POST /shardscan; GET /dist?u=&v=, POST /batch, GET /stats, POST /reload, GET /healthz, GET /metrics)\n", addr)
	log.Fatal(http.ListenAndServe(addr, s.Handler()))
}

// runBench answers count random pairs through the parallel batch engine
// over the flat store and reports the wall-clock throughput on this
// machine.
func runBench(fx *chl.FlatIndex, count int, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	n := fx.NumVertices()
	pairs := make([]chl.QueryPair, count)
	for i := range pairs {
		pairs[i] = chl.QueryPair{U: rng.Intn(n), V: rng.Intn(n)}
	}
	eng := chl.NewBatchEngineFlat(fx)
	start := time.Now()
	dists := eng.Batch(pairs)
	elapsed := time.Since(start).Seconds()
	var reach int
	for _, d := range dists {
		if d != chl.Infinity {
			reach++
		}
	}
	fmt.Printf("batch: %d queries in %.3fs = %.2f Mq/s (wall clock), %d reachable\n",
		count, elapsed, float64(count)/elapsed/1e6, reach)
	fmt.Printf("  memory: %.2f MiB flat\n", float64(fx.TotalMemory())/(1<<20))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "chlquery:", err)
	os.Exit(1)
}

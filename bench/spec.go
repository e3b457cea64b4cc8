package main

import (
	"encoding/json"
	"strings"
)

// This file is the benchmark's definition: its workloads and every metric
// by name, unit and direction. BENCHMARK.json at the repository root is
// generated from it (`-spec`), and the package test fails when the two
// drift apart.

// runSeconds is the measuring time the driver passes as --seconds. With
// the set-ups and gates one run takes 25-28s of wall time on two cores,
// which keeps the driver's 92 runs inside its time cap with a fifth spare.
const runSeconds = 24

// workload is one traffic mix over one fixture. Every workload walks the
// same journey a user of the stack walks — rank, build, freeze, serve — so
// every end-to-end metric exists on every workload; what differs is the
// graph regime and which stage gets the time.
type workload struct {
	Name string
	Why  string

	fixture string // "road" or "scalefree"

	// Shares of --seconds given to label construction, to /dist over
	// loopback and to /batch. Construction always runs at least
	// minBuildRounds rounds, whatever its share.
	buildShare, distShare, batchShare float64

	// live puts a writer (POST /update, POST /compact) beside a single
	// reader during the /dist phase; otherwise two readers.
	live bool

	// Layers only the traced run exercises, so their rungs report 0 on
	// the other workloads.
	router, variants bool
}

var workloads = []workload{
	{
		Name:    "build-road",
		Why:     "high-diameter road grid: the regime where PLaNT alone is efficient; most of the run is label construction, serving is a short tail",
		fixture: "road", buildShare: 0.60, distShare: 0.20, batchShare: 0.10,
	},
	{
		Name:    "build-scalefree",
		Why:     "scale-free graph: PLaNT-hostile (fringe exploration blow-up), GLL cleaning and the Hybrid switch earn their place; short labels when served",
		fixture: "scalefree", buildShare: 0.60, distShare: 0.20, batchShare: 0.10,
	},
	{
		Name:    "serve-frozen",
		Why:     "read-only serving of the road index from an mmap'd file, cache off: /dist is transport-bound, /batch kernel-bound; traced run adds router, compressed and directed rungs",
		fixture: "road", buildShare: 0.30, distShare: 0.40, batchShare: 0.15,
		router: true, variants: true,
	},
	{
		Name:    "serve-live",
		Why:     "one reader beside a writer posting edge updates and compactions: overlay-corrected reads and background rebuilds compete for both cores",
		fixture: "road", buildShare: 0.30, distShare: 0.45, batchShare: 0.10,
		live: true,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

type e2eMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type layerMetric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd lists what a user of the stack sees, every time and rate scaled
// to the reference speed (reference.go). Bounds are the share of the
// parent's median a metric may worsen by; README.md records the spreads
// they were sized against.
var endToEnd = []e2eMetric{
	{"setup_s", "s", lower, 0.25},
	{"build_seqpll_s", "s", lower, 0.20},
	{"build_gll_s", "s", lower, 0.20},
	{"build_plant_s", "s", lower, 0.20},
	{"build_hybrid_s", "s", lower, 0.20},
	{"file_bytes_per_label_compressed", "B/label", lower, 0.01},
	{"dist_rps", "1/s", higher, 0.20},
	{"dist_p50_us", "us", lower, 0.20},
	{"dist_p95_us", "us", lower, 0.25},
	{"batch_pairs_per_s", "1/s", higher, 0.25},
}

// traceAlgos are the constructors the traced run instruments, in the order
// their metrics are listed.
var traceAlgos = []string{"seqpll", "lcc", "gll", "plant", "dgll", "hybrid"}

var perLayer = buildPerLayer()

func buildPerLayer() []layerMetric {
	ms := []layerMetric{
		{"graph.gen_s", "s", lower},
		{"graph.permute_s", "s", lower},
		{"order.rank_s", "s", lower},
	}
	for _, a := range traceAlgos {
		ms = append(ms,
			layerMetric{a + ".construct_s", "s", lower},
			layerMetric{a + ".clean_s", "s", lower},
			layerMetric{a + ".labels_generated", "count", lower},
			layerMetric{a + ".labels_cleaned", "count", lower},
			layerMetric{a + ".vertices_explored", "count", lower},
			layerMetric{a + ".distance_queries", "count", lower},
		)
	}
	return append(ms, []layerMetric{
		{"plant.psi", "ratio", lower},
		{"plant.speedup_2w", "ratio", higher},
		{"gll.speedup_2w", "ratio", higher},
		{"hybrid.switched_at_tree", "count", higher},
		{"hybrid.bytes_sent", "B", lower},
		{"dgll.bytes_sent", "B", lower},
		{"dgll.synchronizations", "count", lower},

		{"label.freeze_s", "s", lower},
		{"label.compress_s", "s", lower},
		{"label.save_packed_s", "s", lower},
		{"label.save_compressed_s", "s", lower},
		{"label.open_mmap_s", "s", lower},
		{"label.load_heap_s", "s", lower},
		{"label.bytes_per_label_packed", "B/label", lower},
		{"label.join_packed_ns", "ns", lower},
		{"label.join_compressed_ns", "ns", lower},
		{"label.join_directed_ns", "ns", lower},
		{"label.entries_per_join", "count", lower},

		{"engine.query_ns", "ns", lower},
		{"engine.queryhub_ns", "ns", lower},
		{"engine.batch_pairs_per_s", "1/s", higher},
		{"engine.allocs_per_query", "count", lower},
		{"cache.hit_ns", "ns", lower},
		{"cache.miss_ns", "ns", lower},
		{"cache.hit_ratio_zipf", "ratio", higher},

		{"serve.query_ns", "ns", lower},
		{"serve.handler_dist_ns", "ns", lower},
		{"serve.handler_dist_allocs", "count", lower},
		{"serve.handler_dist_bytes", "B", lower},
		{"serve.loopback_dist_us", "us", lower},
		{"serve.dist_p99_us", "us", lower},
		{"serve.dist_p999_us", "us", lower},
		{"serve.knn_p50_us", "us", lower},
		{"serve.paths_p50_us", "us", lower},
		{"serve.matrix_cells_per_s", "1/s", higher},
		{"serve.batch_compressed_pairs_per_s", "1/s", higher},
		{"serve.batch_directed_pairs_per_s", "1/s", higher},

		{"router.query_inproc_us", "us", lower},
		{"router.dist_p50_us", "us", lower},
		{"router.same_shard_p50_us", "us", lower},
		{"router.cross_shard_p50_us", "us", lower},
		{"router.cross_join_ratio", "ratio", lower},
		{"router.shard_requests_per_query", "ratio", lower},

		{"delta.patched_query_us", "us", lower},
		{"delta.patch_vertices", "count", lower},
		{"delta.apply_ms_4ops", "ms", lower},
		{"delta.apply_ms_32ops", "ms", lower},
		{"delta.update_apply_ms", "ms", lower},
		{"delta.compact_s", "s", lower},
		{"delta.compact_rebuild_s", "s", lower},
		{"delta.live_dist_p99_us", "us", lower},

		{"trace.overhead_pct", "%", lower},
		{"host.slowdown", "ratio", lower},
	}...)
}

// specJSON renders BENCHMARK.json.
func specJSON() []byte {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	spec := struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []wl          `json:"workloads"`
		EndToEnd   []e2eMetric   `json:"end_to_end"`
		PerLayer   []layerMetric `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, w := range workloads {
		spec.Workloads = append(spec.Workloads, wl{w.Name, w.Why})
	}
	var sb strings.Builder
	enc := json.NewEncoder(&sb)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	if err := enc.Encode(spec); err != nil {
		panic(err) // plain structs of strings and numbers always encode
	}
	return []byte(sb.String())
}

// Command bench is this repository's scoreboard: label construction and
// serving, end to end and layer by layer, on a 2-core box. BENCHMARK.json
// at the repository root names it; README.md in this directory says what
// every workload and metric is and how they are meant to move together.
//
//	bash bench/run.sh --workload build-road --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh --workload serve-frozen --seed 1 --seconds 20 --trace 1
//	bash bench/run.sh -selfcheck            # every workload, several seeds, spreads against bounds
//	bash bench/run.sh -spec                 # print BENCHMARK.json
//
// The last line of standard output is one JSON object: correct, attempted,
// failed, metrics. The exit code is non-zero when any operation failed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

func main() {
	var (
		name      = flag.String("workload", "", "workload to run: "+workloadNames())
		seed      = flag.Int64("seed", 1, "seed of everything random: vertex numbering, query pairs, batches, edge updates")
		seconds   = flag.Float64("seconds", runSeconds, "measuring time of one run")
		trace     = flag.Int("trace", 0, "1: the traced run (per-layer metrics, spans in <out>/trace-<workload>.json); 0: end-to-end metrics")
		size      = flag.String("size", "full", "fixture profile: full or tiny")
		out       = flag.String("out", filepath.Join("bench", "out"), "directory for result and span files")
		tmp       = flag.String("tmp", "", "directory for index files (default: <out>)")
		selfcheck = flag.Bool("selfcheck", false, "run every workload -runs times on consecutive seeds and compare spreads to the bounds")
		runs      = flag.Int("runs", 2, "runs per workload under -selfcheck")
		spec      = flag.Bool("spec", false, "print BENCHMARK.json and exit")
	)
	flag.Parse()
	if flag.NArg() != 0 {
		fatalf("unexpected arguments %q", flag.Args())
	}
	if *spec {
		os.Stdout.Write(specJSON())
		return
	}
	if runtime.NumCPU() < procs {
		fatalf("%d CPU available: the load is sized for %d and would oversubscribe", runtime.NumCPU(), procs)
	}
	runtime.GOMAXPROCS(procs)
	p, ok := profiles[*size]
	if !ok {
		fatalf("unknown -size %q (full or tiny)", *size)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fatalf("-seconds must be positive and -trace 0 or 1")
	}
	if *tmp == "" {
		*tmp = *out
	}
	cfg := config{p: p, seed: *seed, seconds: *seconds, out: *out, tmp: *tmp}

	if *selfcheck {
		if *runs < 2 {
			fatalf("-runs must be at least 2")
		}
		if !selfCheck(cfg, *runs) {
			os.Exit(1)
		}
		return
	}
	w, ok := findWorkload(*name)
	if !ok {
		fatalf("unknown -workload %q (one of %s)", *name, workloadNames())
	}
	res, err := runOnce(cfg, w, *trace == 1)
	if err != nil {
		fatalf("%s: %v", w.Name, err)
	}
	res.print()
	if !res.Correct {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return strings.Join(names, ", ")
}

// config is what every run of one invocation shares.
type config struct {
	p        profile
	seed     int64
	seconds  float64
	out, tmp string
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// stamp records where and on what a result was measured.
type stamp struct {
	Commit     string   `json:"commit"`
	GoVersion  string   `json:"go_version"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	NumCPU     int      `json:"nproc"`
	CPUModel   string   `json:"cpu_model"`
	Workload   string   `json:"workload"`
	Seed       int64    `json:"seed"`
	Seconds    float64  `json:"seconds"`
	Traced     bool     `json:"traced"`
	Size       string   `json:"size"`
	SetupReps  int      `json:"setup_reps"`
	WallS      float64  `json:"wall_s"`
	Notes      []string `json:"notes"` // fixture sizes, rounds, sample counts
}

// result is one run's outcome. The four exported fields without omitempty
// are the line the driver reads.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	stamp    stamp
	failures []string
	order    []string // metric names in definition order
}

// runOnce runs one workload once, traced or not, and writes its result
// file.
func runOnce(cfg config, w workload, traced bool) (*result, error) {
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.tmp, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(cfg.tmp, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	r := &runner{w: w, p: cfg.p, seed: cfg.seed, seconds: cfg.seconds, tmp: tmp}
	start := time.Now()
	var values map[string]float64
	units := map[string]string{}
	var order []string
	define := func(name, unit string) {
		units[name] = unit
		order = append(order, name)
	}
	if traced {
		values, err = r.runTraced(filepath.Join(cfg.out, "trace-"+w.Name+".json"))
		for _, d := range perLayer {
			define(d.Name, d.Unit)
		}
	} else {
		values, err = r.runE2E()
		for _, d := range endToEnd {
			define(d.Name, d.Unit)
		}
	}
	if err != nil {
		return nil, err
	}

	res := &result{
		Attempted: r.ops.attempted.Load(),
		Failed:    r.ops.failed.Load(),
		Metrics:   map[string]metricValue{},
		failures:  r.ops.msgs,
		order:     order,
		stamp: stamp{
			Commit: commit(), GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0),
			NumCPU: runtime.NumCPU(), CPUModel: cpuModel(), Workload: w.Name, Seed: cfg.seed,
			Seconds: cfg.seconds, Traced: traced, Size: cfg.p.name, SetupReps: setupReps,
			WallS: time.Since(start).Seconds(), Notes: r.notes,
		},
	}
	for _, name := range order {
		v, ok := values[name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", name)
		}
		res.Metrics[name] = metricValue{v, units[name]}
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	return res, res.save(filepath.Join(cfg.out, fmt.Sprintf("result-%s-trace%d.json", w.Name, b2i(traced))))
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// save writes the result with its stamp.
func (res *result) save(path string) error {
	b, err := json.MarshalIndent(struct {
		Stamp stamp `json:"stamp"`
		*result
		Failures []string `json:"failures,omitempty"`
	}{res.stamp, res, res.failures}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// print writes the stamp and every metric by name with its unit, then the
// one-line JSON object the driver parses.
func (res *result) print() {
	s := res.stamp
	fmt.Printf("workload %s seed %d seconds %g traced %v size %s\n", s.Workload, s.Seed, s.Seconds, s.Traced, s.Size)
	fmt.Printf("commit %s  %s  GOMAXPROCS %d  nproc %d  %s\n", s.Commit, s.GoVersion, s.GOMAXPROCS, s.NumCPU, s.CPUModel)
	for _, n := range s.Notes {
		fmt.Println(" ", n)
	}
	for _, name := range res.order {
		m := res.Metrics[name]
		fmt.Printf("%-36s %16.6g %s\n", name, m.Value, m.Unit)
	}
	fmt.Printf("ops_total %d  ops_failed %d  wall %.1fs\n", res.Attempted, res.Failed, s.WallS)
	for _, f := range res.failures {
		fmt.Println("  FAILED:", f)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatalf("encoding result: %v", err)
	}
	fmt.Println(string(line))
}

// commit is the checked-out revision, read from .git in the working
// directory, or "unknown" where there is none (the driver's checkouts are
// not repositories).
func commit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return short(ref)
	}
	if b, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return short(strings.TrimSpace(string(b)))
	}
	packed, _ := os.ReadFile(filepath.Join(".git", "packed-refs"))
	for _, line := range strings.Split(string(packed), "\n") {
		if hash, name, ok := strings.Cut(line, " "); ok && name == ref {
			return short(hash)
		}
	}
	return "unknown"
}

func short(hash string) string {
	if len(hash) > 12 {
		return hash[:12]
	}
	return hash
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

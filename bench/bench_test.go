package main

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"
)

// BENCHMARK.json is generated from spec.go; regenerate it with
// `bash bench/run.sh -spec > BENCHMARK.json` after changing a definition.
func TestBenchmarkJSONIsGenerated(t *testing.T) {
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, specJSON()) {
		t.Fatal("BENCHMARK.json differs from `bench -spec`: regenerate it")
	}
}

// The driver refuses a BENCHMARK.json outside these limits before a single
// run.
func TestSpecWithinDriverLimits(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		t.Helper()
		if !name.MatchString(n) {
			t.Errorf("name %q is not a valid metric or workload name", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if len(workloads) < 2 || len(workloads) > 8 {
		t.Errorf("%d workloads", len(workloads))
	}
	for _, w := range workloads {
		checkName(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
		if sum := w.buildShare + w.distShare + w.batchShare; sum > 1 {
			t.Errorf("workload %s: shares sum to %v", w.Name, sum)
		}
	}
	if len(endToEnd) < 1 || len(endToEnd) > 16 || len(perLayer) < 1 || len(perLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics", len(endToEnd), len(perLayer))
	}
	setup := false
	for _, m := range endToEnd {
		checkName(m.Name)
		if !unit.MatchString(m.Unit) || (m.Better != lower && m.Better != higher) || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %+v is malformed", m)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == lower)
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, m := range perLayer {
		checkName(m.Name)
		if !unit.MatchString(m.Unit) || (m.Better != lower && m.Better != higher) {
			t.Errorf("per-layer metric %+v is malformed", m)
		}
	}
	if runSeconds < 1 || runSeconds > 60 || len(specJSON()) > 64<<10 {
		t.Errorf("run_seconds %d, file of %d bytes", runSeconds, len(specJSON()))
	}
}

// Counts the program makes repeat bit for bit on one seed, whatever the
// clock does.
var exactLayer = []string{
	"seqpll.labels_generated", "seqpll.vertices_explored", "seqpll.distance_queries",
	"plant.labels_generated", "plant.vertices_explored", "hybrid.vertices_explored",
	"label.entries_per_join", "label.bytes_per_label_packed", "cache.hit_ratio_zipf",
}

// Every workload, both modes, at the tiny profile: the metric names are
// BENCHMARK.json's, no operation fails, and exact metrics repeat on one
// seed and move with another.
func TestWorkloadsTiny(t *testing.T) {
	if runtime.NumCPU() < procs {
		t.Skipf("needs %d CPUs", procs)
	}
	if testing.Short() {
		t.Skip("runs every workload six times")
	}
	runtime.GOMAXPROCS(procs)
	cfg := config{p: profiles["tiny"], seconds: 1, out: t.TempDir()}
	cfg.tmp = cfg.out
	run := func(w workload, seed int64, traced bool) map[string]metricValue {
		t.Helper()
		c := cfg
		c.seed = seed
		res, err := runOnce(c, w, traced)
		if err != nil {
			t.Fatalf("%s seed %d traced %v: %v", w.Name, seed, traced, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Fatalf("%s seed %d traced %v: %d of %d operations failed: %v", w.Name, seed, traced, res.Failed, res.Attempted, res.failures)
		}
		return res.Metrics
	}
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			a, b := run(w, 7, false), run(w, 7, false)
			if len(a) != len(endToEnd) {
				t.Errorf("%d end-to-end metrics emitted, %d defined", len(a), len(endToEnd))
			}
			for _, d := range endToEnd {
				if m, ok := a[d.Name]; !ok || m.Unit != d.Unit || !(m.Value > 0) || math.IsInf(m.Value, 0) {
					t.Errorf("end-to-end %s = %+v, want a positive value in %s", d.Name, m, d.Unit)
				}
			}
			const exact = "file_bytes_per_label_compressed"
			if a[exact] != b[exact] {
				t.Errorf("%s differs between two runs of one seed: %v, %v", exact, a[exact], b[exact])
			}

			ta, tb, tc := run(w, 7, true), run(w, 7, true), run(w, 8, true)
			if len(ta) != len(perLayer) {
				t.Errorf("%d per-layer metrics emitted, %d defined", len(ta), len(perLayer))
			}
			for _, d := range perLayer {
				if m, ok := ta[d.Name]; !ok || m.Unit != d.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("per-layer %s = %+v, want a finite value in %s", d.Name, m, d.Unit)
				}
			}
			moved := false
			for _, name := range exactLayer {
				if ta[name] != tb[name] {
					t.Errorf("%s differs between two runs of one seed: %v, %v", name, ta[name], tb[name])
				}
				moved = moved || ta[name] != tc[name]
			}
			if !moved {
				t.Errorf("no exact metric moved with the seed: %v", exactLayer)
			}
			if _, err := os.Stat(filepath.Join(cfg.out, "trace-"+w.Name+".json")); err != nil {
				t.Errorf("no span file: %v", err)
			}
		})
	}
	left, err := filepath.Glob(filepath.Join(cfg.tmp, "run-*"))
	if err != nil || len(left) != 0 {
		t.Errorf("scratch directories left behind: %v %v", left, err)
	}
}

func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	// Every value involved is a binary fraction, so the result is exact.
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got := spread(xs); got != 1 {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5", got)
	}
	if got := spread([]float64{6, 8, 10}); got != 0.5 {
		t.Errorf("spread of three = %v, want range over median", got)
	}
}

func TestPercentiles(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if median(xs) != 50.5 || percentile(xs, 50) != 51 || percentile(xs, 99) != 100 || percentile(nil, 50) != 0 {
		t.Errorf("median %v p50 %v p99 %v", median(xs), percentile(xs, 50), percentile(xs, 99))
	}
}

// A reply may reflect every update acknowledged before its request left,
// up to every update sent by the time it arrived.
func TestLiveWindow(t *testing.T) {
	st := newLiveState(3)
	before := time.Now()
	if lo, hi := st.window(before); lo != 0 || hi != 0 {
		t.Fatalf("no update yet: window [%d,%d]", lo, hi)
	}
	st.stamp(&st.started[0])
	if lo, hi := st.window(time.Now()); lo != 0 || hi != 1 {
		t.Fatalf("one update in flight: window [%d,%d]", lo, hi)
	}
	st.stamp(&st.acked[0])
	st.stamp(&st.started[1])
	if lo, hi := st.window(time.Now()); lo != 1 || hi != 2 {
		t.Fatalf("one acknowledged, one in flight: window [%d,%d]", lo, hi)
	}
	if lo, hi := st.window(before); lo != 0 || hi != 2 {
		t.Fatalf("request sent before any update: window [%d,%d]", lo, hi)
	}
}

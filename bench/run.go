package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	chl "repro"
)

const (
	// procs is the whole load: GOMAXPROCS, build workers, simulated nodes
	// and HTTP callers are all sized for a 2-core box.
	procs = 2

	setupReps      = 3 // set-ups per run; setup_s is their median
	minBuildRounds = 3 // rounds of every constructor, whatever the share
	maxCycles      = 8 // keeps the slices of a fast fixture long enough to mean something
)

// runner carries one run of one workload.
type runner struct {
	w       workload
	p       profile
	seed    int64
	seconds float64
	tmp     string // scratch directory for index files, removed after the run

	ops      opCount
	notes    []string  // sample counts and fixture sizes, for the report
	readings []reading // of the reference kernel, in time order
}

func (r *runner) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *runner) share(s float64) time.Duration {
	return time.Duration(s * r.seconds * float64(time.Second))
}

// builder is one label constructor as the scoreboard runs it.
type builder struct {
	name string
	opt  chl.Options
}

// e2eBuilders are the four constructors of the paper's Table 3, at the
// box's size. The hierarchy is passed in, so ranking is not in the timing.
func e2eBuilders(ord *chl.Order) []builder {
	return []builder{
		{"seqpll", chl.Options{Algorithm: chl.AlgoSeqPLL, Order: ord}},
		{"gll", chl.Options{Algorithm: chl.AlgoGLL, Workers: procs, Order: ord}},
		{"plant", chl.Options{Algorithm: chl.AlgoPLaNT, Workers: procs, Order: ord}},
		{"hybrid", chl.Options{Algorithm: chl.AlgoHybrid, Nodes: procs, WorkersPerNode: 1, Order: ord}},
	}
}

// timedBuild runs one construction and returns its wall time; a failed
// build is a failed operation.
func (r *runner) timedBuild(g *chl.Graph, b builder) (*chl.Index, float64) {
	runtime.GC() // the previous build's garbage is not this build's cost
	start := time.Now()
	ix, err := chl.Build(g, b.opt)
	secs := time.Since(start).Seconds()
	if err != nil {
		r.ops.fail("build %s: %v", b.name, err)
		return nil, 0
	}
	r.ops.ok()
	return ix, secs
}

// identity is what two canonical labelings of one hierarchy must share.
type identity struct {
	labels int64
	hash   uint64
}

func identify(ix *chl.Index) (identity, error) {
	fx, err := ix.Freeze()
	if err != nil {
		return identity{}, err
	}
	return identity{fx.TotalLabels(), fx.ContentHash()}, nil
}

// gateCanonical checks that ix is the labeling ref is: the CHL of a
// hierarchy is unique, so every canonical constructor must agree bit for
// bit.
func (r *runner) gateCanonical(name string, ix *chl.Index, ref identity) {
	id, err := identify(ix)
	switch {
	case err != nil:
		r.ops.fail("freeze %s: %v", name, err)
	case id != ref:
		r.ops.fail("%s built %d labels hash %x, seqPLL %d labels hash %x", name, id.labels, id.hash, ref.labels, ref.hash)
	default:
		r.ops.ok()
	}
}

// gateOracle checks the index against the Dijkstra rows bit for bit.
func (r *runner) gateOracle(ix *chl.Index, in *inputs) {
	for i, s := range in.sources {
		bad := -1
		for v, want := range in.rows[i] {
			if ix.Query(s, v) != want {
				bad = v
				break
			}
		}
		if bad >= 0 {
			r.ops.fail("index d(%d,%d)=%v, Dijkstra %v", s, bad, ix.Query(s, bad), in.rows[i][bad])
		} else {
			r.ops.ok()
		}
	}
}

// buildRound runs every constructor once and appends the paced wall times.
// The gated round also checks each labeling against seqPLL's and seqPLL's
// against the oracle, and returns the GLL index for serving.
func (r *runner) buildRound(in *inputs, builders []builder, times map[string]samples, gated bool) (served *chl.Index) {
	var ref identity
	for _, b := range builders {
		var (
			ix   *chl.Index
			secs float64
		)
		over := r.paced(func() { ix, secs = r.timedBuild(in.g, b) })
		if ix == nil {
			continue
		}
		times[b.name] = append(times[b.name], sample{secs, over})
		if !gated {
			continue
		}
		if b.name == "seqpll" {
			id, err := identify(ix)
			if err != nil {
				r.ops.fail("freeze seqpll: %v", err)
			}
			ref = id
			r.gateOracle(ix, in)
			r.notef("fixture %s: %d vertices, %d edges, %d labels (%.1f per vertex, %.1f MiB packed)",
				r.w.fixture, in.g.NumVertices(), in.g.NumEdges(), id.labels,
				float64(id.labels)/float64(in.g.NumVertices()), float64(id.labels)*8/(1<<20))
		} else {
			r.gateCanonical(b.name, ix, ref)
		}
		if b.name == "gll" {
			served = ix
		}
	}
	return served
}

// stack is a served index: file, server and loopback listener.
type stack struct {
	srv *chl.Server
	svc *service
}

func (s *stack) stop() {
	s.svc.stop()
	_ = s.srv.Close()
}

// openStack is the serving set-up: freeze, save, open the file mmap'd
// behind a server with the answer cache off, and listen. g enables edge
// updates (journaled) when non-nil.
func (r *runner) openStack(ix *chl.Index, g *chl.Graph, tag string) (*stack, error) {
	fx, err := ix.Freeze()
	if err != nil {
		return nil, err
	}
	path := filepath.Join(r.tmp, tag+".flat")
	if err := fx.SaveFile(path); err != nil {
		return nil, err
	}
	srv, err := chl.NewServer(path, 0)
	if err != nil {
		return nil, err
	}
	if g != nil {
		if err := srv.EnableUpdates(g, filepath.Join(r.tmp, tag+".journal")); err != nil {
			_ = srv.Close()
			return nil, err
		}
	}
	svc, err := startService(srv.Handler())
	if err != nil {
		_ = srv.Close()
		return nil, err
	}
	return &stack{srv, svc}, nil
}

// compressedBytesPerLabel saves the index in the compressed format and
// returns file bytes per label.
func (r *runner) compressedBytesPerLabel(ix *chl.Index) (float64, error) {
	fx, err := ix.FreezeCompressed()
	if err != nil {
		return 0, err
	}
	path := filepath.Join(r.tmp, "compressed.cflat")
	if err := fx.SaveFile(path); err != nil {
		return 0, err
	}
	st, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return float64(st.Size()) / float64(fx.TotalLabels()), nil
}

// runE2E is the untraced run: it returns every end-to-end metric.
//
// After the set-ups the run is a number of like cycles — one round of the
// four constructors, a slice of /dist traffic, a slice of /batch traffic —
// so that every metric samples the whole run and a slow spell of a shared
// host lands on all of them alike, not on whichever stage it coincides
// with. The workload's shares fix the slice lengths; the time one round
// takes fixes the number of cycles.
func (r *runner) runE2E() (map[string]float64, error) {
	// Input set-up, several times over: everything derived from the seed.
	var (
		in          *inputs
		err         error
		inputSetups samples
		serveSetups samples
	)
	for i := 0; i < setupReps; i++ {
		inputSetups = append(inputSetups, r.timed(func() { in, err = makeInputs(r.w, r.p, r.seed, nil, 0) }))
		if err != nil {
			return nil, err
		}
	}

	builders := e2eBuilders(in.ord)
	times := map[string]samples{}
	served := r.buildRound(in, builders, times, true)
	if served == nil {
		return nil, fmt.Errorf("no index to serve: %v", r.ops.msgs)
	}
	var round float64
	for _, ts := range times {
		round += ts[0].raw
	}
	cycles := liveCycles // the writer's schedule is part of the inputs
	if !r.w.live {
		cycles = min(max(minBuildRounds, int(r.w.buildShare*r.seconds/round+0.5)), maxCycles)
	}

	bytesPerLabel, err := r.compressedBytesPerLabel(served)
	if err != nil {
		return nil, err
	}

	// Serving set-up, as many times; the last stack stays up.
	var liveGraph *chl.Graph
	if r.w.live {
		liveGraph = in.g
	}
	var st *stack
	for i := 0; i < setupReps; i++ {
		if st != nil {
			st.stop()
		}
		serveSetups = append(serveSetups, r.timed(func() { st, err = r.openStack(served, liveGraph, fmt.Sprintf("serve-%d", i)) }))
		if err != nil {
			return nil, err
		}
	}
	defer st.stop()

	want := make([]float64, len(in.pairs))
	for i, p := range in.pairs {
		want[i] = served.Query(p.U, p.V)
	}
	frozen := func(i int, a distAnswer, _ time.Time) bool { return a.matches(want[i]) }

	distSlice := r.share(r.w.distShare) / time.Duration(cycles)
	batchSlice := r.share(r.w.batchShare) / time.Duration(cycles)
	var state *liveState
	if r.w.live {
		state = newLiveState(len(in.live.updates))
	}
	var (
		windows  []distStats
		windowAt []interval
		rates    samples
		lt       liveTimes
	)
	pacedWindow := func(run func() distStats) {
		var w distStats
		windowAt = append(windowAt, r.paced(func() { w = run() }))
		windows = append(windows, w)
	}
	for c := 0; c < cycles; c++ {
		if c > 0 {
			r.buildRound(in, builders, times, false)
		}
		if r.w.live {
			pacedWindow(func() distStats { return r.liveSlice(st, in, c, distSlice, state, &lt) })
			// The compaction leaves this cycle's patched graph frozen.
			rows := in.live.rows[(c+1)*liveUpdates]
			for i, p := range in.pairs {
				want[i] = rows[in.pairRow[i]][p.V]
			}
		} else {
			// Windows of about a second at the default --seconds, scaled
			// with the run.
			n := max(1, int(distSlice.Seconds()/(r.seconds/runSeconds)+0.5))
			for i := 0; i < n; i++ {
				pacedWindow(func() distStats {
					return runReaders(&r.ops, st.svc.url, in.pairs, procs, distSlice/time.Duration(n), nil, frozen)
				})
			}
		}
		var got []float64
		over := r.paced(func() {
			got = runBatches(&r.ops, st.svc.url, in.batch, want[:len(in.batch)], batchSlice)
		})
		for _, rate := range got {
			rates = append(rates, sample{rate, over})
		}
	}

	// Every reading of the reference kernel is in: scale.
	m := map[string]float64{"file_bytes_per_label_compressed": bytesPerLabel}
	unscaled := "unscaled:"
	note := func(name string, scaled, raw float64) {
		m[name] = scaled
		unscaled += fmt.Sprintf(" %s %.6g", name, raw)
	}
	setup, rawSetup := r.times(inputSetups), inputSetups.raws()
	for i, secs := range r.times(serveSetups) {
		setup[i] += secs
		rawSetup[i] += serveSetups[i].raw
	}
	note("setup_s", median(setup), median(rawSetup))
	for _, b := range builders {
		note("build_"+b.name+"_s", median(r.times(times[b.name])), median(times[b.name].raws()))
	}
	scaled := make([]distStats, len(windows))
	for i, w := range windows {
		scaled[i] = w.scaled(r.slowdown(windowAt[i]))
	}
	ds, rawDs := medianWindow(scaled), medianWindow(windows)
	note("dist_rps", ds.rps, rawDs.rps)
	note("dist_p50_us", ds.p50, rawDs.p50)
	note("dist_p95_us", ds.p95, rawDs.p95)
	note("batch_pairs_per_s", median(r.rates(rates)), median(rates.raws()))
	r.notef("%s", unscaled)

	slow := r.slowdowns()
	r.notef("host slowdown against the reference kernel: median %.3f, range %.3f..%.3f over %d readings",
		median(slow), slow[0], slow[len(slow)-1], len(slow))
	r.notef("cycles: %d (one build round, %v of /dist, %v of /batch each)", cycles, distSlice, batchSlice)
	r.notef("/dist: %d replies in %d windows; /batch: %d replies of %d pairs", ds.samples, len(windows), len(rates), len(in.batch))
	r.notef("/dist tail, median window, unscaled: p90 %.1f p95 %.1f p99 %.1f p99.9 %.1f us", rawDs.p90, rawDs.p95, rawDs.p99, rawDs.p999)
	if r.w.live {
		r.notef("live writer: %d updates, %d compactions", len(lt.applyMs), len(lt.compactS))
	}
	return m, nil
}

// liveSlice runs one reader beside one cycle of the writer's schedule, for
// dur and until the cycle's compaction is done. Every reply must be the
// exact distance on one of the graph states it may reflect.
func (r *runner) liveSlice(st *stack, in *inputs, cycle int, dur time.Duration, state *liveState, lt *liveTimes) distStats {
	// Updates are spread so the cycle about fills the slice, leaving two
	// spacings for the compaction's rebuild.
	spacing := dur / time.Duration(liveUpdates+2)
	state.running.Store(true)
	done := make(chan struct{})
	go func() {
		defer close(done)
		writeCycle(&r.ops, st.svc.url, in.live, cycle, spacing, state, lt)
	}()
	ds := runReaders(&r.ops, st.svc.url, in.pairs, 1, dur, state.running.Load,
		func(i int, a distAnswer, sent time.Time) bool {
			lo, hi := state.window(sent)
			for s := lo; s <= hi; s++ {
				if a.matches(in.live.rows[s][in.pairRow[i]][in.pairs[i].V]) {
					return true
				}
			}
			return false
		})
	<-done
	return ds
}

package label

import "sync"

// The join kernels. Hub labeling turns a distance query into a list
// intersection, and this file holds every form of it the serving stack
// runs: the merge join (JoinPacked), the pairwise hash join
// (JoinPackedWith), the one-to-many hash join (ScatterRun + Probe /
// ProbeCompressed) and, in compressed.go, the merge over the compressed
// encoding's varint streams (JoinCompressed). Inverted.TopK joins
// one run against a transposed table. JoinPacked also answers the
// builders' slice labelings (Index, DirectedIndex): a Set is a packed run.
// The tests hold every kernel to a brute-force minimum that shares none
// of their loops. Join is the one place that chooses between the
// pairwise kernels.
//
// All of them form d(u,h)+d(h,v) as the same exact sum of two uint32
// unit counts — below 2^33, so exact in a uint64 or a float64 — and break
// distance ties towards the smallest hub id (highest rank), which is what makes an
// answer bit-identical whichever kernel, storage format or serving tier —
// one process, or a router joining rows fetched from two shards —
// produced it. The kernels over runs answer in units; Join and
// ProbeStore, which read Stores, answer in distances (FromUnits at the
// store's unit), and so does everything above this package.

// ScratchPool recycles the hub tables of one index (or one router's
// n-vertex rank space) between requests, so a request allocates and fills
// 8 bytes per vertex only when the pool is dry. The zero value is ready to
// use; every Get on one pool must name the same n. Put only a clean
// table: callers put on their normal return path, never from a defer, so
// a kernel that panics mid-scatter (a hub id ≥ n) drops its table
// instead of recycling stale slots.
type ScratchPool struct{ p sync.Pool }

// Get takes a table for n vertices from the pool, allocating one when it
// is empty.
func (sp *ScratchPool) Get(n int) *HubTable {
	if s, ok := sp.p.Get().(*HubTable); ok {
		return s
	}
	return NewHubTable(n)
}

// Put returns a table to the pool; a nil table (merge-join callers
// hold none) is ignored.
func (sp *ScratchPool) Put(s *HubTable) {
	if s != nil {
		sp.p.Put(s)
	}
}

// hashJoinMaxVertices bounds the pairwise hash join: one table is 8
// bytes per vertex and random-probed, so past ~1 MiB it is expected to
// fall out of cache and lose to the sequential merge join. Unverified: the
// hash join is measured 1.95× faster at 32768 vertices (BenchmarkFlatQuery
// vs BenchmarkFlatQueryMerge in the root package) and ~1.7× on the
// scoreboard's 8–9k-vertex fixtures; nothing has been measured near 2^17 —
// ROADMAP 1(f) asks for the fixture that would place the crossover.
const hashJoinMaxVertices = 1 << 17

// GetJoin takes the table a loop of pairwise joins over n-vertex packed
// runs should use: a pooled one while the hash join pays, nil — which
// JoinPackedWith and Join read as "merge-join" — past that size.
func (sp *ScratchPool) GetJoin(n int) *HubTable {
	if n > hashJoinMaxVertices {
		return nil
	}
	return sp.Get(n)
}

// GetJoinFor is GetJoin for pairwise queries on st: nil as well when st is
// compressed, whose streams only merge-join.
func (sp *ScratchPool) GetJoinFor(st Store) *HubTable {
	if IsCompressed(st) {
		return nil
	}
	return sp.GetJoin(st.NumVertices())
}

// Join answers the hub join between fwd's run of u and bwd's run of v —
// the PPSD query u→v when fwd and bwd are the forward and backward halves
// of one index (the same store twice when undirected) — returning the
// distance, the witness hub (rank space) and reachability. It is the one
// place a pairwise kernel is chosen: compressed stores take the
// streaming merge; fixed-width stores the hash join on s, or the
// merge join when s is nil. Both stores must be the same implementation
// with the same unit, and s must be sized for them.
func Join(s *HubTable, fwd, bwd Store, u, v int) (dist float64, hub uint32, ok bool) {
	if c, compressed := fwd.(*CompressedIndex); compressed {
		dist, hub, ok = JoinCompressed(c.Run(u), bwd.(*CompressedIndex).Run(v))
	} else {
		dist, hub, ok = JoinPackedWith(s, fwd.(*FlatIndex).PackedRun(u), bwd.(*FlatIndex).PackedRun(v))
	}
	return FromUnits(dist, fwd.UnitExp()), hub, ok
}

// JoinPacked merge-joins two packed label runs, returning the best
// distance in units, its witness hub (rank space), and reachability. The runs need
// not live in the same index — the cross-shard case.
func JoinPacked(a, b []uint64) (dist float64, hub uint32, ok bool) {
	dist = Infinity
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		ei, ej := a[i], b[j]
		hi, hj := ei>>32, ej>>32
		if hi == hj {
			if d := float64(Dist(ei)) + float64(Dist(ej)); d < dist {
				dist, hub, ok = d, uint32(hi), true
			}
			i++
			j++
		} else if hi < hj {
			i++
		} else {
			j++
		}
	}
	return dist, hub, ok
}

// JoinPackedWith is JoinPacked as a hash join: the shorter run is
// scattered into the table, the longer one probes it, and the scatter is
// cleared before returning. The merge join's three-way branch follows the
// unpredictable interleaving of two hub sequences and mispredicts
// constantly. A probe is slot[hub] + d(e) < best, whose one branch is
// taken only when the distance improves; it does not ask whether the hub
// is shared, which on the road fixture 21–23% of probe entries are — too
// many for that branch to predict. The probe run is hub-sorted, so the
// strict improvement test selects the smallest hub among equal-distance
// witnesses, exactly JoinPacked's tie-break. The table must be sized
// for the index the runs came from (every hub id must be a valid slot)
// and is owned by one goroutine; a nil table means merge-join.
func JoinPackedWith(s *HubTable, a, b []uint64) (dist float64, hub uint32, ok bool) {
	if s == nil {
		return JoinPacked(a, b)
	}
	if len(a) > len(b) {
		a, b = b, a
	}
	if len(a) == 0 || len(b) == 0 {
		return Infinity, 0, false
	}
	// Common hubs live below both runs' maxima: entries past the other
	// side's last hub (the tail — typically the vertex's own low-rank
	// hubs and self label) can never match, so truncate both runs.
	// Comparing packed words compares hubs first; OR-ing the low word
	// makes the cut inclusive of equal hubs at any distance.
	aMax, bMax := a[len(a)-1]|0xffffffff, b[len(b)-1]|0xffffffff
	for len(a) > 0 && a[len(a)-1] > bMax {
		a = a[:len(a)-1]
	}
	s.scatter(a)
	slot, best := s.slot, uint64(absent)
	for _, e := range b {
		if e > aMax {
			break
		}
		if d := slot[e>>32] + uint64(Dist(e)); d < best {
			best, hub = d, Hub(e)
		}
	}
	s.clear(a)
	return minProbe(best, hub)
}

// RunScatter is one packed label run scattered into a HubTable so
// that many probes can reuse the single scatter — the kernel behind
// one-to-many and many-to-many (/matrix) queries and /batch's repeated
// sources, which pay one label scan per source instead of re-scattering
// for every target pair. The scatter owns the table until Release
// clears it; one table is owned by one goroutine.
type RunScatter struct {
	s      *HubTable
	run    []uint64 // the scattered run, which Release walks
	maxHub uint32   // the scattered run's last hub, where probes stop
}

// ScatterRun scatters run (hub-sorted, as every packed run is) into s,
// which must be clean. The run must stay unmodified until Release.
func ScatterRun(s *HubTable, run []uint64) RunScatter {
	if len(run) == 0 {
		return RunScatter{s: s}
	}
	s.scatter(run)
	return RunScatter{
		s:      s,
		run:    run,
		maxHub: uint32(run[len(run)-1] >> 32),
	}
}

// Release clears the scatter from its table, leaving the table clean
// for the next kernel or the pool; the RunScatter must not be probed
// afterwards.
func (rs RunScatter) Release() { rs.s.clear(rs.run) }

// Probe hub-joins one target run against the scattered source run —
// the same sum of unit counts and smallest-hub tie-break as
// JoinPackedWith, so the answer is bit-identical to the pairwise
// kernels on the same label sets. Entries past the source's maximum
// hub can never match and end the scan early.
func (rs RunScatter) Probe(run []uint64) (dist float64, hub uint32, ok bool) {
	if len(rs.run) == 0 {
		return Infinity, 0, false
	}
	maxEntry := uint64(rs.maxHub)<<32 | 0xffffffff
	slot, best := rs.s.slot, uint64(absent)
	for _, e := range run {
		if e > maxEntry {
			break
		}
		if d := slot[e>>32] + uint64(Dist(e)); d < best {
			best, hub = d, Hub(e)
		}
	}
	return minProbe(best, hub)
}

// ProbeAt probes v's run in st with the kernel of st's encoding (Probe
// or ProbeCompressed) and answers in units, as they do: the one-target
// form of ProbeStore, for a caller that picks its next target from the
// last answer.
func (rs RunScatter) ProbeAt(st Store, v int) (units float64, hub uint32, ok bool) {
	if c, compressed := st.(*CompressedIndex); compressed {
		return rs.ProbeCompressed(c.Run(v))
	}
	return rs.Probe(st.(*FlatIndex).PackedRun(v))
}

// ProbeStore fills dst[j] with the distance from the scattered run to
// targets[j]'s run in st (Infinity when they share no hub), probing each
// target with the kernel of st's encoding. The scattered run must count
// st's unit. dst must have len(targets).
func (rs RunScatter) ProbeStore(dst []float64, st Store, targets []int) {
	if c, compressed := st.(*CompressedIndex); compressed {
		for j, t := range targets {
			dst[j], _, _ = rs.ProbeCompressed(c.Run(t))
		}
	} else {
		f := st.(*FlatIndex)
		for j, t := range targets {
			dst[j], _, _ = rs.Probe(f.PackedRun(t))
		}
	}
	if k := st.UnitExp(); k != 0 {
		for j, d := range dst {
			dst[j] = FromUnits(d, k)
		}
	}
}

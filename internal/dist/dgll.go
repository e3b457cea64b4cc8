package dist

import (
	"time"

	"repro/internal/cluster"
	"repro/internal/graph"
	"repro/internal/label"
	"repro/internal/metrics"
	"repro/internal/plant"
	"repro/internal/ptree"
)

// myRoots lists the roots of [lo, hi) this node owns (round-robin
// assignment) and records the ownership.
func myRoots(nd *cluster.Node, lo, hi int, rootOwner []int32) []int {
	var mine []int
	for h := lo + nd.Rank(); h < hi; h += nd.Size() {
		rootOwner[h] = int32(nd.Rank())
		mine = append(mine, h)
	}
	return mine
}

// buildMyRoots constructs the trees this node owns, one scratch per
// intra-node thread, in GLL's two-table regime: distance queries consult the
// replicated global table (lock-free — it is immutable during a construction
// phase) and then the node's own local store, which receives the labels.
// rankQuery distinguishes DGLL (true) from DparaPLL (false, per §3).
func buildMyRoots(g *graph.Graph, global []label.Set, local *label.ConcurrentStore,
	mine []int, scr []*ptree.Scratch, rankQuery bool) ptree.Stats {
	stats := make([]ptree.Stats, len(scr))
	ptree.ParallelFor(len(scr), len(mine), func(w, i int) {
		stats[w].Add(ptree.TwoTableTree(g, mine[i], scr[w], rankQuery, global, local))
	})
	return ptree.Sum(stats)
}

// dgllSupersteps runs DGLL's construction+cleaning supersteps over the
// roots in bounds, mutating the node's replicated global table in place.
// clean=false gives DparaPLL's exchange-without-cleaning behaviour. It
// returns false if the per-node memory limit was exceeded (the decision is
// replicated-deterministic, so every node returns together).
func dgllSupersteps(nd *cluster.Node, g *graph.Graph, global []label.Set, bounds []int,
	o Options, clean bool, rootOwner []int32, c *perNodeCounters) bool {
	n := g.NumVertices()
	local := label.NewConcurrentStore(n)
	scr := ptree.NewScratches(o.WorkersPerNode, n)
	rankQuery := clean // DGLL rank-queries and cleans; DparaPLL does neither (§3)
	for si := 0; si+1 < len(bounds); si++ {
		mine := myRoots(nd, bounds[si], bounds[si+1], rootOwner)
		c.Add(buildMyRoots(g, global, local, mine, scr, rankQuery))

		batch := batchOf(drainSorted(local))
		commit := mergeBatches(n, nd.AllGather(batch, batch.count*label.Bytes))

		if clean {
			// Distributed cleaning: each node cleans the vertices it owns
			// (v ≡ rank mod q) against the allgathered superstep tables —
			// read-only, so every node sees identical inputs — and the
			// survivors are exchanged.
			surv, st := ptree.Clean(commit, o.WorkersPerNode, nd.Rank(), nd.Size())
			c.Add(st)
			sb := batchOf(surv)
			commit = mergeBatches(n, nd.AllGather(sb, sb.count*label.Bytes))
		}
		mergeInto(global, commit)
		if o.MemoryLimitBytes > 0 && totalLabels(global)*label.Bytes > o.MemoryLimitBytes {
			return false
		}
	}
	c.storedBytes = totalLabels(global) * label.Bytes
	return true
}

// DGLL runs distributed GLL (§5.1) and returns the CHL for the identity
// rank order of g. With Eta > 0 the top-η roots are PLaNTed first and their
// complete labels broadcast as the Common Label Table, removing the
// pathological redundancy of the earliest supersteps.
func DGLL(g *graph.Graph, o Options) (*Result, error) {
	o = o.normalize()
	n := guard(g)
	m := &metrics.Build{Algorithm: "DGLL", Workers: o.WorkersPerNode, Nodes: o.Nodes, Trees: int64(n)}
	eta := o.eta(0, n)

	cl := cluster.New(o.Nodes)
	counters := make([]perNodeCounters, o.Nodes)
	rootOwner := make([]int32, n)
	var finalSets []label.Set
	var common *label.Index
	oom := false
	bounds := clip(schedule(0, n, o.Beta, o.Supersteps), eta, n)

	start := time.Now()
	st := cl.Run(func(nd *cluster.Node) {
		c := &counters[nd.Rank()]
		global := make([]label.Set, n)
		var com *label.Index
		if eta > 0 {
			com, _ = plantPhase(nd, g, global, 0, eta, plant.NewScratches(o.WorkersPerNode, n), rootOwner, nil, nil, c)
		}
		if !dgllSupersteps(nd, g, global, bounds, o, true, rootOwner, c) {
			if nd.Rank() == 0 {
				oom = true
			}
			return
		}
		if nd.Rank() == 0 {
			finalSets = global
			common = com
		}
	})
	m.TotalTime = time.Since(start)
	m.ConstructTime = m.TotalTime
	m.BytesSent = st.BytesSent
	m.MessagesSent = st.MessagesSent
	m.Synchronizations = st.Barriers
	fold(m, counters)
	if oom {
		return nil, ErrOutOfMemory
	}
	ix := label.FromSets(finalSets)
	m.Labels = ix.TotalLabels()
	return &Result{Index: ix, PerNode: assemble(ix, rootOwner, o.Nodes), Common: common, Metrics: m}, nil
}

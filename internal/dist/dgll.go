package dist

import (
	"repro/internal/cluster"
	"repro/internal/graph"
	"repro/internal/label"
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
// roots in bounds on top of the node's replicated global table, and returns
// the table. clean=false gives DparaPLL's exchange-without-cleaning
// behaviour. It returns nil if the table outgrew the per-node memory limit
// (the decision is replicated-deterministic, so every node returns
// together).
func (r *run) dgllSupersteps(nd *cluster.Node, global []label.Set, bounds []int, clean bool, c *perNodeCounters) []label.Set {
	g, o, n := r.g, r.o, r.n
	local := label.NewConcurrentStore(n)
	scr := ptree.NewScratches(o.WorkersPerNode, n)
	rankQuery := clean // DGLL rank-queries and cleans; DparaPLL does neither (§3)
	for si := 0; si+1 < len(bounds); si++ {
		mine := myRoots(nd, bounds[si], bounds[si+1], r.rootOwner)
		c.Add(buildMyRoots(g, global, local, mine, scr, rankQuery))

		batch := batchOf(drainSorted(local))
		commit := mergeBatches(n, nd.AllGather(batch, batch.count*label.Bytes))

		if clean {
			// Distributed cleaning: each node cleans the vertices it owns
			// (v ≡ rank mod q) against the allgathered superstep tables —
			// read-only, so every node sees identical inputs — and the
			// survivors are exchanged.
			surv := make([]label.Set, n)
			c.Add(ptree.Clean(surv, commit, o.WorkersPerNode, nd.Rank(), nd.Size()))
			sb := batchOf(surv)
			commit = mergeBatches(n, nd.AllGather(sb, sb.count*label.Bytes))
		}
		mergeInto(global, commit)
		c.storedBytes = totalLabels(global) * label.Bytes
		if o.MemoryLimitBytes > 0 && c.storedBytes > o.MemoryLimitBytes {
			return nil
		}
	}
	return global
}

// DGLL runs distributed GLL (§5.1) and returns the CHL for the identity
// rank order of g. With Eta > 0 the top-η roots are PLaNTed first and their
// complete labels gathered as the Common Label Table, removing the
// pathological redundancy of the earliest supersteps.
func DGLL(g *graph.Graph, o Options) (*Result, error) {
	r := newRun("DGLL", g, o)
	eta := min(max(r.o.Eta, 0), r.n)
	bounds := clip(schedule(0, r.n), eta, r.n)
	table := r.exec(func(nd *cluster.Node, c *perNodeCounters) []label.Set {
		global := make([]label.Set, r.n)
		if eta > 0 {
			p := r.newPlanter(nd, c)
			p.plant(0, eta)
			p.sync(eta, true)
			global = p.global
		}
		return r.dgllSupersteps(nd, global, bounds, true, c)
	})
	var common *label.Index
	if eta > 0 && table != nil {
		common = label.FromSets(table)
	}
	return r.result(table, common)
}

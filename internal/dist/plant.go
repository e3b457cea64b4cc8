package dist

import (
	"math"
	"slices"

	"repro/internal/cluster"
	"repro/internal/graph"
	"repro/internal/label"
	"repro/internal/metrics"
	"repro/internal/plant"
	"repro/internal/ptree"
)

// noRoot is the vote of a node none of whose trees tripped Hybrid's Ψ
// threshold.
const noRoot = math.MaxInt

// share is one node's contribution to a batch's collective: the trees it
// has grown since its labels were last gathered — tree i of the batch is
// rooted at hubs[i] — and its vote. A share handed to a collective is never
// written again: the receivers read it while the sender plants its next
// batch.
type share struct {
	hubs []int
	plant.Batch
	labels int64
	bad    int // lowest root among the node's trees of this batch with Ψ over the threshold, or noRoot
}

// planter is one node of a PLaNT run: its replica of the Common Label
// Table, complete for every hub below bound, and the trees it has grown that
// no other node has seen yet.
type planter struct {
	r          *run
	nd         *cluster.Node
	c          *perNodeCounters
	scr        []*plant.Scratch
	global     []label.Set  // the replica
	table      *label.Index // the same storage, as plant.Batch.Plant and plant.Commit take it
	bound      int
	replicated int     // every tree below it has been gathered into the replica
	psi        float64 // a tree whose Ψ exceeds it votes for Hybrid's switch
	pend       share
}

func (r *run) newPlanter(nd *cluster.Node, c *perNodeCounters) *planter {
	global := make([]label.Set, r.n)
	return &planter{
		r: r, nd: nd, c: c, scr: plant.NewScratches(r.o.WorkersPerNode, r.n),
		global: global, table: label.FromSets(global, r.g.WeightUnitExp()), psi: math.Inf(1),
		pend: share{Batch: plant.Batch{Outs: make([][]plant.Emitted, r.o.WorkersPerNode)}, bad: noRoot},
	}
}

// plant grows the trees of [lo, hi) this node owns (round-robin) against its
// replica, files them under pend and returns how many labels they emitted.
func (p *planter) plant(lo, hi int) int64 {
	mine := myRoots(p.nd, lo, hi, p.r.rootOwner)
	base := len(p.pend.hubs)
	p.pend.hubs = append(p.pend.hubs, mine...)
	p.pend.Spans = append(p.pend.Spans, make([]plant.Span, len(mine))...)
	stats := make([]ptree.Stats, len(mine))
	ptree.ParallelFor(len(p.scr), len(mine), func(w, i int) {
		stats[i] = p.pend.Plant(p.r.g, p.table, p.table, p.bound, p.scr[w], w, base+i, mine[i])
	})
	var labels int64
	for i, st := range stats {
		p.c.Add(st)
		labels += st.Labels
		if metrics.Psi(st.Explored, st.Labels) > p.psi {
			p.pend.bad = min(p.pend.bad, mine[i])
		}
	}
	p.pend.labels += labels
	return labels
}

// sync is the one collective of a batch. With replicate set every node
// contributes its pending trees — together the roots [p.replicated, to) —
// and appends all of them to its replica; otherwise only the votes travel,
// which like any control word are metered as a message of zero payload
// bytes. It returns the labels gathered and the lowest root any node voted.
func (p *planter) sync(to int, replicate bool) (labels int64, bad int) {
	mine := share{bad: p.pend.bad}
	if replicate {
		mine, p.pend = p.pend, share{Batch: plant.Batch{Outs: make([][]plant.Emitted, len(p.scr))}}
		for w, out := range mine.Outs {
			p.pend.Outs[w] = make([]plant.Emitted, 0, len(out)) // the next batch emits about as much
		}
	}
	p.pend.bad = noRoot
	got := p.nd.AllGather(mine, mine.labels*label.Bytes)
	shares := make([]share, len(got))
	bad = noRoot
	for i, x := range got {
		shares[i] = x.(share)
		bad = min(bad, shares[i].bad)
	}
	if replicate {
		labels = commitShares(p.table, len(p.scr), p.replicated, to, shares)
		p.replicated = to
	}
	return labels, bad
}

// commitShares appends the trees of shares — together the roots [from, to)
// — to table in hub order: a plain append, as plant.Run's commit.
func commitShares(table *label.Index, workers, from, to int, shares []share) (labels int64) {
	spans := make([]plant.Span, to-from)
	var outs [][]plant.Emitted
	for _, sh := range shares {
		base := int32(len(outs))
		outs = append(outs, sh.Outs...)
		for i, h := range sh.hubs {
			sp := sh.Spans[i]
			sp.W += base
			spans[h-from] = sp
		}
		labels += sh.labels
	}
	plant.Commit(table, workers, from, spans, outs)
	return labels
}

// batches returns the root batches of a PLaNT run: plant.Run's growing
// schedule, which is also how often Hybrid votes, with a positive η made a
// boundary so that gathering can stop exactly there.
func batches(n, eta int) []int {
	b := plant.BatchBounds(n, 0)
	if i, found := slices.BinarySearch(b, eta); eta > 0 && eta < n && !found {
		b = slices.Insert(b, i, eta)
	}
	return b
}

// run plants the batches on this node until they are exhausted or, with
// p.psi finite, a tree's Ψ trips the vote; it returns the end of the last
// batch planted and the lowest offending root (noRoot if none).
//
// While the table grows every node holds the same labels, so the decision to
// stop gathering — Eta's, or the memory limit's once the table alone does
// not fit — is replicated. After that a node holds the table below its bound
// plus the trees it grew itself; when its own partition pushes that over the
// limit it lowers its bound by a batch, which the bounded pruning query
// honours: the labels above the bound are not read again.
func (p *planter) run() (end, bad int) {
	o := p.r.o
	bounds := batches(p.r.n, o.Eta)
	vote := !math.IsInf(p.psi, 1)
	grow := o.Eta >= 0
	var held int64     // labels this node must hold
	var others []int64 // per gathered batch: the labels in it that other nodes grew
	kb := 0            // p.bound = bounds[kb]
	for k := 0; k+1 < len(bounds); k++ {
		hi := bounds[k+1]
		own := p.plant(bounds[k], hi)
		held += own
		bad = noRoot
		if grow || vote {
			var all int64
			all, bad = p.sync(hi, grow)
			if grow {
				others = append(others, all-own)
				held += all - own
				kb = k + 1
			}
		}
		for o.MemoryLimitBytes > 0 && held*label.Bytes > o.MemoryLimitBytes && kb > 0 {
			kb--
			held -= others[kb]
		}
		p.bound = bounds[kb]
		grow = grow && kb == k+1 && (o.Eta == 0 || hi < o.Eta)
		p.c.storedBytes = held * label.Bytes
		if bad != noRoot {
			return hi, bad
		}
	}
	return p.r.n, noRoot
}

// plantResult assembles the Result of a run from its nodes as they finished:
// node 0's replica is the Common Label Table, and the index is the replica
// plus the trees no gather carried, which are still pending on their nodes.
func (r *run) plantResult(table []label.Set, nodes []*planter) (*Result, error) {
	if from := nodes[0].replicated; table != nil && from < r.n {
		pending := make([]share, len(nodes))
		for i, p := range nodes {
			pending[i] = p.pend
		}
		commitShares(label.FromSets(table, r.g.WeightUnitExp()), r.o.WorkersPerNode, from, r.n, pending)
	}
	return r.result(table)
}

// PLaNT runs distributed PLaNT (§5.2): every node grows the trees of its
// round-robin root share, batch by batch, pruning against the replica of
// the Common Label Table the earlier batches' gathers have built (§5.3; see
// the package doc for how far Eta and MemoryLimitBytes let it grow). With
// Eta < 0 there is no label traffic at all. Labels belong to the node that
// grew their tree; Result.Index is their union — the CHL.
func PLaNT(g *graph.Graph, o Options) (*Result, error) {
	r := newRun("PLaNT", g, o)
	nodes := make([]*planter, r.o.Nodes)
	table := r.exec(func(nd *cluster.Node, c *perNodeCounters) []label.Set {
		p := r.newPlanter(nd, c)
		nodes[nd.Rank()] = p
		p.run()
		return p.global
	})
	return r.plantResult(table, nodes)
}

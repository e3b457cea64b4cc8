package ptree_test

import (
	"cmp"
	"container/heap"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/label"
	"repro/internal/ptree"
)

// fuzzGraph steers a graph of 1–24 vertices out of data: the first byte
// picks the order and the direction, and each triple (u, v, w) after the
// second byte adds an arc, or an edge, of weight 1 or 2 — so equal-length
// paths, and vertices sharing a distance, are everywhere.
func fuzzGraph(data []byte) *graph.Graph {
	n := 1 + int(data[0]>>1)%24
	b := graph.NewBuilder(n, data[0]&1 == 1)
	for rest := data[2:]; len(rest) >= 3; rest = rest[3:] {
		b.AddEdge(int(rest[0])%n, int(rest[1])%n, float64(1+rest[2]&1))
	}
	g, err := b.Finish()
	if err != nil {
		panic(err)
	}
	return g
}

// prefill returns an index of random labels: each (vertex, hub) pair
// carries a label with probability density/4, at a distance in [0, 2n].
// It answers distance queries as any table a tree reads does, without
// being a labeling of the graph.
func prefill(n int, seed byte) *label.Index {
	rng := rand.New(rand.NewSource(int64(seed)))
	density := int(seed & 3)
	sets := make([]label.Set, n)
	for v := range sets {
		for hub := 0; hub < n; hub++ {
			if rng.Intn(4) < density {
				sets[v] = append(sets[v], label.Pack(uint32(hub), uint32(rng.Intn(2*n+1))))
			}
		}
	}
	return label.FromSets(sets, 0)
}

// queued is a vertex on the reference's heap.
type queued struct {
	d uint64
	v int
}

// tieHeap orders by distance, and equal distances by descending vertex id,
// an order Tree's buckets have no reason to follow.
type tieHeap []queued

func (q tieHeap) Len() int { return len(q) }
func (q tieHeap) Less(i, j int) bool {
	return q[i].d < q[j].d || q[i].d == q[j].d && q[i].v > q[j].v
}
func (q tieHeap) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *tieHeap) Push(x any)   { *q = append(*q, x.(queued)) }
func (q *tieHeap) Pop() any {
	old := *q
	x := old[len(old)-1]
	*q = old[:len(old)-1]
	return x
}

// heapTree is Algorithm 1 as a textbook pruned Dijkstra on container/heap,
// sharing no code with ptree.Tree: each vertex is popped once, at its
// distance, and cut by the rank query, cut by covered, or emitted and
// relaxed.
func heapTree(g *graph.Graph, h int, rankQuery bool,
	covered func(v int, dist uint64) bool, emit func(v int, dist uint32)) ptree.Stats {
	var st ptree.Stats
	dist := make([]uint64, g.NumVertices())
	for v := range dist {
		dist[v] = math.MaxUint64
	}
	popped := make([]bool, len(dist))
	dist[h] = 0
	q := &tieHeap{{0, h}}
	for q.Len() > 0 {
		top := heap.Pop(q).(queued)
		v, dv := top.v, top.d
		if popped[v] || dv != dist[v] {
			continue
		}
		popped[v] = true
		st.Explored++
		if rankQuery && v < h {
			st.RankPruned++
			continue
		}
		if v != h {
			st.Queries++
			if covered(v, dv) {
				st.DistPruned++
				continue
			}
		}
		emit(v, uint32(dv))
		st.Labels++
		heads, wts := g.Neighbors(v)
		for i, u := range heads {
			st.Relaxed++
			if nd := dv + uint64(wts[i]); nd < dist[u] {
				dist[u] = nd
				heap.Push(q, queued{nd, int(u)})
			}
		}
	}
	return st
}

// FuzzTree holds ptree.Tree, which settles a bucket at a time, to a
// heap-ordered pruned Dijkstra that breaks ties the other way, on
// byte-steered graphs of unit and double arcs. Both run every root in rank
// order, with and without rank queries, against their own copy of one
// random table (prefill, steered by the second byte) read through a
// label.HubTable, and append each label to it as they emit it, as
// sequential PLL and LCC do. Every tree must emit the same (v, δ) multiset and count the same
// Stats, which holds only if no cut depends on the order in which
// equal-distance vertices settle.
func FuzzTree(f *testing.F) {
	f.Add([]byte{0, 0})                                                              // one vertex
	f.Add([]byte{40, 1})                                                             // edgeless
	f.Add([]byte{16, 0, 0, 1, 0, 1, 2, 0, 2, 3, 0, 3, 0, 0, 0, 4, 1, 4, 5, 1})       // unit cycle and a double tail: empty table
	f.Add([]byte{16, 7, 0, 1, 0, 1, 2, 0, 2, 3, 0, 3, 0, 0, 0, 4, 1, 4, 5, 1})       // the same against a dense table
	f.Add([]byte{17, 6, 0, 1, 1, 1, 2, 1, 2, 0, 1, 0, 3, 1, 3, 4, 1, 4, 5, 1})       // directed, every arc 2: buckets 2 wide
	f.Add([]byte{22, 5, 0, 1, 0, 0, 2, 0, 1, 3, 0, 2, 3, 0, 3, 4, 1, 1, 2, 0, 0, 5}) // diamonds of equal-length paths
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			data = append(data[:len(data):len(data)], 0, 0)
		}
		g := fuzzGraph(data)
		n := g.NumVertices()
		table := prefill(n, data[1])
		s := ptree.NewScratch(n)
		ref := label.NewHubTable(n)
		for _, rankQuery := range []bool{false, true} {
			gotIx, wantIx := table.Clone(), table.Clone()
			for h := 0; h < n; h++ {
				var got, want [][2]uint32
				s.HD.Load(gotIx.Labels(h))
				gst := ptree.Tree(g, h, s, rankQuery,
					func(v int, d uint64) bool { return s.HD.QueryAgainst(gotIx.Labels(v), d) },
					func(v int, d uint32) {
						got = append(got, [2]uint32{uint32(v), d})
						gotIx.Append(v, label.Pack(uint32(h), d))
					})
				ref.Load(wantIx.Labels(h))
				wst := heapTree(g, h, rankQuery,
					func(v int, d uint64) bool { return ref.QueryAgainst(wantIx.Labels(v), d) },
					func(v int, d uint32) {
						want = append(want, [2]uint32{uint32(v), d})
						wantIx.Append(v, label.Pack(uint32(h), d))
					})
				order := func(a, b [2]uint32) int { return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1])) }
				slices.SortFunc(got, order)
				slices.SortFunc(want, order)
				if !slices.Equal(got, want) {
					t.Fatalf("rankQuery=%v tree %d emitted %v, the heap-ordered tree %v", rankQuery, h, got, want)
				}
				if gst != wst {
					t.Fatalf("rankQuery=%v tree %d counted %+v, the heap-ordered tree %+v", rankQuery, h, gst, wst)
				}
			}
		}
	})
}

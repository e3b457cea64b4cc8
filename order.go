package chl

import "repro/internal/order"

// Order is a total order on vertices — the "network hierarchy" R the
// Canonical Hub Labeling is defined against. Perm lists vertex ids from
// highest rank to lowest; Rank is the inverse.
type Order = order.Order

// RankByDegree ranks vertices by decreasing degree — the paper's ordering
// for scale-free networks.
func RankByDegree(g *Graph) *Order { return order.ByDegree(g) }

// RankByBetweenness ranks vertices by approximate betweenness centrality
// from `samples` sampled shortest path trees — the paper's ordering for
// road networks. The samples (clamped to [1, n]) run on GOMAXPROCS
// goroutines; the order does not depend on how many there are. Each sample
// tree settles a bucket at a time (vheap.Window, as every distance row
// does). This is most of set-up on a road graph (order.rank_s in bench/).
// An empty graph gets the empty order.
func RankByBetweenness(g *Graph, samples int, seed int64) *Order {
	return order.ByApproxBetweenness(g, samples, seed, 0)
}

// RankAuto picks the paper's default ordering for the graph's topology:
// sampled betweenness for road-like graphs, degree otherwise.
func RankAuto(g *Graph, seed int64) *Order { return order.ForGraph(g, seed, 0) }

// RankIdentity ranks vertex 0 highest, then 1, and so on.
func RankIdentity(n int) *Order { return order.Identity(n) }

// RankRandom returns a uniformly random hierarchy (the CHL is defined for
// any R; useful for adversarial testing).
func RankRandom(n int, seed int64) *Order { return order.Random(n, seed) }

// RankFromPerm builds an Order from an explicit permutation listing vertex
// ids from highest rank to lowest.
func RankFromPerm(perm []int) (*Order, error) { return order.FromPerm(perm) }

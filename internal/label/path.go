package label

// PathIndex augments an Index with per-label parent pointers, enabling full
// shortest-path retrieval — the §5.4 extension: "by storing the parent of
// each vertex in an SPT along with the corresponding hub label, CHL can
// also be used to compute shortest paths in time linear to the number of
// edges in the paths".
//
// parents[v][i] is the predecessor of v in the SPT rooted at
// Hub(Labels(v)[i]), on the tree path the label's distance was achieved
// through; the root's own label has itself as parent. Walking parents from
// both query endpoints to their common hub reconstructs the path: the
// canonical labeling guarantees every vertex on the hub-to-endpoint path
// also carries that hub (the max-rank property is closed under subpaths).
type PathIndex struct {
	ix      *Index
	parents [][]uint32
}

// NewPathIndex wraps an index whose labels are being built alongside parent
// records. Parents must be registered with SetParents in the same order as
// the index's label sets.
func NewPathIndex(ix *Index) *PathIndex {
	return &PathIndex{ix: ix, parents: make([][]uint32, ix.NumVertices())}
}

// Index returns the underlying label index.
func (px *PathIndex) Index() *Index { return px.ix }

// SetParents installs the parent array of v, aligned with ix.Labels(v).
func (px *PathIndex) SetParents(v int, parents []uint32) { px.parents[v] = parents }

// Parent returns v's predecessor in the SPT rooted at hub, if v carries
// that hub.
func (px *PathIndex) Parent(v int, hub uint32) (uint32, bool) {
	s := px.ix.Labels(v)
	for i, l := range s {
		if Hub(l) == hub {
			return px.parents[v][i], true
		}
	}
	return 0, false
}

// Path returns the vertices of a shortest u–v path (inclusive) and its
// length, or ok=false if v is unreachable from u. Cost is linear in the
// path's edge count plus two label merge-joins.
func (px *PathIndex) Path(u, v int) (path []int, dist float64, ok bool) {
	if u == v {
		return []int{u}, 0, true
	}
	dist, hub, ok := px.ix.QueryHub(u, v)
	if !ok {
		return nil, Infinity, false
	}
	// Walk u → hub.
	left := []int{u}
	for cur := uint32(u); cur != hub; {
		p, found := px.Parent(int(cur), hub)
		if !found || p == cur {
			return nil, dist, false // corrupted parent chain
		}
		cur = p
		left = append(left, int(cur))
	}
	// Walk v → hub, then reverse onto the left half.
	var right []int
	for cur := uint32(v); cur != hub; {
		p, found := px.Parent(int(cur), hub)
		if !found || p == cur {
			return nil, dist, false
		}
		right = append(right, int(cur))
		cur = p
	}
	for i := len(right) - 1; i >= 0; i-- {
		left = append(left, right[i])
	}
	return left, dist, true
}

package chl

import (
	"fmt"

	"repro/internal/label"
)

// FrozenLabelsMatch reports the first label on which a frozen index's
// halves differ from the builder labels of ix (float64 ==), or nil: the
// guard that a re-pinned file hash moved only because the byte layout did.
func FrozenLabelsMatch(ix *Index, fx *FlatIndex) error {
	ranked := []*label.Index{ix.ranked}
	if ix.directed != nil {
		ranked = []*label.Index{ix.directed.Forward, ix.directed.Backward}
	}
	for h, st := range []label.Store{fx.fwd, fx.bwd}[:len(ranked)] {
		for v := 0; v < ix.n; v++ {
			want, got := ranked[h].Labels(ix.rank[v]), st.Labels(v)
			if len(got) != len(want) {
				return fmt.Errorf("half %d vertex %d: %d frozen labels, builder %d", h, v, len(got), len(want))
			}
			for i, l := range want {
				if got[i].Hub != l.Hub || got[i].Dist != l.Dist {
					return fmt.Errorf("half %d vertex %d label %d: frozen %+v, builder %+v", h, v, i, got[i], l)
				}
			}
		}
	}
	return nil
}

package label_test

import (
	"math/rand"
	"testing"

	"repro/internal/gll"
	"repro/internal/graph"
	"repro/internal/label"
	"repro/internal/order"
)

// BenchmarkJoinKernels times the pairwise kernels label.Join chooses
// between on one fixture's runs — GLL's labels of a 32768-vertex
// scale-free graph in degree order, the serving benchmarks' index — over
// the same 4096 uniform pairs: the merge join (JoinPacked), the hash join
// on one table (JoinPackedWith, what a pooled table buys below
// hashJoinMaxVertices) and the compressed stream merge (JoinCompressed).
func BenchmarkJoinKernels(b *testing.B) {
	const n = 32768
	g := graph.BarabasiAlbert(n, 4, 1)
	rg, _ := g.Permute(order.ByDegree(g).Perm)
	ix, _ := gll.Run(rg, gll.Options{})
	fx := label.Freeze(ix)
	cx, err := label.Compress(fx)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	us, vs := make([]int, 4096), make([]int, 4096)
	for i := range us {
		us[i], vs[i] = rng.Intn(n), rng.Intn(n)
	}
	s := label.NewHubTable(n)
	var sink float64
	b.Run("JoinPacked", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			d, _, _ := label.JoinPacked(fx.PackedRun(us[i%4096]), fx.PackedRun(vs[i%4096]))
			sink += d
		}
	})
	b.Run("JoinPackedWith", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			d, _, _ := label.JoinPackedWith(s, fx.PackedRun(us[i%4096]), fx.PackedRun(vs[i%4096]))
			sink += d
		}
	})
	b.Run("JoinCompressed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			d, _, _ := label.JoinCompressed(cx.Run(us[i%4096]), cx.Run(vs[i%4096]))
			sink += d
		}
	})
	_ = sink
}

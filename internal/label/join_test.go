package label_test

import (
	"math/rand"
	"testing"
	"time"

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
// ShortRuns asks the same question where the runs are short.
func BenchmarkJoinKernels(b *testing.B) {
	b.Run("ShortRuns", benchShortRuns)
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

// benchShortRuns times a single pair the way FlatIndex.join answers it
// below hashJoinMaxVertices — a table taken from a ScratchPool, the hash
// join, the table put back — against the merge join, on the runs of the
// root package's benchFlatFile fixture: GLL's labels of a 512-vertex
// scale-free graph in degree order, about 16 entries per vertex. Each
// iteration is one round of the same 4096 uniform pairs per kernel,
// alternating which goes first; merge_over_hash is the merge rounds'
// total time over the pooled hash rounds', so a value below 1 says the
// merge join wins on short runs.
func benchShortRuns(b *testing.B) {
	const n, pairs = 512, 4096
	g := graph.BarabasiAlbert(n, 4, 1)
	rg, _ := g.Permute(order.ByDegree(g).Perm)
	ix, _ := gll.Run(rg, gll.Options{})
	fx := label.Freeze(ix)
	rng := rand.New(rand.NewSource(2))
	us, vs := make([][]uint64, pairs), make([][]uint64, pairs)
	for i := range us {
		us[i], vs[i] = fx.PackedRun(rng.Intn(n)), fx.PackedRun(rng.Intn(n))
	}
	var pool label.ScratchPool
	var sink float64
	merge := func() time.Duration {
		start := time.Now()
		for i := range us {
			d, _, _ := label.JoinPacked(us[i], vs[i])
			sink += d
		}
		return time.Since(start)
	}
	hash := func() time.Duration {
		start := time.Now()
		for i := range us {
			s := pool.GetJoin(n)
			d, _, _ := label.JoinPackedWith(s, us[i], vs[i])
			pool.Put(s)
			sink += d
		}
		return time.Since(start)
	}
	hash() // fill the pool, as a serving process has
	b.ResetTimer()
	var tm, th time.Duration
	for i := 0; i < b.N; i++ {
		if i%2 == 0 {
			tm += merge()
			th += hash()
		} else {
			th += hash()
			tm += merge()
		}
	}
	b.ReportMetric(float64(tm)/float64(b.N*pairs), "merge_ns/pair")
	b.ReportMetric(float64(th)/float64(b.N*pairs), "hash_ns/pair")
	b.ReportMetric(float64(tm)/float64(th), "merge_over_hash")
	_ = sink
}

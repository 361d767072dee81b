package bitset

import (
	"math/rand"
	"testing"
)

// Microbenchmarks for the fused hot-path kernels against the primitive
// multi-pass sequences they replaced in the expansion and colouring
// inner loops. 300 bits is the p_hat300-3 word count (5 words, with a
// partial tail); 1024 is a larger power-of-two shape (16 words, pure
// unrolled body). Informational: the kernels' effect on a whole search
// is what BenchmarkGateSkeletonTax holds.

func benchSets(n int, seed int64) (a, b, dst Set) {
	rng := rand.New(rand.NewSource(seed))
	a, b, dst = New(n), New(n), New(n)
	for v := 0; v < n; v++ {
		if rng.Float64() < 0.7 {
			a.Add(v)
		}
		if rng.Float64() < 0.7 {
			b.Add(v)
		}
	}
	return a, b, dst
}

func BenchmarkHotPathIntersectCount(b *testing.B) {
	for _, n := range []int{300, 1024} {
		x, y, dst := benchSets(n, int64(n))
		b.Run(sizeName(n)+"/fused", func(b *testing.B) {
			var c int
			for i := 0; i < b.N; i++ {
				c += IntersectIntoCount(dst, x, y)
			}
			sink = c
		})
		b.Run(sizeName(n)+"/primitive", func(b *testing.B) {
			var c int
			for i := 0; i < b.N; i++ {
				dst.CopyFrom(x)
				dst.IntersectWith(y)
				c += dst.Count()
			}
			sink = c
		})
	}
}

func BenchmarkHotPathPopNext(b *testing.B) {
	for _, n := range []int{300, 1024} {
		x, _, dst := benchSets(n, int64(n))
		b.Run(sizeName(n)+"/fused", func(b *testing.B) {
			var c int
			for i := 0; i < b.N; i++ {
				dst.CopyFrom(x)
				for v := dst.PopNext(); v != -1; v = dst.PopNext() {
					c += v
				}
			}
			sink = c
		})
		b.Run(sizeName(n)+"/primitive", func(b *testing.B) {
			var c int
			for i := 0; i < b.N; i++ {
				dst.CopyFrom(x)
				for v := dst.Min(); v != -1; v = dst.Min() {
					dst.Remove(v)
					c += v
				}
			}
			sink = c
		})
	}
}

// sink defeats dead-code elimination of the benchmark loops.
var sink int

func sizeName(n int) string {
	if n == 300 {
		return "n300"
	}
	return "n1024"
}

package blas

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// The GEMM ablation benchmarks mirror §V-A's tuning levels: naive loop →
// blocked/packed kernel → cooperative parallel kernel, plus the skinny
// shapes typical of DNN layers (batch × in → batch × out).
func benchGemm(b *testing.B, impl Impl, threads, m, n, k int) {
	benchGemmT(b, impl, threads, NoTrans, NoTrans, m, n, k)
}

// benchGemmT times C(m×n) = op(A)·op(B) with inner dimension k.
func benchGemmT(b *testing.B, impl Impl, threads int, tA, tB Transpose, m, n, k int) {
	rng := rand.New(rand.NewSource(1))
	a, bb, c := makeOperands(rng, tA, tB, m, n, k)
	b.SetBytes(int64(4 * (m*k + k*n + m*n)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		GemmWith(Config{Impl: impl, Threads: threads}, tA, tB, 1, a, bb, 0, c)
	}
	flops := 2 * float64(m) * float64(n) * float64(k)
	b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOPS")
}

func BenchmarkGEMMNaive256(b *testing.B)   { benchGemm(b, Naive, 1, 256, 256, 256) }
func BenchmarkGEMMBlocked256(b *testing.B) { benchGemm(b, Blocked, 1, 256, 256, 256) }
func BenchmarkGEMMParallel256(b *testing.B) {
	for _, th := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("threads=%d", th), func(b *testing.B) {
			benchGemm(b, Parallel, th, 256, 256, 256)
		})
	}
}

func BenchmarkGEMMBlocked512(b *testing.B)  { benchGemm(b, Blocked, 1, 512, 512, 512) }
func BenchmarkGEMMParallel512(b *testing.B) { benchGemm(b, Parallel, 0, 512, 512, 512) }

// DNN-shaped GEMMs: minibatch 512, layer 1024→1024 and the small-K
// output-layer shape the paper's tuning section calls out.
func BenchmarkGEMMLayerShape(b *testing.B)  { benchGemm(b, Parallel, 0, 512, 1024, 1024) }
func BenchmarkGEMMSmallK(b *testing.B)      { benchGemm(b, Parallel, 0, 512, 512, 40) }
func BenchmarkGEMMSmallMatrix(b *testing.B) { benchGemm(b, Blocked, 1, 32, 32, 32) }

// BenchmarkGEMMCutover times the training products on one thread and on
// two, the sweep behind Auto's Blocked→Parallel cutover (DESIGN §2).
// The shapes are the products of the narrow 100-32-32-8 and wide
// 100-384-384-384-32 nets, C being m×n: the forward pass a·Wᵀ (NT), the
// weight gradient δᵀ·a (TN) and the back-propagated δ·W (NN), at the
// gradient's 256-row batch and at the ≈100-row utterance batch of a
// Gauss-Newton product; plus a square NN ladder.
func BenchmarkGEMMCutover(b *testing.B) {
	const T, N = Trans, NoTrans
	shapes := []struct {
		tA, tB  Transpose
		m, n, k int
	}{
		// narrow net
		{N, T, 256, 8, 32}, {N, N, 256, 32, 8}, {N, T, 256, 32, 32}, {T, N, 32, 32, 256},
		{N, T, 256, 32, 100}, {T, N, 32, 100, 256}, {N, T, 100, 32, 100}, {T, N, 32, 100, 100},
		// square ladder
		{N, N, 64, 64, 64}, {N, N, 96, 96, 96}, {N, N, 128, 128, 128}, {N, N, 160, 160, 160}, {N, N, 176, 176, 176}, {N, N, 192, 192, 192},
		// wide net, gradient batch
		{N, T, 256, 32, 384}, {N, N, 256, 384, 32}, {T, N, 32, 384, 256},
		{N, T, 256, 384, 100}, {T, N, 384, 100, 256}, {N, T, 256, 384, 384}, {T, N, 384, 384, 256}, {N, N, 256, 384, 384},
		// wide net, Gauss-Newton utterance batch
		{N, T, 100, 32, 384}, {N, N, 100, 384, 32}, {T, N, 32, 384, 100},
		{N, T, 100, 384, 100}, {T, N, 384, 100, 100}, {N, T, 100, 384, 384}, {T, N, 384, 384, 100}, {N, N, 100, 384, 384},
	}
	name := func(t Transpose) string {
		if t == Trans {
			return "T"
		}
		return "N"
	}
	for _, s := range shapes {
		tag := fmt.Sprintf("%s%s/%dx%dx%d", name(s.tA), name(s.tB), s.m, s.n, s.k)
		b.Run(tag+"/threads=1", func(b *testing.B) { benchGemmT(b, Blocked, 1, s.tA, s.tB, s.m, s.n, s.k) })
		b.Run(tag+"/threads=2", func(b *testing.B) { benchGemmT(b, Parallel, 2, s.tA, s.tB, s.m, s.n, s.k) })
	}
}

// BenchmarkGemmPackedRows times GemmPacked by a packed 384×384 weight
// (a served layer's Wᵀ) at m = 1…9 rows, the sweep behind rowKernelRows:
// edges of up to that many rows take the row kernel, wider ones the 8×8
// tile (DESIGN §2).
func BenchmarkGemmPackedRows(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	var pb PackedB
	pb.Pack(Trans, tensor.RandMatrix(rng, 384, 384, 1))
	for m := 1; m <= 9; m++ {
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			a, c := tensor.RandMatrix(rng, m, 384, 1), tensor.NewMatrix(m, 384)
			var ws Workspace
			GemmPacked(&ws, 1, a, &pb, 0, c)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				GemmPacked(&ws, 1, a, &pb, 0, c)
			}
		})
	}
}

func BenchmarkAxpy(b *testing.B) {
	x := make([]float32, 1<<16)
	y := make([]float32, 1<<16)
	b.SetBytes(int64(8 * len(x)))
	for i := 0; i < b.N; i++ {
		Axpy(0.5, x, y)
	}
}

func BenchmarkDot(b *testing.B) {
	x := make([]float32, 1<<16)
	for i := range x {
		x[i] = 1
	}
	b.SetBytes(int64(8 * len(x)))
	for i := 0; i < b.N; i++ {
		Dot(x, x)
	}
}

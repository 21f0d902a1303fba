package blas

import (
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// TestZeroAllocKernels is the white-box half of the allocation gate: the
// packed-GEMM inner kernels are //lint:hotpath and must not allocate per
// call — every buffer is passed in by the blocking driver. The escape
// gate (make alloccheck) proves the same property from the compiler's
// escape analysis; this test proves it from the runtime allocator, so a
// regression needs to fool both.
func TestZeroAllocKernels(t *testing.T) {
	const mc, kc, nc = 64, 48, 32
	rng := rand.New(rand.NewSource(1))
	a := tensor.RandMatrix(rng, mc, kc, 1)
	bm := tensor.RandMatrix(rng, kc, nc, 1)
	c := tensor.NewMatrix(mc, nc)
	abuf := make([]float32, roundUp(mc, mr)*kc)
	// Sized for the widest packed panel used below: the transposed case
	// packs the kc×mc block of op(A)=Aᵀ, and mc > nc.
	bbuf := make([]float32, kc*roundUp(mc, nr))
	packA(a, NoTrans, 0, 0, mc, kc, abuf)
	packB(bm, NoTrans, 0, 0, kc, nc, bbuf)

	kernels := []struct {
		name string
		fn   func()
	}{
		{"packA", func() { packA(a, NoTrans, 0, 0, mc, kc, abuf) }},
		{"packA_trans", func() { packA(bm, Trans, 0, 0, nc, kc, abuf) }},
		{"packB", func() { packB(bm, NoTrans, 0, 0, kc, nc, bbuf) }},
		{"packB_trans", func() { packB(a, Trans, 0, 0, kc, mc, bbuf) }},
		{"macroKernel", func() { macroKernel(abuf, bbuf, c, 0, 0, mc, nc, kc, 1) }},
		{"microKernel", func() { microKernel(kc, abuf, bbuf, c.Data, c.Stride, 1) }},
		{"microKernelGo", func() { microKernelGo(kc, abuf, bbuf, c.Data, c.Stride, 1) }},
		{"microKernelEdge", func() { microKernelEdge(kc, abuf, bbuf, c.Data, c.Stride, 5, 3, 1) }},
	}
	for _, k := range kernels {
		if n := testing.AllocsPerRun(20, k.fn); n != 0 {
			t.Errorf("%s: %.0f allocs per call, want 0", k.name, n)
		}
	}
}

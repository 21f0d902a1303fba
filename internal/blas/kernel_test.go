package blas

import (
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// TestKernelBitIdentity holds the AVX2 kernels to the portable one bit
// for bit on the same packed panels, over every fringe shape: production
// macroKernel (full tiles, the −0 stack tile of the fringe, and the row
// kernel with its −0 stack row for edges of at most rowKernelRows rows)
// against microKernelGo applied tile by tile through an 8×8 scratch copy
// of C, which needs no −0 rule. C holds −0 entries and op(A) a zero row,
// so a +0-initialised tile or row (−0 + +0 = +0) would show. The widths
// 32–64 give the row kernel its four-panel body, a one-to-three-panel
// tail and a partial panel behind them.
func TestKernelBitIdentity(t *testing.T) {
	if !useAVX2 {
		t.Skip("no AVX2 on this machine: microKernelGo is the only kernel")
	}
	dims := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 100, 255, 256, 257}
	widths := append(dims[:len(dims):len(dims)], 32, 40, 56, 64)
	depths := []int{1, 7, 255, 256, 257, 384}
	scalars := []float32{1, 0, -1, 0.5, 0.7}
	trans := [][2]Transpose{{NoTrans, NoTrans}, {Trans, NoTrans}, {NoTrans, Trans}, {Trans, Trans}}
	negZero := math.Float32frombits(1 << 31)
	rng := rand.New(rand.NewSource(7))
	// Transposes and scalars only change the panels and C the kernels
	// read, so they rotate through the shape table rather than multiply it.
	var i int
	for _, m := range dims {
		for _, n := range widths {
			for _, k := range depths {
				tA, tB := trans[i%4][0], trans[i%4][1]
				alpha, beta := scalars[i%5], scalars[(i/5)%5]
				i++
				a, b, c := makeOperands(rng, tA, tB, m, n, k)
				for p := 0; p < k; p++ { // op(A) row m/2 is zero
					if tA == Trans {
						a.Set(p, m/2, 0)
					} else {
						a.Set(m/2, p, 0)
					}
				}
				for j := 0; j < len(c.Data); j += 3 {
					c.Data[j] = negZero
				}
				scaleC(beta, c)
				needA, needB := panelSizes(m, k, n, m, k, n)
				abuf, bbuf := make([]float32, needA), make([]float32, needB)
				packA(a, tA, 0, 0, m, k, abuf)
				packB(b, tB, 0, 0, k, n, bbuf)

				got := c.Clone()
				macroKernel(abuf, bbuf, got, 0, 0, m, n, k, alpha)
				want := c.Clone()
				portableTiles(abuf, bbuf, want, k, alpha)
				for e := range want.Data {
					if math.Float32bits(got.Data[e]) != math.Float32bits(want.Data[e]) {
						t.Fatalf("%dx%dx%d tA=%v tB=%v alpha=%v beta=%v: C[%d] = %v (%#08x), portable %v (%#08x)",
							m, n, k, tA, tB, alpha, beta, e, got.Data[e], math.Float32bits(got.Data[e]),
							want.Data[e], math.Float32bits(want.Data[e]))
					}
				}
			}
		}
	}
}

// portableTiles is macroKernel with microKernelGo on every tile: C's
// rows×cols region is copied into an 8×8 scratch, updated in place and
// copied back, so each element sees C + alpha·acc directly.
func portableTiles(abuf, bbuf []float32, c *tensor.Matrix, kc int, alpha float32) {
	var scratch [mr * nr]float32
	for jp := 0; jp < c.Cols; jp += nr {
		for ip := 0; ip < c.Rows; ip += mr {
			rows, cols := min(mr, c.Rows-ip), min(nr, c.Cols-jp)
			for r := 0; r < rows; r++ {
				copy(scratch[r*nr:r*nr+cols], c.Row(ip + r)[jp:])
			}
			microKernelGo(kc, abuf[ip/mr*kc*mr:], bbuf[jp/nr*kc*nr:], scratch[:], nr, alpha)
			for r := 0; r < rows; r++ {
				copy(c.Row(ip + r)[jp:jp+cols], scratch[r*nr:])
			}
		}
	}
}

// TestGemmGolden pins Gemm's output bits on three seeded 257×129×300
// products to FNV-64a hashes recorded at the commit before the AVX2
// kernel, with its scalar 8×4 kernel: the new kernel must equal the one
// it replaced, not just itself.
func TestGemmGolden(t *testing.T) {
	cases := []struct {
		name        string
		seed        int64
		tA, tB      Transpose
		alpha, beta float32
		want        uint64
	}{
		{"NN", 1, NoTrans, NoTrans, 1, 0, 0x924be1da0f20c1a8},
		{"TN_beta1", 2, Trans, NoTrans, -0.5, 1, 0x82a13e908ede8951},
		{"NT", 3, NoTrans, Trans, 0.7, 0.5, 0xe27dd96b96f67f59},
	}
	for _, cs := range cases {
		rng := rand.New(rand.NewSource(cs.seed))
		a, b, c := makeOperands(rng, cs.tA, cs.tB, 257, 129, 300)
		Gemm(cs.tA, cs.tB, cs.alpha, a, b, cs.beta, c)
		h := fnv.New64a()
		var buf [4]byte
		for i := 0; i < c.Rows; i++ {
			for _, v := range c.Row(i) {
				u := math.Float32bits(v)
				buf[0], buf[1], buf[2], buf[3] = byte(u), byte(u>>8), byte(u>>16), byte(u>>24)
				h.Write(buf[:])
			}
		}
		if got := h.Sum64(); got != cs.want {
			t.Errorf("%s: hash %#016x, want %#016x", cs.name, got, cs.want)
		}
	}
}

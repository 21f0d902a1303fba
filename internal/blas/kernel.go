package blas

import (
	"math"
	"sync"

	"repro/internal/tensor"
)

// Register-tile dimensions of the micro-kernel: the 8×8 C tile of the
// paper's BG/Q inner kernel. On amd64 with AVX2 the tile is eight YMM
// accumulators (kernel_amd64.s); elsewhere microKernelGo computes it a
// row at a time. Each C element's k order is set by the KC blocking
// alone, so neither the kernel nor the tile shape moves a result bit.
const (
	mr = 8
	nr = 8
)

// gemmBlocked runs the packed, cache-blocked algorithm with the given
// number of worker goroutines cooperating on each packed B panel.
func gemmBlocked(cfg Config, tA, tB Transpose, alpha float32, a, b *tensor.Matrix, beta float32, c *tensor.Matrix, threads int) {
	m, k := opDims(a, tA)
	_, n := opDims(b, tB)
	scaleC(beta, c)
	// BLAS semantics: alpha=0 means "skip the product entirely", an exact
	// sentinel the caller sets literally, not a computed value.
	//lint:ignore floateq alpha==0 is the exact BLAS fast-path sentinel
	if m == 0 || n == 0 || k == 0 || alpha == 0 {
		return
	}

	mc, kc, nc := cfg.MC, cfg.KC, cfg.NC
	nWorkers := threads
	if blocks := (m + mc - 1) / mc; nWorkers > blocks {
		nWorkers = blocks
	}
	if nWorkers < 1 {
		nWorkers = 1
	}
	var abufs [][]float32
	var bbuf []float32
	if ws := cfg.Workspace; ws != nil && nWorkers == 1 {
		// Caller-owned panels: no per-call allocation once the workspace
		// has grown to the largest product it serves.
		abufs, bbuf = ws.panels(mc, kc, nc, m, k, n)
	} else {
		needA, needB := panelSizes(mc, kc, nc, m, k, n)
		bbuf = make([]float32, needB)
		abufs = make([][]float32, nWorkers)
		for w := range abufs {
			abufs[w] = make([]float32, needA)
		}
	}

	for jc := 0; jc < n; jc += nc {
		ncb := min(nc, n-jc)
		for pc := 0; pc < k; pc += kc {
			kcb := min(kc, k-pc)
			packB(b, tB, pc, jc, kcb, ncb, bbuf)

			if nWorkers == 1 {
				for ic := 0; ic < m; ic += mc {
					mcb := min(mc, m-ic)
					packA(a, tA, ic, pc, mcb, kcb, abufs[0])
					macroKernel(abufs[0], bbuf, c, ic, jc, mcb, ncb, kcb, alpha)
				}
				continue
			}
			// The MC blocks of A are independent: fan them out across
			// workers that share the packed B panel, the analogue of the
			// paper's threads cooperating on a shared operand stream.
			var wg sync.WaitGroup
			blockCh := make(chan int)
			for w := 0; w < nWorkers; w++ {
				wg.Add(1)
				// Loop-varying state rides in as parameters, not captures:
				// a captured loop variable is heap-allocated per iteration,
				// which would charge the single-worker path (it shares this
				// loop) with allocations for goroutines it never launches.
				go func(abuf, bpanel []float32, pc, jc, kcb, ncb int) {
					defer wg.Done()
					for ic := range blockCh {
						mcb := min(mc, m-ic)
						packA(a, tA, ic, pc, mcb, kcb, abuf)
						macroKernel(abuf, bpanel, c, ic, jc, mcb, ncb, kcb, alpha)
					}
				}(abufs[w], bbuf, pc, jc, kcb, ncb)
			}
			for ic := 0; ic < m; ic += mc {
				blockCh <- ic
			}
			close(blockCh)
			wg.Wait()
		}
	}
}

// packBounds is the cold fail-fast for the geometry guards below: the
// guards are unreachable for well-formed matrices and pack buffers, and
// hoisting the panic keeps the hot bodies small enough to inline.
//
//go:noinline
func packBounds() {
	panic("blas: packed-panel geometry out of range")
}

// packA copies the mc×kc block of op(A) at (i0, p0) into panels of mr rows
// in k-major order, zero-padding the final partial panel. The packed
// layout guarantees stride-one access in the micro-kernel, the portable
// equivalent of the paper's reformatting of A for the L1P prefetch engine.
//
// Every loop is structured as a cursor advance behind a uint guard so
// the compiler's prove pass eliminates all per-element bounds checks;
// the bce gate (internal/lint/escape) keeps it that way.
//
//lint:hotpath
func packA(a *tensor.Matrix, tA Transpose, i0, p0, mc, kc int, buf []float32) {
	for ip := 0; ip < mc; ip += mr {
		rows := min(mr, mc-ip)
		po := (ip / mr) * kc * mr
		if uint(po) > uint(len(buf)) {
			packBounds()
			return
		}
		panel := buf[po:]
		if tA == NoTrans {
			for r := 0; r < rows; r++ {
				so := (i0+ip+r)*a.Stride + p0
				if uint(so) > uint(len(a.Data)) {
					packBounds()
					return
				}
				scatterMR(panel, r, a.Data[so:], kc)
			}
		} else {
			// op(A)[i][p] = A[p][i]: walk A rows (p) contiguously.
			so := p0*a.Stride + i0 + ip
			if uint(so) > uint(len(a.Data)) {
				packBounds()
				return
			}
			src := a.Data[so:]
			d := panel
			for p := 0; p < kc; p++ {
				if p > 0 {
					if uint(a.Stride) > uint(len(src)) || len(d) < mr {
						packBounds()
						return
					}
					src = src[a.Stride:]
					d = d[mr:]
				}
				if uint(rows) > uint(len(src)) || uint(rows) > uint(len(d)) {
					packBounds()
					return
				}
				copy(d[:rows], src[:rows])
			}
		}
		if rows < mr {
			padPanel(panel, rows, mr, kc)
		}
	}
}

// scatterMR stores n consecutive src elements into d at indices r,
// r+mr, r+2·mr, … — one column of a packed A panel. The strided store
// advances a cursor whose slice operations are all justified by the
// loop condition, so the body carries no bounds checks; the final
// element is stored outside the loop because the last cursor position
// may have fewer than mr elements left.
//
//lint:hotpath
func scatterMR(d []float32, r int, src []float32, n int) {
	if uint(r) >= uint(len(d)) {
		packBounds()
		return
	}
	d = d[r:]
	for n > 1 && len(d) >= mr && len(src) > 0 {
		d[0] = src[0]
		d = d[mr:]
		src = src[1:]
		n--
	}
	if n > 0 && len(d) > 0 && len(src) > 0 {
		d[0] = src[0]
	}
}

// padPanel zeroes entries lanes..width-1 of each of the n width-wide
// k-slices of a packed panel — the fringe of a partial tile. The
// countdown with an explicit j >= 0 bound keeps the stores check-free
// without knowing lanes' sign.
//
//lint:hotpath
func padPanel(d []float32, lanes, width, n int) {
	for ; n > 0 && len(d) >= width && width > 0; n-- {
		row := d[:width]
		// Simple down-counting induction (the lanes cut-off is a break, not
		// part of the condition) so prove recognizes 0 <= j < width.
		for j := width - 1; j >= 0; j-- {
			if j < lanes {
				break
			}
			row[j] = 0
		}
		d = d[width:]
	}
}

// packB copies the kc×nc block of op(B) at (p0, j0) into panels of nr
// columns in k-major order, zero-padding the final partial panel. Like
// packA it is written in the guarded-cursor style the bce gate locks in.
//
//lint:hotpath
func packB(b *tensor.Matrix, tB Transpose, p0, j0, kc, nc int, buf []float32) {
	for jp := 0; jp < nc; jp += nr {
		cols := min(nr, nc-jp)
		po := (jp / nr) * kc * nr
		if uint(po) > uint(len(buf)) {
			packBounds()
			return
		}
		panel := buf[po:]
		if tB == NoTrans {
			so := p0*b.Stride + j0 + jp
			if uint(so) > uint(len(b.Data)) {
				packBounds()
				return
			}
			src := b.Data[so:]
			d := panel
			for p := 0; p < kc; p++ {
				if p > 0 {
					if uint(b.Stride) > uint(len(src)) || len(d) < nr {
						packBounds()
						return
					}
					src = src[b.Stride:]
					d = d[nr:]
				}
				if uint(cols) > uint(len(src)) || uint(cols) > uint(len(d)) {
					packBounds()
					return
				}
				copy(d[:cols], src[:cols])
			}
		} else {
			// op(B)[p][j] = B[j][p]: walk B rows (j) contiguously.
			for j := 0; j < cols; j++ {
				so := (j0+jp+j)*b.Stride + p0
				if uint(so) > uint(len(b.Data)) {
					packBounds()
					return
				}
				scatterNR(panel, j, b.Data[so:], kc)
			}
		}
		if cols < nr {
			padPanel(panel, cols, nr, kc)
		}
	}
}

// scatterNR is scatterMR's nr-stride twin: it stores n consecutive src
// elements into d at indices j, j+nr, j+2·nr, … — one row of a packed
// B panel.
//
//lint:hotpath
func scatterNR(d []float32, j int, src []float32, n int) {
	if uint(j) >= uint(len(d)) {
		packBounds()
		return
	}
	d = d[j:]
	for n > 1 && len(d) >= nr && len(src) > 0 {
		d[0] = src[0]
		d = d[nr:]
		src = src[1:]
		n--
	}
	if n > 0 && len(d) > 0 && len(src) > 0 {
		d[0] = src[0]
	}
}

// macroKernel multiplies the packed mc×kc A block by the packed kc×nc B
// panel, accumulating alpha times the product into C at (ic, jc).
//
//lint:hotpath
func macroKernel(abuf, bbuf []float32, c *tensor.Matrix, ic, jc, mc, nc, kc int, alpha float32) {
	for jp := 0; jp < nc; jp += nr {
		cols := min(nr, nc-jp)
		bo := (jp / nr) * kc * nr
		if uint(bo) > uint(len(bbuf)) {
			packBounds()
			return
		}
		bpanel := bbuf[bo:]
		for ip := 0; ip < mc; ip += mr {
			rows := min(mr, mc-ip)
			ao := (ip / mr) * kc * mr
			coff := (ic+ip)*c.Stride + jc + jp
			if uint(ao) > uint(len(abuf)) || uint(coff) > uint(len(c.Data)) {
				packBounds()
				return
			}
			apanel := abuf[ao:]
			if rows == mr && cols == nr {
				microKernel(kc, apanel, bpanel, c.Data[coff:], c.Stride, alpha)
			} else {
				microKernelEdge(kc, apanel, bpanel, c.Data[coff:], c.Stride, rows, cols, alpha)
			}
		}
	}
}

// microKernel is the register-blocked inner kernel: C8×8 += alpha·A8×kc·Bkc×8
// as kc rank-1 updates over the packed panels, the paper's outer-product
// formulation. Its guards are the whole memory-safety argument for the
// assembly kernel, which is entered only once both panels are known to
// hold kc k-steps and C to hold eight rows of eight at stride ldc (the
// uint compares also reject a negative kc or ldc).
//
//lint:hotpath
func microKernel(kc int, ap, bp, c []float32, ldc int, alpha float32) {
	if uint(kc) > uint(len(ap))/mr || uint(kc) > uint(len(bp))/nr ||
		len(c) < nr || uint(ldc) > uint(len(c)-nr)/(mr-1) {
		packBounds()
		return
	}
	if useAVX2 {
		kernelAVX2(kc, ap, bp, c, ldc, alpha)
		return
	}
	microKernelGo(kc, ap, bp, c, ldc, alpha)
}

// microKernelGo is the portable kernel: the only one off amd64 or
// without AVX2, and the reference the assembly is tested against bit for
// bit. It computes the tile a row at a time in eight accumulators; each
// C element still sums its kc products in k order, as in the assembly.
// The float32 conversions forbid fusing a multiply into the following
// add (the Go spec's rule), so no architecture or GOAMD64 level rounds
// these sums differently.
//
//lint:hotpath
func microKernelGo(kc int, ap, bp, c []float32, ldc int, alpha float32) {
	for r := 0; r < mr; r++ {
		var s0, s1, s2, s3, s4, s5, s6, s7 float32
		a, b := ap, bp
		for p := 0; p < kc; p++ {
			if len(a) < mr || len(b) < nr {
				packBounds()
				return
			}
			ar := a[r]
			bv := b[:nr:nr]
			s0 += float32(ar * bv[0])
			s1 += float32(ar * bv[1])
			s2 += float32(ar * bv[2])
			s3 += float32(ar * bv[3])
			s4 += float32(ar * bv[4])
			s5 += float32(ar * bv[5])
			s6 += float32(ar * bv[6])
			s7 += float32(ar * bv[7])
			a, b = a[mr:], b[nr:]
		}
		if r > 0 {
			if uint(ldc) > uint(len(c)) {
				packBounds()
				return
			}
			c = c[ldc:]
		}
		if len(c) < nr {
			packBounds()
			return
		}
		row := c[:nr:nr]
		row[0] += float32(alpha * s0)
		row[1] += float32(alpha * s1)
		row[2] += float32(alpha * s2)
		row[3] += float32(alpha * s3)
		row[4] += float32(alpha * s4)
		row[5] += float32(alpha * s5)
		row[6] += float32(alpha * s6)
		row[7] += float32(alpha * s7)
	}
}

// microKernelEdge handles partial tiles at the matrix fringe — the
// "matrices with dimensions that do not lend themselves to full
// SIMDization" case the paper tunes for — on the same kernel: the packed
// panels are zero-padded, so it computes the full tile into a stack tile
// and adds only the rows×cols region that exists in C. The tile starts
// at −0, the identity of IEEE addition (+0 would turn a −0 product into
// +0), so it holds alpha·acc bit for bit and C sees exactly the
// operations a full tile applies.
//
//lint:hotpath
func microKernelEdge(kc int, ap, bp, c []float32, ldc, rows, cols int, alpha float32) {
	var tile [mr * nr]float32
	negZero := math.Float32frombits(1 << 31)
	for i := range tile {
		tile[i] = negZero
	}
	microKernel(kc, ap, bp, tile[:], nr, alpha)
	// Walk a tile cursor in lockstep with the C row cursor.
	t := tile[:]
	for r := 0; r < rows; r++ {
		if r > 0 {
			if uint(ldc) > uint(len(c)) || len(t) < 2*nr {
				packBounds()
				return
			}
			c = c[ldc:]
			t = t[nr:]
		}
		// Re-establish len(t) >= nr after the merge: prove loses the
		// loop-carried fact across the phi.
		if len(t) < nr {
			packBounds()
			return
		}
		trow := t[:nr:nr]
		for j := 0; j < cols && j < len(c) && j < nr; j++ {
			c[j] += trow[j]
		}
	}
}

func roundUp(x, to int) int { return (x + to - 1) / to * to }

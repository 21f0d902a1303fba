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

// gemmBlocked runs the packed, cache-blocked algorithm on up to threads
// workers. C's columns are cut into contiguous runs of whole nr-wide
// panels, one run per worker (workers = min(threads, panels)); each
// worker packs its own B panels and the A blocks it needs, writes only
// its own columns, and then applies epi, when non-nil, to them. The
// caller is worker 0, so one worker is a plain call and more are one
// fork-join. Every C element is still summed by one worker in the
// KC-blocked k order, so the result is bit-identical at any worker count.
// With pb non-nil, op(B) is already packed there (b is unused) and the
// callers pass threads = 1, so no B panels are packed or allocated.
func gemmBlocked(cfg Config, tA, tB Transpose, alpha float32, a, b *tensor.Matrix, pb *PackedB, beta float32, c *tensor.Matrix, threads int, epi Epilogue) {
	m, k := opDims(a, tA)
	n := c.Cols
	scaleC(beta, c)
	// BLAS semantics: alpha=0 means "skip the product entirely", an exact
	// sentinel the caller sets literally, not a computed value.
	//lint:ignore floateq alpha==0 is the exact BLAS fast-path sentinel
	if m == 0 || n == 0 || k == 0 || alpha == 0 {
		if epi != nil {
			epi(c, 0)
		}
		return
	}

	panels := (n + nr - 1) / nr
	workers := min(max(threads, 1), panels)
	g := gemmRun{tA: tA, tB: tB, alpha: alpha, a: a, b: b, pb: pb, c: c, epi: epi,
		m: m, k: k, mc: cfg.MC, kc: cfg.KC, nc: cfg.NC}
	// The widest run is ⌈panels/workers⌉ panels; every worker's packing
	// buffers are sized for it.
	needA, needB := panelSizes(g.mc, g.kc, g.nc, m, k, (panels+workers-1)/workers*nr)
	if pb != nil {
		needB = 0
	}
	// One slab holds every worker's A and B panels.
	var slab []float32
	if ws := cfg.Workspace; ws != nil && workers == 1 {
		// Caller-owned panels: no per-call allocation once the workspace
		// has grown to the largest product it serves.
		slab = ws.slab(needA + needB)
	} else {
		slab = make([]float32, workers*(needA+needB))
	}
	if workers == 1 {
		g.run(0, n, slab[:needA:needA], slab[needA:])
		return
	}
	forkRuns(g, workers, panels, needA, needB, slab)
}

// gemmRun is one GEMM call as its workers see it: the operands, the
// product's extent and the block limits. pb, when non-nil, holds op(B)
// already packed and takes the place of b.
type gemmRun struct {
	tA, tB     Transpose
	alpha      float32
	a, b, c    *tensor.Matrix
	pb         *PackedB
	epi        Epilogue
	m, k       int
	mc, kc, nc int
}

// run computes columns [j0, j1) of C with the Goto loop nest (jc, pc,
// ic) over its own packing buffers, then hands the finished columns to
// the epilogue. With pre-packed B the (jc, pc) block is read from g.pb
// instead of being packed into bbuf.
func (g *gemmRun) run(j0, j1 int, abuf, bbuf []float32) {
	for jc := j0; jc < j1; jc += g.nc {
		ncb := min(g.nc, j1-jc)
		for pc := 0; pc < g.k; pc += g.kc {
			kcb := min(g.kc, g.k-pc)
			bp := bbuf
			if g.pb != nil {
				bp = g.pb.block(jc, pc, ncb)
			} else {
				packB(g.b, g.tB, pc, jc, kcb, ncb, bp)
			}
			for ic := 0; ic < g.m; ic += g.mc {
				mcb := min(g.mc, g.m-ic)
				packA(g.a, g.tA, ic, pc, mcb, kcb, abuf)
				macroKernel(abuf, bp, g.c, ic, jc, mcb, ncb, kcb, g.alpha)
			}
		}
	}
	if g.epi != nil {
		g.epi(g.c.View(0, j0, g.m, j1-j0), j0)
	}
}

// forkRuns gives worker w panels [w·panels/workers, (w+1)·panels/workers)
// of C and its own needA+needB floats of slab, runs worker 0 on the
// caller and the rest on goroutines, and returns when all are done — the
// analogue of the paper's threads cooperating on one product. g is taken
// by value so that only this multi-worker path moves it to the heap.
func forkRuns(g gemmRun, workers, panels, needA, needB int, slab []float32) {
	n := g.c.Cols
	span := func(w int) (j0, j1 int, abuf, bbuf []float32) {
		buf := slab[w*(needA+needB) : (w+1)*(needA+needB)]
		return w * panels / workers * nr, min((w+1)*panels/workers*nr, n), buf[:needA:needA], buf[needA:]
	}
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		j0, j1, abuf, bbuf := span(w)
		go func() {
			defer wg.Done()
			g.run(j0, j1, abuf, bbuf)
		}()
	}
	g.run(span(0))
	wg.Wait()
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
// in k-major order. The packed layout guarantees stride-one access in the
// micro-kernel, the portable equivalent of the paper's reformatting of A
// for the L1P prefetch engine. A final partial panel is not padded: its
// lanes past the live rows keep whatever the buffer held, because no
// kernel carries them into C — the row kernel reads only live lanes, and
// microKernelEdge computes dead rows into its stack tile and adds only
// live ones (TestGemmPackedStaleWorkspace fills them with NaN).
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
			if rows == mr {
				so := (i0+ip)*a.Stride + p0
				if uint(so) > uint(len(a.Data)) {
					packBounds()
					return
				}
				gather8(panel, a.Data[so:], a.Stride, kc)
				continue
			}
			for r := 0; r < rows; r++ {
				so := (i0+ip+r)*a.Stride + p0
				if uint(so) > uint(len(a.Data)) {
					packBounds()
					return
				}
				scatter8(panel, r, a.Data[so:], kc)
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
	}
}

// scatter8 stores n consecutive src elements into d at indices lane,
// lane+8, lane+16, … — one lane of a packed panel (a column of an A
// panel, a row of a B panel: mr = nr = 8). The strided store advances a
// cursor whose slice operations are all justified by the loop condition,
// so the body carries no bounds checks; the final element is stored
// outside the loop because the last cursor position may have fewer than
// 8 elements left.
//
//lint:hotpath
func scatter8(d []float32, lane int, src []float32, n int) {
	if uint(lane) >= uint(len(d)) {
		packBounds()
		return
	}
	d = d[lane:]
	for n > 1 && len(d) >= 8 && len(src) > 0 {
		d[0] = src[0]
		d = d[8:]
		src = src[1:]
		n--
	}
	if n > 0 && len(d) > 0 && len(src) > 0 {
		d[0] = src[0]
	}
}

// gather8 packs one full 8-lane panel from eight source rows in
// lockstep: row r is src[r·stride:][:n], and k-step p of the panel,
// d[8p:8p+8], receives element p of each row. It is the full-panel path
// of packA (NoTrans) and packB (Trans), where scatter8 stores one lane
// at a time at stride 8 (it keeps the partial panels); here the eight
// rows are read sequentially and each k-step is written as one
// contiguous run.
//
//lint:hotpath
func gather8(d, src []float32, stride, n int) {
	var rows [8][]float32
	for r := range rows {
		if r > 0 {
			if uint(stride) > uint(len(src)) {
				packBounds()
				return
			}
			src = src[stride:]
		}
		if uint(n) > uint(len(src)) {
			packBounds()
			return
		}
		rows[r] = src[:n]
	}
	r0, r1, r2, r3, r4, r5, r6, r7 := rows[0], rows[1], rows[2], rows[3], rows[4], rows[5], rows[6], rows[7]
	// All eight rows hold n elements; saying so lets prove drop the
	// per-element checks below.
	if len(r1) != len(r0) || len(r2) != len(r0) || len(r3) != len(r0) || len(r4) != len(r0) ||
		len(r5) != len(r0) || len(r6) != len(r0) || len(r7) != len(r0) {
		packBounds()
		return
	}
	for p, v := range r0 {
		if len(d) < 8 {
			packBounds()
			return
		}
		t := d[:8:8]
		t[0], t[1], t[2], t[3] = v, r1[p], r2[p], r3[p]
		t[4], t[5], t[6], t[7] = r4[p], r5[p], r6[p], r7[p]
		d = d[8:]
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
			if cols == nr {
				so := (j0+jp)*b.Stride + p0
				if uint(so) > uint(len(b.Data)) {
					packBounds()
					return
				}
				gather8(panel, b.Data[so:], b.Stride, kc)
				continue
			}
			for j := 0; j < cols; j++ {
				so := (j0+jp+j)*b.Stride + p0
				if uint(so) > uint(len(b.Data)) {
					packBounds()
					return
				}
				scatter8(panel, j, b.Data[so:], kc)
			}
		}
		if cols < nr {
			padPanel(panel, cols, nr, kc)
		}
	}
}

// rowKernelRows is the most live rows an edge A panel may have for its
// rows to take the row kernel; an edge with more runs the 8×8 tile over
// the panel. It is the measured cutover (BenchmarkGemmPackedRows, DESIGN
// §2): up to six rows the row kernel is faster, at seven the two tie.
const rowKernelRows = 6

// macroKernel multiplies the packed mc×kc A block by the packed kc×nc B
// panel, accumulating alpha times the product into C at (ic, jc). On
// AVX2 an edge A panel of at most rowKernelRows rows is computed by the
// row kernel, each live row once against every column panel; full
// panels and wider edges take the 8×8 tile.
//
//lint:hotpath
func macroKernel(abuf, bbuf []float32, c *tensor.Matrix, ic, jc, mc, nc, kc int, alpha float32) {
	if edge := mc % mr; useAVX2 && edge > 0 && edge <= rowKernelRows {
		mc -= edge
		macroKernelRows(abuf, bbuf, c, ic, mc, edge, jc, nc, kc, alpha)
	}
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

// macroKernelRows runs the row kernel over the rows live rows of the
// edge A panel at row ip of the block: each row against the nc/nr full
// B panels straight into its C row, then against the partial panel, if
// any, into a stack row that starts at −0 (microKernelEdge's rule) and
// is added into C over its live columns.
//
//lint:hotpath
func macroKernelRows(abuf, bbuf []float32, c *tensor.Matrix, ic, ip, rows, jc, nc, kc int, alpha float32) {
	ao := (ip / mr) * kc * mr
	full, cols := nc/nr, nc%nr
	bo := full * kc * nr
	if uint(ao) > uint(len(abuf)) || uint(bo) > uint(len(bbuf)) {
		packBounds()
		return
	}
	apanel, btail := abuf[ao:], bbuf[bo:]
	negZero := math.Float32frombits(1 << 31)
	for r := 0; r < rows; r++ {
		coff := (ic+ip+r)*c.Stride + jc
		if uint(coff) > uint(len(c.Data)) {
			packBounds()
			return
		}
		crow := c.Data[coff:]
		microKernelRow(kc, r, full, apanel, bbuf, crow, alpha)
		if cols == 0 {
			continue
		}
		var row [nr]float32
		for j := range row {
			row[j] = negZero
		}
		microKernelRow(kc, r, 1, apanel, btail, row[:], alpha)
		if uint(full*nr) > uint(len(crow)) {
			packBounds()
			return
		}
		ct := crow[full*nr:]
		for j := 0; j < cols && j < len(ct) && j < nr; j++ {
			ct[j] += row[j]
		}
	}
}

// microKernelRow is the row kernel: c[:8·panels] += alpha·Σp ap[8p+r]·Bj[p]
// over panels full B panels of kc k-steps each, laid end to end in bp,
// for lane r of a packed A panel. Its guards are the whole
// memory-safety argument for the assembly, as microKernel's are for the
// tile: lane r is one of the panel's eight, the A panel holds kc
// k-steps, C's row holds the panels' columns and bp holds panels·kc·8
// floats (uint compares, so a negative argument fails too). Each C
// element gets the tile's operations in the tile's order, so the result
// is the tile's bit for bit. It runs only under useAVX2.
//
//lint:hotpath
func microKernelRow(kc, r, panels int, ap, bp, c []float32, alpha float32) {
	if uint(r) >= mr || uint(kc) > uint(len(ap))/mr || uint(panels) > uint(len(c))/nr ||
		panels > 0 && uint(kc) > uint(len(bp))/(nr*uint(panels)) {
		packBounds()
		return
	}
	kernelRowAVX2(kc, r, panels, ap, bp, c, alpha)
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
// SIMDization" case the paper tunes for — on the same kernel: it computes
// the full tile into a stack tile and adds only the rows×cols region
// that exists in C, so neither the A panel's dead lanes nor the B
// panel's zero padding reaches C. The tile starts at −0, the identity of
// IEEE addition (+0 would turn a −0 product into +0), so it holds
// alpha·acc bit for bit and C sees exactly the operations a full tile
// applies. On AVX2 it takes the edges the row kernel does not: A panels
// of more than rowKernelRows rows, and full 8-row panels against a
// partial column panel; without AVX2 it takes every edge.
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

package blas

import "repro/internal/tensor"

// Workspace holds the packing buffers the blocked GEMM normally
// allocates per call, so a caller with a steady stream of same-shaped
// products (the inference runtime's batched forward passes) can reuse
// them and keep its hot path off the allocator. A Workspace serves one
// goroutine: GemmWith only consults it on the single-worker blocked
// path, GemmPacked always runs on one worker, and two concurrent calls
// sharing one would race on the panels.
//
// The zero value is ready to use; panels grow to the largest product
// seen and then stay, so calls are allocation-free at steady state.
type Workspace struct {
	buf []float32
}

// slab returns n floats for the packing panels, growing the buffer if
// this product is the largest yet.
func (w *Workspace) slab(n int) []float32 {
	if cap(w.buf) < n {
		w.buf = make([]float32, n)
	}
	return w.buf[:n]
}

// panelSizes returns the floats a worker's packed-A and packed-B panels
// hold for an m×n×k product under block limits mc/kc/nc, n being the
// worker's run of columns: the blocks clipped to the product and rounded
// up to whole register tiles, so a small product does not allocate and
// zero the full block limits.
func panelSizes(mc, kc, nc, m, k, n int) (needA, needB int) {
	return roundUp(min(mc, m), mr) * min(kc, k), min(kc, k) * roundUp(min(nc, n), nr)
}

// PackedB holds op(B) of a GEMM in the panel layout the blocked
// algorithm multiplies by: for each (jc, pc) block at the default NC and
// KC, exactly what packB writes for it. A product whose B operand never
// changes (a served layer's Wᵀ) packs it once and passes it to
// GemmPacked on every call, instead of re-packing it per call.
//
// Blocks are stored jc-major, so block (jc, pc) starts at jc·k +
// pc·⌈ncb⌉₈ and the whole operand takes k·⌈n⌉₈ floats. The zero value
// is empty; Pack sizes it.
type PackedB struct {
	data []float32
	k, n int
}

// Pack fills p with op(B), reusing p's storage when it is large enough,
// so re-packing a same-shaped operand does not allocate. It copies
// through packB, the packer the per-call path runs.
func (p *PackedB) Pack(tB Transpose, b *tensor.Matrix) {
	k, n := opDims(b, tB)
	need := k * roundUp(n, nr)
	if cap(p.data) < need {
		p.data = make([]float32, need)
	}
	p.data, p.k, p.n = p.data[:need], k, n
	for jc := 0; jc < n; jc += defaultNC {
		ncb := min(defaultNC, n-jc)
		for pc := 0; pc < k; pc += defaultKC {
			packB(b, tB, pc, jc, min(defaultKC, k-pc), ncb, p.block(jc, pc, ncb))
		}
	}
}

// block returns the panels of the (jc, pc) block, ncb columns wide.
func (p *PackedB) block(jc, pc, ncb int) []float32 {
	return p.data[jc*p.k+pc*roundUp(ncb, nr):]
}

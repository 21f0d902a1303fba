package blas

// Workspace holds the packing buffers the blocked GEMM normally
// allocates per call, so a caller with a steady stream of same-shaped
// products (the inference runtime's batched forward passes) can reuse
// them and keep its hot path off the allocator. A Workspace serves one
// goroutine: GemmWith only consults it on the single-worker blocked
// path, and two concurrent calls sharing one would race on the panels.
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

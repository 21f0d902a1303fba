package nn

import (
	"fmt"
	"math"

	"repro/internal/blas"
	"repro/internal/tensor"
)

// InferBuffers holds every buffer one inference worker needs to run
// batched forward passes without allocating: one maxBatch-row matrix per
// weight layer, sized for the topology at construction, and each
// layer's Wᵀ packed into GEMM panels (grown by the first PackInto, then
// reused). The serving runtime (internal/serve) owns one InferBuffers
// per scoring worker. Held-out scoring in training does not use one: it
// reads fresh weights on every pass, so it keeps one Forward and reuses
// it through ForwardTo.
//
// A buffer set is tied to one topology and one maximum batch size and is
// NOT safe for concurrent use — give each goroutine its own.
type InferBuffers struct {
	maxBatch int
	// acts[l] is the layer-l output buffer. Its Data always backs the
	// full maxBatch rows; ForwardInto shrinks Rows to the live batch
	// (the view idiom tensor.View also relies on: Data may extend past
	// Rows·Stride).
	acts []*tensor.Matrix
	// packed[l] is layer l's Wᵀ as the last PackInto packed it.
	packed []blas.PackedB
	// ws holds the GEMM's packed-A panel, so the per-layer products
	// reuse it instead of allocating per call.
	ws blas.Workspace
}

// NewInferBuffers allocates activation buffers for forward passes of up
// to maxBatch rows through topology t.
func (t Topology) NewInferBuffers(maxBatch int) *InferBuffers {
	if maxBatch <= 0 {
		panic(fmt.Sprintf("nn: NewInferBuffers maxBatch %d, want > 0", maxBatch))
	}
	b := &InferBuffers{maxBatch: maxBatch, packed: make([]blas.PackedB, t.NumLayers())}
	for l := 0; l < t.NumLayers(); l++ {
		b.acts = append(b.acts, tensor.NewMatrix(maxBatch, t.Sizes[l+1]))
	}
	return b
}

// inferMismatch reports a ForwardInto precondition violation. It is
// hoisted out of the hot path (and kept noinline) so the formatted panic
// arguments never allocate inside the kernel, mirroring blas.lenMismatch.
//
//go:noinline
func inferMismatch(what string, got, want int) {
	panic(fmt.Sprintf("nn: ForwardInto %s %d, want %d", what, got, want))
}

// ForwardInto runs the inference-only forward pass over x into buf and
// returns the logits matrix (x.Rows × OutputDim), which aliases buf and
// stays valid until the next call. It packs every layer's weights into
// buf (PackInto) and runs ForwardPacked, so each call reads the weights
// as they are now. Unlike Forward it keeps no training-only state (no
// stored hidden activations for backprop, no Gauss-Newton scratch) and
// performs zero allocations per call once buf has been used — the
// escape, bounds-check and alloc gates hold it to that.
//
// The arithmetic is exactly Forward's (same GEMM shapes, same bias add
// and sigmoid in the same order), so logits agree bit-for-bit with
// Forward(x).Logits; TestForwardIntoMatchesForward pins that. An
// input-dimension mismatch panics inside blas.GemmPacked, which
// validates every operand shape.
//
//lint:shape x=(b,d)
//lint:hotpath
func (n *Network) ForwardInto(buf *InferBuffers, x *tensor.Matrix) *tensor.Matrix {
	n.PackInto(buf)
	return n.ForwardPacked(buf, x)
}

// PackInto packs every layer's Wᵀ into buf's GEMM panels — a copy of the
// weights in the order the kernel reads them. ForwardPacked multiplies
// by these panels, so a caller whose weights change must pack again.
// Re-packing the same topology does not allocate.
func (n *Network) PackInto(buf *InferBuffers) {
	if len(buf.packed) != len(n.Weights) {
		inferMismatch("layer buffers", len(buf.packed), len(n.Weights))
	}
	for l, w := range n.Weights {
		buf.packed[l].Pack(blas.Trans, w)
	}
}

// ForwardPacked is ForwardInto without the packing: it reads each
// layer's weights from the panels of the last PackInto on buf, not from
// n.Weights, and takes the biases from n. A caller that scores many
// batches with fixed weights (a serving worker) packs once and then
// calls this; the logits are ForwardInto's bit for bit. It panics if buf
// was never packed. It is a loop of its own, not a branch of ForwardTo:
// DESIGN §15 says why both stay.
//
//lint:shape x=(b,d)
//lint:hotpath
func (n *Network) ForwardPacked(buf *InferBuffers, x *tensor.Matrix) *tensor.Matrix {
	packed, biases, acts := buf.packed, n.Biases, buf.acts
	// The loop runs inside the equal-length branch (the blas.Axpy idiom)
	// so the prove pass sees len(packed) == len(biases) == len(acts) on
	// the hot path and drops the per-layer bounds checks.
	if len(packed) == len(acts) && len(biases) == len(acts) && len(acts) > 0 && x.Rows <= buf.maxBatch {
		a := x
		last := len(acts) - 1
		for l := range acts {
			z := acts[l]
			z.Rows = a.Rows
			// z = a·Wᵀ + 1·bᵀ — the same blocked kernel, block sizes and
			// operand order as Forward, so the two paths agree bitwise;
			// the packed panels and the workspace only change where the
			// packed operands live.
			blas.GemmPacked(&buf.ws, 1, a, &packed[l], 0, z)
			addBiasRows(z, biases[l])
			if l != last {
				sigmoidInPlace(z)
				a = z
			}
		}
		return acts[last]
	}
	if len(packed) != len(acts) || len(biases) != len(acts) || len(acts) == 0 {
		inferMismatch("layer buffers", len(acts), len(biases))
	}
	inferMismatch("batch", x.Rows, buf.maxBatch)
	return nil
}

// SoftmaxInto writes row-wise softmax probabilities of logits into p,
// which the caller supplies (p may be logits itself for an in-place
// transform: each row is read before it is written). Softmax allocates
// and delegates here.
//
//lint:shape p=(logits.Rows,logits.Cols)
func SoftmaxInto(logits, p *tensor.Matrix) {
	if p.Rows != logits.Rows || p.Cols != logits.Cols {
		panic(fmt.Sprintf("nn: SoftmaxInto dst %d×%d, want %d×%d",
			p.Rows, p.Cols, logits.Rows, logits.Cols))
	}
	for i := 0; i < logits.Rows; i++ {
		softmaxRow(p.Row(i), logits.Row(i))
	}
}

// softmaxRow computes dst = softmax(src) for one row; dst may be src.
func softmaxRow(dst, src []float32) {
	max := src[0]
	for _, v := range src[1:] {
		if v > max {
			max = v
		}
	}
	var sum float64
	for j, v := range src {
		e := math.Exp(float64(v - max))
		dst[j] = float32(e)
		sum += e
	}
	//lint:ignore divguard after max subtraction the max element contributes exp(0)=1, so sum ≥ 1
	inv := float32(1 / sum)
	for j := range dst {
		dst[j] *= inv
	}
}

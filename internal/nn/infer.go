package nn

import (
	"fmt"
	"math"

	"repro/internal/blas"
	"repro/internal/tensor"
)

// InferBuffers holds every activation buffer one inference worker needs
// to run batched forward passes without allocating: one maxBatch-row
// matrix per weight layer, sized for the topology at construction. The
// serving runtime (internal/serve) owns one InferBuffers per scoring
// worker; training-side consumers (held-out scoring, examples) can use
// one to keep repeated evaluation off the garbage collector.
//
// A buffer set is tied to one topology and one maximum batch size and is
// NOT safe for concurrent use — give each goroutine its own.
type InferBuffers struct {
	topo     Topology
	maxBatch int
	// acts[l] is the layer-l output buffer. Its Data always backs the
	// full maxBatch rows; ForwardInto shrinks Rows to the live batch
	// (the view idiom tensor.View also relies on: Data may extend past
	// Rows·Stride).
	acts []*tensor.Matrix
	// ws holds the GEMM packing panels, so the per-layer products reuse
	// them instead of allocating per call.
	ws blas.Workspace
}

// NewInferBuffers allocates activation buffers for forward passes of up
// to maxBatch rows through topology t.
func (t Topology) NewInferBuffers(maxBatch int) *InferBuffers {
	if maxBatch <= 0 {
		panic(fmt.Sprintf("nn: NewInferBuffers maxBatch %d, want > 0", maxBatch))
	}
	b := &InferBuffers{topo: t, maxBatch: maxBatch}
	for l := 0; l < t.NumLayers(); l++ {
		b.acts = append(b.acts, tensor.NewMatrix(maxBatch, t.Sizes[l+1]))
	}
	return b
}

// MaxBatch returns the batch capacity the buffers were sized for.
func (b *InferBuffers) MaxBatch() int { return b.maxBatch }

// Topology returns the topology the buffers were sized for.
func (b *InferBuffers) Topology() Topology { return b.topo }

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
// stays valid until the next call. It is the shared scoring entry point:
// the serving runtime's batch path and direct evaluation both run
// through it. Unlike Forward it keeps no training-only state (no stored
// hidden activations for backprop, no Gauss-Newton scratch) and performs
// zero allocations per call — the escape, bounds-check and alloc gates
// hold it to that.
//
// The arithmetic is exactly Forward's (same GEMM shapes, same bias and
// activation application in the same order), so logits agree
// bit-for-bit with Forward(x).Logits; TestForwardIntoMatchesForward
// pins that. An input-dimension mismatch panics inside blas.Gemm, which
// validates every operand shape.
//
//lint:shape x=(b,d)
//lint:hotpath
func (n *Network) ForwardInto(buf *InferBuffers, x *tensor.Matrix) *tensor.Matrix {
	weights, biases, acts := n.Weights, n.Biases, buf.acts
	// The loop runs inside the equal-length branch (the blas.Axpy idiom)
	// so the prove pass sees len(weights) == len(biases) == len(acts) on
	// the hot path and drops the per-layer bounds checks.
	if len(weights) == len(acts) && len(biases) == len(acts) && len(acts) > 0 && x.Rows <= buf.maxBatch {
		a := x
		last := len(acts) - 1
		for l := range acts {
			z := acts[l]
			z.Rows = a.Rows
			// z = a·Wᵀ + 1·bᵀ — the same blocked kernel and operand order
			// as Forward, so the two paths agree bitwise; the workspace
			// only swaps where the packing panels live.
			blas.GemmWith(blas.Config{Workspace: &buf.ws}, blas.NoTrans, blas.Trans, 1, a, weights[l], 0, z)
			addBiasRows(z, biases[l])
			if l != last {
				n.Act.apply(z)
				a = z
			}
		}
		return acts[last]
	}
	if len(weights) != len(acts) || len(biases) != len(acts) || len(acts) == 0 {
		inferMismatch("layer buffers", len(acts), len(weights))
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

package nn

import (
	"fmt"

	"repro/internal/tensor"
)

// FisherDiag accumulates the diagonal of the empirical Fisher matrix —
// the sum over batch rows of the squared per-frame cross-entropy
// gradient — into out (+=). This is the quantity behind the Martens
// (2010 §4.7) diagonal CG preconditioner, (diag(F) + λ)^α, the extension
// the paper's implementation defers.
//
// Because the per-frame gradient of W_l is the outer product δ_i·a_j, the
// summed square is Σ_n δ²_i a²_j = (Δ∘Δ)ᵀ(A∘A): one GEMM on elementwise
// squares per layer, so the diagonal costs about as much as one gradient.
//
//lint:shape x=(b,d) targets=b
func (n *Network) FisherDiag(x *tensor.Matrix, targets []int, out tensor.Vector) {
	if len(out) != n.NumParams() {
		panic(fmt.Sprintf("nn: FisherDiag vector %d elements, want %d", len(out), n.NumParams()))
	}
	f := n.Forward(x)
	ow, ob := n.Topo.Views(out)
	// diag(F)_Wl += (Δ∘Δ)ᵀ·(A∘A); biases get column sums of Δ∘Δ.
	n.backward(f, ceDelta(f.Logits, targets), func(l int, delta, below *tensor.Matrix) {
		accumulate(ow[l], ob[l], squared(delta), squared(below))
	})
}

// squared returns the elementwise square of m (compact copy).
func squared(m *tensor.Matrix) *tensor.Matrix {
	out := tensor.NewMatrix(m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		src, dst := m.Row(i), out.Row(i)
		for j, v := range src {
			dst[j] = v * v
		}
	}
	return out
}

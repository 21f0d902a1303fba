package nn

import (
	"fmt"

	"repro/internal/blas"
	"repro/internal/tensor"
)

// GNProduct accumulates (Jᵀ H_L J)·v into out (+=), where J is the
// Jacobian of the logits with respect to the parameters over the batch and
// H_L is the Hessian of the summed softmax/cross-entropy loss with respect
// to the logits. This is the Gauss-Newton matrix-vector product of
// Schraudolph (2004) computed with Pearlmutter's R-operator:
//
//  1. ordinary forward pass (activations a_l),
//  2. R-forward pass propagating Rz/Ra under perturbation v,
//  3. at the output, dOut = H_L·Rz_L = p∘Rz − p·(pᵀRz) per row,
//  4. ordinary backward pass with dOut as the output gradient.
//
// Like the Hessian for this loss, the result is symmetric; unlike the
// Hessian it is guaranteed positive semidefinite, which the HF inner CG
// relies on. The product is summed over the batch rows; callers normalize
// by the curvature-sample size.
//
//lint:shape v=n out=n
func (n *Network) GNProduct(x *tensor.Matrix, v, out tensor.Vector) {
	if len(v) != n.NumParams() || len(out) != n.NumParams() {
		panic(fmt.Sprintf("nn: GNProduct vectors %d/%d elements, want %d", len(v), len(out), n.NumParams()))
	}
	f := n.Forward(x)
	rz := n.rForward(f, v)
	// dOut = H_L · Rz_L with H_L = diag(p) − p·pᵀ per row.
	p := Softmax(f.Logits)
	for i := 0; i < rz.Rows; i++ {
		pr, rr := p.Row(i), rz.Row(i)
		var dot float64
		for j := range pr {
			dot += float64(pr[j]) * float64(rr[j])
		}
		for j := range rr {
			rr[j] = pr[j] * (rr[j] - float32(dot))
		}
	}
	n.BackpropOutputGrad(f, rz, out)
}

// rForward runs the R-operator forward pass for perturbation v over the
// stored forward state and returns R(logits).
//
// Recurrences, with a_0 = x and Ra_0 = 0:
//
//	Rz_{l+1} = a_l·Vᵀ + Ra_l·Wᵀ + 1·Rbᵀ
//	Ra_{l+1} = σ'(z_{l+1}) ∘ Rz_{l+1}   (hidden layers only)
func (n *Network) rForward(f *Forward, v tensor.Vector) *tensor.Matrix {
	vw, vb := n.Topo.Views(v)
	L := n.Topo.NumLayers()
	batch := f.Batch()
	var ra *tensor.Matrix // R(a_l); nil means zero (input layer)
	a := f.X
	var rz *tensor.Matrix
	for l := 0; l < L; l++ {
		rz = tensor.NewMatrix(batch, n.Topo.Sizes[l+1])
		blas.Gemm(blas.NoTrans, blas.Trans, 1, a, vw[l], 0, rz)
		if ra != nil {
			blas.Gemm(blas.NoTrans, blas.Trans, 1, ra, n.Weights[l], 1, rz)
		}
		addBiasRows(rz, vb[l])
		if l < L-1 {
			// Ra = σ'(z) ∘ Rz, with σ' from stored activations.
			hadamardSigmoidDeriv(rz, f.Hidden[l])
			ra = rz
			a = f.Hidden[l]
		}
	}
	return rz
}

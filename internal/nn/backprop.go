package nn

import (
	"fmt"
	"math"

	"repro/internal/blas"
	"repro/internal/tensor"
)

// CrossEntropy computes the summed negative log-likelihood of the targets
// under the softmax of the logits, plus the number of correctly classified
// rows. Losses are sums (not means) so data-parallel workers can combine
// them with a single Reduce and the master can normalize by total count.
//
//lint:shape logits=(b,c) targets=b
func CrossEntropy(logits *tensor.Matrix, targets []int) (loss float64, correct int) {
	if len(targets) != logits.Rows {
		panic(fmt.Sprintf("nn: %d targets for %d rows", len(targets), logits.Rows))
	}
	for i := 0; i < logits.Rows; i++ {
		row := logits.Row(i)
		t := targets[i]
		if t < 0 || t >= len(row) {
			panic(fmt.Sprintf("nn: target %d out of range %d", t, len(row)))
		}
		max := row[0]
		best := 0
		for j, v := range row {
			if v > max {
				max = v
				best = j
			}
		}
		var sum float64
		for _, v := range row {
			sum += math.Exp(float64(v - max))
		}
		loss += math.Log(sum) - float64(row[t]-max)
		if best == t {
			correct++
		}
	}
	return loss, correct
}

// LossGrad runs forward + backward over the batch for the cross-entropy
// criterion and accumulates the summed-loss gradient into grad (+=).
// It returns the summed loss and the number of correct classifications.
//
//lint:shape x=(b,d) targets=b
func (n *Network) LossGrad(x *tensor.Matrix, targets []int, grad tensor.Vector) (loss float64, correct int) {
	if len(targets) != x.Rows {
		panic(fmt.Sprintf("nn: %d targets for %d rows", len(targets), x.Rows))
	}
	if len(grad) != n.NumParams() {
		panic(fmt.Sprintf("nn: grad vector %d elements, want %d", len(grad), n.NumParams()))
	}
	f := n.Forward(x)
	loss, correct = CrossEntropy(f.Logits, targets)
	// dL/dlogits for summed softmax-CE: P - onehot(targets).
	delta := Softmax(f.Logits)
	for i, t := range targets {
		delta.Row(i)[t] -= 1
	}
	n.BackpropOutputGrad(f, delta, grad)
	return loss, correct
}

// BackpropOutputGrad backpropagates an arbitrary gradient dOut with
// respect to the output logits through the stored forward pass,
// accumulating parameter gradients into grad (+=). This is the shared
// machinery behind both the cross-entropy and the sequence criteria and
// the backward half of the Gauss-Newton product.
//
// dOut is modified in place during the backward sweep.
func (n *Network) BackpropOutputGrad(f *Forward, dOut *tensor.Matrix, grad tensor.Vector) {
	if len(grad) != n.NumParams() {
		panic(fmt.Sprintf("nn: grad vector %d elements, want %d", len(grad), n.NumParams()))
	}
	gw, gb := n.Topo.Views(grad)
	L := n.Topo.NumLayers()
	delta := dOut
	for l := L - 1; l >= 0; l-- {
		var below *tensor.Matrix
		if l == 0 {
			below = f.X
		} else {
			below = f.Hidden[l-1]
		}
		// gW_l += deltaᵀ · a_below ; gb_l += column sums of delta.
		blas.Gemm(blas.Trans, blas.NoTrans, 1, delta, below, 1, gw[l])
		for i := 0; i < delta.Rows; i++ {
			blas.Axpy(1, delta.Row(i), gb[l])
		}
		if l == 0 {
			break
		}
		// delta_below = (delta · W_l) ∘ f'(z_below), f' evaluated from the
		// stored post-activation values.
		next := tensor.NewMatrix(delta.Rows, n.Topo.Sizes[l])
		blas.Gemm(blas.NoTrans, blas.NoTrans, 1, delta, n.Weights[l], 0, next)
		n.Act.hadamardDeriv(next, f.Hidden[l-1])
		delta = next
	}
}

// hadamardSigmoidDeriv computes d ∘= a(1-a) elementwise.
func hadamardSigmoidDeriv(d, a *tensor.Matrix) {
	for i := 0; i < d.Rows; i++ {
		dr, ar := d.Row(i), a.Row(i)
		for j := range dr {
			dr[j] *= ar[j] * (1 - ar[j])
		}
	}
}

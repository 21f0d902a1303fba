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
	n.BackpropOutputGrad(f, ceDelta(f.Logits, targets), grad)
	return loss, correct
}

// ceDelta returns dL/dlogits for the summed softmax cross-entropy:
// softmax(logits) − onehot(targets).
func ceDelta(logits *tensor.Matrix, targets []int) *tensor.Matrix {
	delta := Softmax(logits)
	for i, t := range targets {
		if t < 0 || t >= delta.Cols {
			panic(fmt.Sprintf("nn: target %d out of range %d", t, delta.Cols))
		}
		delta.Row(i)[t] -= 1
	}
	return delta
}

// BackpropOutputGrad backpropagates an arbitrary gradient dOut with
// respect to the output logits through the stored forward pass,
// accumulating parameter gradients into grad (+=). This is the shared
// machinery behind both the cross-entropy and the sequence criteria and
// the backward half of the Gauss-Newton product.
//
// dOut is read, not modified: each layer below the top gets a new delta.
func (n *Network) BackpropOutputGrad(f *Forward, dOut *tensor.Matrix, grad tensor.Vector) {
	if len(grad) != n.NumParams() {
		panic(fmt.Sprintf("nn: grad vector %d elements, want %d", len(grad), n.NumParams()))
	}
	gw, gb := n.Topo.Views(grad)
	n.backward(f, dOut, func(l int, delta, below *tensor.Matrix) {
		accumulate(gw[l], gb[l], delta, below)
	})
}

// backward sweeps the delta recursion from the output layer down. At each
// layer l it calls layer(l, delta, below), where delta is the gradient
// with respect to layer l's pre-activation output and below is its input
// (f.X at l = 0). It then propagates delta_below = (delta · W_l) ∘ σ',
// with σ' evaluated from the stored post-activation values.
func (n *Network) backward(f *Forward, delta *tensor.Matrix, layer func(l int, delta, below *tensor.Matrix)) {
	for l := n.Topo.NumLayers() - 1; ; l-- {
		below := f.X
		if l > 0 {
			below = f.Hidden[l-1]
		}
		layer(l, delta, below)
		if l == 0 {
			return
		}
		next := tensor.NewMatrix(delta.Rows, n.Topo.Sizes[l])
		blas.Gemm(blas.NoTrans, blas.NoTrans, 1, delta, n.Weights[l], 0, next)
		hadamardSigmoidDeriv(next, below)
		delta = next
	}
}

// accumulate adds a layer's parameter gradient for output gradient delta
// and input below: w += deltaᵀ · below, b += column sums of delta.
func accumulate(w *tensor.Matrix, b tensor.Vector, delta, below *tensor.Matrix) {
	blas.Gemm(blas.Trans, blas.NoTrans, 1, delta, below, 1, w)
	for i := 0; i < delta.Rows; i++ {
		blas.Axpy(1, delta.Row(i), b)
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

package nn

import (
	"math"

	"repro/internal/blas"
	"repro/internal/tensor"
)

// Forward holds the intermediate state of a forward pass over a batch:
// everything backpropagation and the R-operator need.
type Forward struct {
	// X is the input batch, batch×inputDim (aliased, not copied).
	X *tensor.Matrix
	// Hidden[l] is the post-sigmoid activation of hidden layer l,
	// batch×Sizes[l+1], for l in [0, NumLayers-1).
	Hidden []*tensor.Matrix
	// Logits is the output pre-activation, batch×outputDim.
	Logits *tensor.Matrix
}

// Batch returns the number of rows in the batch.
func (f *Forward) Batch() int { return f.X.Rows }

// Forward runs the network on a batch (rows are frames) and returns the
// stored activations. Hidden layers apply the network's Act nonlinearity
// (sigmoid by default); the output layer is left as logits so both the
// softmax/cross-entropy path and the sequence criterion can consume it.
func (n *Network) Forward(x *tensor.Matrix) *Forward {
	if x.Cols != n.Topo.InputDim() {
		panic("nn: input dimension mismatch")
	}
	f := &Forward{X: x}
	a := x
	L := n.Topo.NumLayers()
	for l := 0; l < L; l++ {
		z := tensor.NewMatrix(x.Rows, n.Topo.Sizes[l+1])
		// z = a·Wᵀ + 1·bᵀ
		blas.Gemm(blas.NoTrans, blas.Trans, 1, a, n.Weights[l], 0, z)
		addBiasRows(z, n.Biases[l])
		if l == L-1 {
			f.Logits = z
		} else {
			n.Act.apply(z)
			f.Hidden = append(f.Hidden, z)
			a = z
		}
	}
	return f
}

// addBiasRows adds b to every row of z.
//
//lint:shape b=z.Cols
func addBiasRows(z *tensor.Matrix, b tensor.Vector) {
	for i := 0; i < z.Rows; i++ {
		blas.Axpy(1, b, z.Row(i))
	}
}

// sigmoidInPlace applies the logistic function elementwise.
func sigmoidInPlace(z *tensor.Matrix) {
	for i := 0; i < z.Rows; i++ {
		row := z.Row(i)
		for j, v := range row {
			row[j] = float32(1 / (1 + math.Exp(-float64(v))))
		}
	}
}

// Softmax returns row-wise softmax probabilities of the logits.
//
//lint:shape return=(logits.Rows,logits.Cols)
func Softmax(logits *tensor.Matrix) *tensor.Matrix {
	p := tensor.NewMatrix(logits.Rows, logits.Cols)
	SoftmaxInto(logits, p)
	return p
}

// Predict returns the argmax class of each row of the batch.
func (n *Network) Predict(x *tensor.Matrix) []int {
	f := n.Forward(x)
	out := make([]int, x.Rows)
	for i := range out {
		row := f.Logits.Row(i)
		best := 0
		for j, v := range row {
			if v > row[best] {
				best = j
			}
		}
		out[i] = best
	}
	return out
}

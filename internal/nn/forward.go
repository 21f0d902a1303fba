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
// stored activations in a new Forward: ForwardTo(new(Forward), x).
func (n *Network) Forward(x *tensor.Matrix) *Forward { return n.ForwardTo(new(Forward), x) }

// ForwardTo runs the network on a batch (rows are frames) into f and
// returns f. Hidden layers apply the sigmoid; the output layer is left as
// logits for both the softmax/cross-entropy path and the sequence
// criterion. A layer matrix of f is reused when its backing array holds
// x.Rows rows and allocated otherwise, so a Forward kept across batches
// allocates only for a batch larger than every earlier one. f.X aliases x.
func (n *Network) ForwardTo(f *Forward, x *tensor.Matrix) *Forward {
	if x.Cols != n.Topo.InputDim() {
		panic("nn: input dimension mismatch")
	}
	L := n.Topo.NumLayers()
	if len(f.Hidden) != L-1 {
		f.Hidden = make([]*tensor.Matrix, L-1)
	}
	f.X = x
	a := x
	for l := 0; l < L; l++ {
		bias, hidden := n.Biases[l], l < L-1
		out := &f.Logits
		if hidden {
			out = &f.Hidden[l]
		}
		rows, width := x.Rows, n.Topo.Sizes[l+1]
		if *out == nil || cap((*out).Data) < rows*width {
			*out = tensor.NewMatrix(rows, width)
		}
		z := *out
		z.Rows, z.Cols, z.Stride, z.Data = rows, width, width, z.Data[:rows*width]
		// z = a·Wᵀ + 1·bᵀ, then the sigmoid on a hidden layer. The GEMM
		// (beta 0) overwrites whatever z held, and its workers each
		// finish the columns they computed.
		blas.GemmEpilogue(blas.NoTrans, blas.Trans, 1, a, n.Weights[l], 0, z, func(cols *tensor.Matrix, j0 int) {
			addBiasRows(cols, bias[j0:j0+cols.Cols])
			if hidden {
				sigmoidInPlace(cols)
			}
		})
		a = z
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

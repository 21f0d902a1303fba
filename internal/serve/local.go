package serve

import (
	"repro/internal/nn"
	"repro/internal/tensor"
)

// localScorer runs batches through the network in-process over
// preallocated buffers: one maxBatch-row input matrix and one
// nn.InferBuffers per scoring worker, so the steady-state score path
// performs zero allocations (TestZeroAllocScore holds it to that). The
// buffers also hold the worker's own copy of every layer's Wᵀ packed
// into GEMM panels, made on the first batch, so a score multiplies by
// the packed weights instead of re-packing the model.
type localScorer struct {
	net    *nn.Network
	x      *tensor.Matrix // MaxBatch × InputDim staging for the batch rows
	buf    *nn.InferBuffers
	packed bool // buf holds net's packed weights
}

func newLocalScorer(net *nn.Network, maxBatch int) *localScorer {
	return &localScorer{
		net: net,
		x:   tensor.NewMatrix(maxBatch, net.Topo.InputDim()),
		buf: net.Topo.NewInferBuffers(maxBatch),
	}
}

// score stages the batch's Σn rows and runs the shared inference
// forward pass over the packed weights, packing them first on the
// worker's first batch. The returned logits alias the worker's buffers
// and are valid until the next call.
//
//lint:hotpath
func (sc *localScorer) score(batch []*request) *tensor.Matrix {
	if !sc.packed {
		sc.pack()
	}
	return sc.net.ForwardPacked(sc.buf, stage(sc.x, batch))
}

// pack packs the served weights into the worker's panels, once. The
// served weights never change after New (a server has no hot swap), so
// the panels cannot go stale; a server that swapped models would have to
// pack again.
//
//go:noinline
func (sc *localScorer) pack() {
	sc.net.PackInto(sc.buf)
	sc.packed = true
}

// stage copies the batch's requests into x back to back and sets x.Rows
// to their total, which never exceeds x's MaxBatch rows.
//
//lint:hotpath
func stage(x *tensor.Matrix, batch []*request) *tensor.Matrix {
	dst := x.Data
	for _, r := range batch {
		dst = dst[copy(dst, r.rows):]
	}
	x.Rows = (len(x.Data) - len(dst)) / x.Cols
	return x
}

package serve

import (
	"repro/internal/nn"
	"repro/internal/tensor"
)

// localScorer runs batches through the network in-process over
// preallocated buffers: one maxBatch-row input matrix and one
// nn.InferBuffers per scoring worker, so the steady-state score path
// performs zero allocations (TestZeroAllocScore holds it to that).
type localScorer struct {
	net *nn.Network
	x   *tensor.Matrix // MaxBatch × InputDim staging for the batch rows
	buf *nn.InferBuffers
}

func newLocalScorer(net *nn.Network, maxBatch int) *localScorer {
	return &localScorer{
		net: net,
		x:   tensor.NewMatrix(maxBatch, net.Topo.InputDim()),
		buf: net.Topo.NewInferBuffers(maxBatch),
	}
}

// score stages the batch's Σn rows and runs the shared inference
// forward pass. The returned logits alias the worker's buffers and are
// valid until the next call.
//
//lint:hotpath
func (sc *localScorer) score(batch []*request) (*tensor.Matrix, error) {
	return sc.net.ForwardInto(sc.buf, stage(sc.x, batch)), nil
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

// stop implements scorer; the local path has nothing to release.
func (sc *localScorer) stop() error { return nil }

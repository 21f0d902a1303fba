package core

import (
	"math/rand"

	"repro/internal/corpus"
	"repro/internal/nn"
	"repro/internal/seq"
	"repro/internal/tensor"
)

// dataset is a materialized, spliced view of a set of utterances: the DNN
// input matrix, per-frame targets, and per-utterance row ranges (needed by
// the sequence criterion and curvature sampling).
type dataset struct {
	x      *tensor.Matrix
	y      []int
	bounds [][2]int // [start, end) row range of each utterance
}

func newDataset(utts []*corpus.Utterance, featDim, context int) *dataset {
	x, y := corpus.SpliceFrames(utts, featDim, context)
	d := &dataset{x: x, y: y}
	row := 0
	for _, u := range utts {
		d.bounds = append(d.bounds, [2]int{row, row + u.NumFrames()})
		row += u.NumFrames()
	}
	return d
}

func (d *dataset) frames() int { return d.x.Rows }

// engine performs the per-shard computation shared verbatim by the serial
// objective and the distributed workers: gradients, Gauss-Newton products
// over the current curvature sample, and held-out losses. All results are
// sums over local frames; normalization happens after (possibly
// distributed) aggregation.
type engine struct {
	net         *nn.Network
	train       *dataset
	heldout     *dataset
	criterion   Criterion
	trans       seq.Transitions
	batchFrames int
	sampleFrac  float64
	seed        int64

	sample       [][2]int // row ranges of the current curvature sample
	sampleFrames int

	// fwd is the forward state the held-out passes and the sequence
	// criterion reuse batch after batch (nn.Network.ForwardTo).
	fwd nn.Forward
}

func newEngine(p Problem, trainUtts, heldUtts []*corpus.Utterance) *engine {
	p = p.filled()
	e := &engine{
		net:         nn.New(p.Topo),
		train:       newDataset(trainUtts, p.Train.FeatDim, p.Train.Context),
		heldout:     newDataset(heldUtts, p.Heldout.FeatDim, p.Heldout.Context),
		criterion:   p.Criterion,
		trans:       p.Trans,
		batchFrames: p.BatchFrames,
		sampleFrac:  p.SampleFraction,
		seed:        p.Seed,
	}
	// Until the first draw, the curvature sample is the full shard.
	e.sample = e.train.bounds
	e.sampleFrames = e.train.frames()
	return e
}

func (e *engine) setParams(p tensor.Vector) { e.net.SetParams(p) }

// gradient accumulates the summed-loss gradient over the local training
// shard into grad and returns the summed loss and frame count.
func (e *engine) gradient(grad tensor.Vector) (loss float64, frames int) {
	switch e.criterion {
	case CrossEntropy:
		for lo := 0; lo < e.train.frames(); lo += e.batchFrames {
			hi := min(lo+e.batchFrames, e.train.frames())
			l, _ := e.net.LossGrad(e.train.x.View(lo, 0, hi-lo, e.train.x.Cols), e.train.y[lo:hi], grad)
			loss += l
		}
	case Sequence:
		for _, b := range e.train.bounds {
			loss += e.seqLossGrad(e.train, b, grad)
		}
	}
	return loss, e.train.frames()
}

// seqLossGrad runs the sequence criterion over one utterance and
// backpropagates its logit gradient; returns the utterance loss.
func (e *engine) seqLossGrad(d *dataset, b [2]int, grad tensor.Vector) float64 {
	rows := b[1] - b[0]
	x := d.x.View(b[0], 0, rows, d.x.Cols)
	f := e.net.ForwardTo(&e.fwd, x)
	dlogits := tensor.NewMatrix(rows, f.Logits.Cols)
	loss := seq.LossGrad(f.Logits, d.y[b[0]:b[1]], e.trans, dlogits)
	if grad != nil {
		e.net.BackpropOutputGrad(f, dlogits, grad)
	}
	return loss
}

// drawSample selects the curvature sample for HF iteration iter: a
// fraction of the local utterances, deterministic in (seed, iter) so
// every run with the same configuration sees the same sample.
func (e *engine) drawSample(iter int) {
	if e.sampleFrac >= 1 {
		e.sample = e.train.bounds
		e.sampleFrames = e.train.frames()
		return
	}
	rng := rand.New(rand.NewSource(e.seed*1000003 + int64(iter)))
	n := len(e.train.bounds)
	// At least one utterance, and none past the shard: a worker with an
	// empty shard draws an empty sample.
	k := min(max(int(float64(n)*e.sampleFrac+0.5), 1), n)
	perm := rng.Perm(n)
	e.sample = e.sample[:0]
	e.sampleFrames = 0
	for _, idx := range perm[:k] {
		b := e.train.bounds[idx]
		e.sample = append(e.sample, b)
		e.sampleFrames += b[1] - b[0]
	}
}

// gnProduct accumulates the summed Gauss-Newton product over the current
// curvature sample into out and returns the sample frame count. The
// curvature is always the frame-level Gauss-Newton matrix, also under the
// sequence criterion (the standard practice in HF sequence training).
func (e *engine) gnProduct(v, out tensor.Vector) (frames int) {
	for _, b := range e.sample {
		for lo := b[0]; lo < b[1]; lo += e.batchFrames {
			hi := min(lo+e.batchFrames, b[1])
			e.net.GNProduct(e.train.x.View(lo, 0, hi-lo, e.train.x.Cols), v, out)
		}
	}
	return e.sampleFrames
}

// heldLossAt evaluates the summed held-out loss at parameters p, restoring
// the engine's current parameters afterwards.
func (e *engine) heldLossAt(p tensor.Vector) (loss float64, frames int) {
	saved := e.net.Params.Clone()
	e.net.SetParams(p)
	loss, frames = e.heldLoss()
	e.net.SetParams(saved)
	return loss, frames
}

// heldLoss evaluates the summed held-out loss at the current parameters.
func (e *engine) heldLoss() (loss float64, frames int) {
	switch e.criterion {
	case CrossEntropy:
		for lo := 0; lo < e.heldout.frames(); lo += e.batchFrames {
			hi := min(lo+e.batchFrames, e.heldout.frames())
			f := e.net.ForwardTo(&e.fwd, e.heldout.x.View(lo, 0, hi-lo, e.heldout.x.Cols))
			l, _ := nn.CrossEntropy(f.Logits, e.heldout.y[lo:hi])
			loss += l
		}
	case Sequence:
		for _, b := range e.heldout.bounds {
			loss += e.seqLoss(e.heldout, b)
		}
	}
	return loss, e.heldout.frames()
}

// seqLoss computes the sequence loss of one utterance without gradients.
func (e *engine) seqLoss(d *dataset, b [2]int) float64 {
	rows := b[1] - b[0]
	x := d.x.View(b[0], 0, rows, d.x.Cols)
	f := e.net.ForwardTo(&e.fwd, x)
	dlogits := tensor.NewMatrix(rows, f.Logits.Cols)
	return seq.LossGrad(f.Logits, d.y[b[0]:b[1]], e.trans, dlogits)
}

// fisherDiag accumulates the empirical-Fisher diagonal over the current
// curvature sample into out and returns the sample frame count; it backs
// the Martens CG preconditioner (the paper's deferred extension).
func (e *engine) fisherDiag(out tensor.Vector) (frames int) {
	for _, b := range e.sample {
		for lo := b[0]; lo < b[1]; lo += e.batchFrames {
			hi := min(lo+e.batchFrames, b[1])
			e.net.FisherDiag(e.train.x.View(lo, 0, hi-lo, e.train.x.Cols), e.train.y[lo:hi], out)
		}
	}
	return e.sampleFrames
}

// heldAccuracy returns frame classification accuracy on the held-out
// shard as (correct, frames).
func (e *engine) heldAccuracy() (correct, frames int) {
	for lo := 0; lo < e.heldout.frames(); lo += e.batchFrames {
		hi := min(lo+e.batchFrames, e.heldout.frames())
		f := e.net.ForwardTo(&e.fwd, e.heldout.x.View(lo, 0, hi-lo, e.heldout.x.Cols))
		_, c := nn.CrossEntropy(f.Logits, e.heldout.y[lo:hi])
		correct += c
	}
	return correct, e.heldout.frames()
}

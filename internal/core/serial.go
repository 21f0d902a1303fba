package core

import (
	"math"

	"repro/internal/hf"
	"repro/internal/tensor"
)

// SerialObjective implements hf.Objective with all computation in one
// process — the single-machine reference the distributed trainer must
// match exactly.
type SerialObjective struct {
	eng *engine
	// totalTrainFrames normalizes summed losses/gradients to per-frame
	// means.
	totalTrainFrames int
}

// NewSerialObjective builds the serial objective; network weights are
// Glorot-initialized from p.Seed.
func NewSerialObjective(p Problem) (*SerialObjective, error) {
	p = p.filled()
	if err := p.validate(); err != nil {
		return nil, err
	}
	eng := newEngine(p, p.Train.Utts, p.Heldout.Utts)
	p.initParams(eng.net)
	return &SerialObjective{eng: eng, totalTrainFrames: eng.train.frames()}, nil
}

// Dim implements hf.Objective.
func (o *SerialObjective) Dim() int { return o.eng.net.NumParams() }

// Params implements hf.Objective.
func (o *SerialObjective) Params() tensor.Vector { return o.eng.net.Params.Clone() }

// SetParams implements hf.Objective.
func (o *SerialObjective) SetParams(p tensor.Vector) { o.eng.setParams(p) }

// Gradient implements hf.Objective: the mean per-frame gradient over the
// full training set.
func (o *SerialObjective) Gradient() tensor.Vector {
	grad := tensor.NewVector(o.Dim())
	o.eng.gradient(grad)
	if o.totalTrainFrames > 0 {
		grad.Scale(1 / float32(o.totalTrainFrames))
	}
	return grad
}

// NewCurvatureSample implements hf.Objective.
func (o *SerialObjective) NewCurvatureSample(iter int) { o.eng.drawSample(iter) }

// GNProduct implements hf.Objective: mean Gauss-Newton product over the
// current curvature sample.
func (o *SerialObjective) GNProduct(v, out tensor.Vector) {
	out.Zero()
	frames := o.eng.gnProduct(v, out)
	if frames > 0 {
		out.Scale(1 / float32(frames))
	}
}

// HeldOutLoss implements hf.Objective: mean per-frame held-out loss at p.
func (o *SerialObjective) HeldOutLoss(p tensor.Vector) float64 {
	loss, frames := o.eng.heldLossAt(p)
	if frames <= 0 {
		return 0
	}
	return loss / float64(frames)
}

// CurvatureDiag implements hf.Preconditioned: the Martens diagonal
// preconditioner (diag(F)/N + λ)^α with α = 0.75 over the current
// curvature sample.
func (o *SerialObjective) CurvatureDiag(lambda float64) tensor.Vector {
	diag := tensor.NewVector(o.Dim())
	frames := o.eng.fisherDiag(diag)
	return finishPreconditioner(diag, frames, lambda)
}

// finishPreconditioner normalizes a summed Fisher diagonal, adds the
// damping, applies the Martens exponent and clamps away from zero.
func finishPreconditioner(diag tensor.Vector, frames int, lambda float64) tensor.Vector {
	const alpha = 0.75
	if frames < 1 {
		frames = 1
	}
	inv := 1.0 / float64(frames)
	for i, v := range diag {
		m := math.Pow(float64(v)*inv+lambda, alpha)
		if m < 1e-8 {
			m = 1e-8
		}
		diag[i] = float32(m)
	}
	return diag
}

// HeldOutAccuracy reports frame accuracy on the held-out set at the
// current parameters.
func (o *SerialObjective) HeldOutAccuracy() float64 {
	correct, frames := o.eng.heldAccuracy()
	if frames == 0 {
		return 0
	}
	return float64(correct) / float64(frames)
}

// TrainSerialHF trains with Hessian-free optimization in one process and
// returns the objective (holding the trained network) and the optimizer
// result.
func TrainSerialHF(p Problem, cfg hf.Config) (*SerialObjective, *hf.Result, error) {
	obj, err := NewSerialObjective(p)
	if err != nil {
		return nil, nil, err
	}
	res := hf.Optimize(obj, cfg)
	return obj, &res, nil
}

package core

import (
	"fmt"
	"math/rand"

	"repro/internal/tensor"
)

// SGDConfig parameterizes the serial stochastic-gradient-descent baseline
// — the "most popular methodology" the paper compares second-order
// training against (§II-A).
type SGDConfig struct {
	// LearningRate is the initial step size. Default 0.1.
	LearningRate float64
	// Momentum is the classical momentum coefficient. Default 0.9.
	Momentum float64
	// BatchFrames is the minibatch size in frames (the paper cites
	// 100-1000 for speech). Default 256.
	BatchFrames int
	// Epochs is the number of passes over the training data. Zero means
	// the default of 5; TrainSGD refuses a negative count.
	Epochs int
	// LrDecay multiplies the learning rate after each epoch. Default 0.9.
	LrDecay float64
	// Seed shuffles minibatch order. Weight init comes from Problem.Seed.
	Seed int64
}

func (c SGDConfig) filled() SGDConfig {
	if c.LearningRate <= 0 {
		c.LearningRate = 0.1
	}
	if c.Momentum < 0 || c.Momentum >= 1 {
		c.Momentum = 0.9
	}
	if c.BatchFrames <= 0 {
		c.BatchFrames = 256
	}
	if c.Epochs == 0 {
		c.Epochs = 5
	}
	if c.LrDecay <= 0 || c.LrDecay > 1 {
		c.LrDecay = 0.9
	}
	return c
}

// SGDEpochStats records one SGD epoch.
type SGDEpochStats struct {
	Epoch        int
	TrainLoss    float64 // mean per-frame training loss over the epoch
	HeldOutLoss  float64 // mean per-frame held-out loss after the epoch
	LearningRate float64
}

// SGDResult is the outcome of a TrainSGD run.
type SGDResult struct {
	Epochs          []SGDEpochStats
	FinalLoss       float64
	HeldOutAccuracy float64
}

// TrainSGD trains the network with serial minibatch SGD. For the
// cross-entropy criterion, minibatches are shuffled frame blocks; for the
// sequence criterion the unit is the utterance. Returns the trained
// objective (for held-out evaluation) and per-epoch statistics.
func TrainSGD(p Problem, cfg SGDConfig) (*SerialObjective, *SGDResult, error) {
	if cfg.Epochs < 0 {
		return nil, nil, fmt.Errorf("core: SGDConfig.Epochs %d, want ≥ 0 (0 means the default of 5)", cfg.Epochs)
	}
	cfg = cfg.filled()
	obj, err := NewSerialObjective(p)
	if err != nil {
		return nil, nil, err
	}
	eng := obj.eng
	rng := rand.New(rand.NewSource(cfg.Seed))
	dim := eng.net.NumParams()
	vel := tensor.NewVector(dim)
	grad := tensor.NewVector(dim)
	lr := cfg.LearningRate
	res := &SGDResult{}

	// Minibatch units: frame blocks for CE, utterances for sequence.
	var units [][2]int
	if p.Criterion == Sequence {
		units = eng.train.bounds
	} else {
		for lo := 0; lo < eng.train.frames(); lo += cfg.BatchFrames {
			hi := min(lo+cfg.BatchFrames, eng.train.frames())
			units = append(units, [2]int{lo, hi})
		}
	}

	for epoch := 1; epoch <= cfg.Epochs; epoch++ {
		order := rng.Perm(len(units))
		var epochLoss float64
		var epochFrames int
		for _, ui := range order {
			b := units[ui]
			rows := b[1] - b[0]
			grad.Zero()
			var loss float64
			if p.Criterion == Sequence {
				loss = eng.seqLossGrad(eng.train, b, grad)
			} else {
				x := eng.train.x.View(b[0], 0, rows, eng.train.x.Cols)
				loss, _ = eng.net.LossGrad(x, eng.train.y[b[0]:b[1]], grad)
			}
			epochLoss += loss
			epochFrames += rows
			// v ← μv − (lr/batch)·g ; θ ← θ + v
			//lint:ignore divguard batch units are built non-empty, so rows ≥ 1
			scale := float32(lr / float64(rows))
			for i := range vel {
				vel[i] = float32(cfg.Momentum)*vel[i] - scale*grad[i]
			}
			eng.net.Params.AddScaled(1, vel)
		}
		held, hframes := eng.heldLoss()
		trainLoss, heldLoss := 0.0, 0.0
		if epochFrames > 0 {
			trainLoss = epochLoss / float64(epochFrames)
		}
		if hframes > 0 {
			heldLoss = held / float64(hframes)
		}
		stats := SGDEpochStats{
			Epoch:        epoch,
			TrainLoss:    trainLoss,
			HeldOutLoss:  heldLoss,
			LearningRate: lr,
		}
		res.Epochs = append(res.Epochs, stats)
		res.FinalLoss = stats.HeldOutLoss
		lr *= cfg.LrDecay
	}
	res.HeldOutAccuracy = obj.HeldOutAccuracy()
	return obj, res, nil
}

// Package core is the paper's primary contribution: data-parallel
// Hessian-free DNN training in a master/worker architecture over message
// passing (§IV).
//
// One master rank runs the Hessian-free optimizer (internal/hf) and
// coordinates workers; worker ranks hold disjoint shards of the training,
// curvature-sample and held-out data and compute gradients, Gauss-Newton
// products and losses data-parallel. All communication uses internal/mpi:
// weight and direction synchronization via broadcast, result combination
// via reduction, and initial data distribution via point-to-point sends —
// the same phase structure (load_data, sync_weights, gradient_loss,
// worker_curvature_product) whose costs the paper's Figures 2-5 break
// down.
//
// The same compute engine backs a serial objective, so the distributed
// and serial optimizers run literally the same algorithm — the basis for
// the paper's "no loss in accuracy" claim, verified by integration tests.
package core

import (
	"fmt"
	"math/rand"

	"repro/internal/corpus"
	"repro/internal/nn"
	"repro/internal/seq"
	"repro/internal/tensor"
)

// Criterion selects the training objective, the two rows of the paper's
// Table I.
type Criterion int

const (
	// CrossEntropy is frame-level softmax cross-entropy.
	CrossEntropy Criterion = iota
	// Sequence is the utterance-level sequence-discriminative criterion
	// (internal/seq), the stand-in for the paper's lattice-based
	// sequence training.
	Sequence
)

// String returns the criterion name used in reports.
func (c Criterion) String() string {
	switch c {
	case CrossEntropy:
		return "cross-entropy"
	case Sequence:
		return "sequence"
	default:
		return fmt.Sprintf("criterion(%d)", int(c))
	}
}

// Problem bundles everything that defines a training run.
type Problem struct {
	// Topo is the DNN topology; input must equal Train.InputDim() and
	// output Train.NumStates.
	Topo nn.Topology
	// Train and Heldout are the training and held-out utterance sets.
	Train   *corpus.Corpus
	Heldout *corpus.Corpus
	// Criterion selects cross-entropy or sequence training.
	Criterion Criterion
	// Trans is the transition model for the sequence criterion; zero value
	// means estimate from the training data.
	Trans seq.Transitions
	// SampleFraction is the share of training utterances drawn for each
	// curvature sample (the paper uses 1-3%). 1.0 uses all data, which
	// makes distributed and serial runs comparable exactly. Default 0.03.
	SampleFraction float64
	// BatchFrames is the compute chunk size in frames. Default 256.
	BatchFrames int
	// Seed drives weight initialization and curvature sampling.
	Seed int64
	// InitParams, when non-nil, initializes the network from this
	// parameter vector instead of a Glorot draw — e.g. sequence training
	// warm-started from a cross-entropy model, the standard practice.
	InitParams tensor.Vector
}

// InitRNG returns the problem's explicit random source for parameter
// initialization, derived from Seed in exactly one place. Every
// seed-dependent draw in the trainer flows from an explicit *rand.Rand
// like this one (the rngsource analyzer bans the global math/rand
// source in compute packages) — the precondition for ReplayVerify's
// "same config ⇒ same bits" contract.
func (p Problem) InitRNG() *rand.Rand {
	return rand.New(rand.NewSource(p.Seed))
}

// initParams gives net its starting weights: InitParams when set, else
// a Glorot draw from InitRNG.
func (p Problem) initParams(net *nn.Network) {
	if p.InitParams != nil {
		net.SetParams(p.InitParams)
	} else {
		net.InitGlorot(p.InitRNG())
	}
}

func (p Problem) filled() Problem {
	if p.SampleFraction <= 0 {
		p.SampleFraction = 0.03
	}
	if p.BatchFrames <= 0 {
		p.BatchFrames = 256
	}
	if p.Criterion == Sequence && p.Trans.NumStates == 0 {
		p.Trans = seq.Estimate(p.Train.Utts, p.Train.NumStates)
	}
	return p
}

func (p Problem) validate() error {
	if p.Train == nil || p.Heldout == nil {
		return fmt.Errorf("core: Problem needs Train and Heldout corpora")
	}
	if p.Topo.InputDim() != p.Train.InputDim() {
		return fmt.Errorf("core: topology input %d != corpus input %d", p.Topo.InputDim(), p.Train.InputDim())
	}
	if p.Topo.OutputDim() != p.Train.NumStates {
		return fmt.Errorf("core: topology output %d != corpus states %d", p.Topo.OutputDim(), p.Train.NumStates)
	}
	if p.InitParams != nil && len(p.InitParams) != p.Topo.NumParams() {
		return fmt.Errorf("core: InitParams has %d elements, topology needs %d", len(p.InitParams), p.Topo.NumParams())
	}
	return nil
}

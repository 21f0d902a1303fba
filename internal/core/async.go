package core

import (
	"fmt"
	"math/rand"

	"repro/internal/corpus"
	"repro/internal/mpi"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// Asynchronous parameter-server SGD, the Dean et al. (NIPS 2012)
// "downpour" style of distributed training the paper's related work
// (§II-A) contrasts with synchronous second-order methods. The master is
// a parameter server applying gradient pushes as they arrive; workers
// compute minibatch gradients on stale parameters and refresh
// periodically. Unlike the bulk-synchronous HF trainer there are no
// collectives and no barriers — and, unlike HF, results depend on message
// arrival order, so runs are not bit-reproducible.

// AsyncSGDConfig parameterizes asynchronous parameter-server training.
type AsyncSGDConfig struct {
	// LearningRate is the server-side step size. Default 0.1.
	LearningRate float64
	// BatchFrames is the worker minibatch size. Default 256.
	BatchFrames int
	// Epochs is the number of passes each worker makes over its shard.
	// Default 3.
	Epochs int
	// FetchEvery is how many minibatch pushes a worker performs between
	// parameter pulls — the staleness knob. Default 4.
	FetchEvery int
	// Seed shuffles worker minibatch order.
	Seed int64
}

func (c AsyncSGDConfig) filled() AsyncSGDConfig {
	if c.LearningRate <= 0 {
		c.LearningRate = 0.1
	}
	if c.BatchFrames <= 0 {
		c.BatchFrames = 256
	}
	if c.Epochs <= 0 {
		c.Epochs = 3
	}
	if c.FetchEvery <= 0 {
		c.FetchEvery = 4
	}
	return c
}

// AsyncResult reports an asynchronous training run.
type AsyncResult struct {
	Params          tensor.Vector
	Updates         int64   // gradient pushes applied by the server
	TrainLoss       float64 // mean per-frame training loss seen by workers
	HeldOutLoss     float64 // final held-out loss (evaluated by workers)
	HeldOutAccuracy float64
}

// RunAsyncMaster runs the parameter server on rank 0: it ships data
// shards, then serves pulls and applies pushes until every worker
// reports done, and finally has the workers evaluate the converged
// parameters on their held-out shards.
func RunAsyncMaster(comm *mpi.Comm, p Problem, cfg AsyncSGDConfig, part corpus.Partitioner) (*AsyncResult, error) {
	if comm.Rank() != 0 {
		return nil, fmt.Errorf("core: RunAsyncMaster called on rank %d", comm.Rank())
	}
	if comm.Size() < 2 {
		return nil, fmt.Errorf("core: async training needs ≥2 ranks, have %d", comm.Size())
	}
	p = p.filled()
	if err := p.validate(); err != nil {
		return nil, err
	}
	if part == nil {
		part = corpus.SortedGreedy{}
	}
	cfg = cfg.filled()
	if _, err := shipShards(comm, p, part); err != nil {
		return nil, err
	}

	net := nn.New(p.Topo)
	p.initParams(net)
	theta := net.Params
	grad := make(tensor.Vector, len(theta))

	workers := comm.Size() - 1
	done := 0
	res := &AsyncResult{}
	var trainLossSum, trainFrames float64
	comm.SetPhase("param_server")
	for done < workers {
		msg, err := comm.RecvBytes(mpi.AnySource, mpi.AnyTag)
		if err != nil {
			return nil, fmt.Errorf("core: parameter server: %w", err)
		}
		switch msg.Tag {
		case mpi.TagAsyncGrad:
			if err := decodeInto(msg.Data, grad); err != nil {
				return nil, err
			}
			// The worker pre-scales by lr/batch; the server just applies.
			theta.AddScaled(-1, grad)
			res.Updates++
		case mpi.TagAsyncPull:
			if err := comm.SendF32(msg.Src, mpi.TagAsyncParam, theta); err != nil {
				return nil, err
			}
		case mpi.TagAsyncDone:
			var stats [2]float64
			if err := decodeF64Pair(msg.Data, &stats); err != nil {
				return nil, err
			}
			trainLossSum += stats[0]
			trainFrames += stats[1]
			done++
		default:
			return nil, fmt.Errorf("core: parameter server: unexpected tag %d", msg.Tag)
		}
	}
	if trainFrames > 0 {
		res.TrainLoss = trainLossSum / trainFrames
	}

	// Final evaluation round: ship θ, collect held-out stats.
	comm.SetPhase("loss_eval")
	var loss, frames, correct float64
	for w := 1; w <= workers; w++ {
		if err := comm.SendF32(w, mpi.TagAsyncFinal, theta); err != nil {
			return nil, err
		}
	}
	for w := 1; w <= workers; w++ {
		msg, err := comm.RecvBytes(mpi.AnySource, mpi.TagAsyncEval)
		if err != nil {
			return nil, err
		}
		var stats [3]float64
		if err := decodeF64Triple(msg.Data, &stats); err != nil {
			return nil, err
		}
		loss += stats[0]
		frames += stats[1]
		correct += stats[2]
	}
	if frames > 0 {
		res.HeldOutLoss = loss / frames
		res.HeldOutAccuracy = correct / frames
	}
	res.Params = theta.Clone()
	return res, nil
}

// RunAsyncWorker runs the downpour worker loop on a non-zero rank:
// receive the shard, then repeatedly pull parameters, compute minibatch
// gradients, and push them without waiting for the server to apply them
// (nonblocking sends give computation/communication overlap).
func RunAsyncWorker(comm *mpi.Comm, cfg AsyncSGDConfig) error {
	if comm.Rank() == 0 {
		return fmt.Errorf("core: RunAsyncWorker called on rank 0")
	}
	cfg = cfg.filled()
	eng, _, err := recvShard(comm)
	if err != nil {
		return err
	}
	dim := eng.net.NumParams()
	rng := rand.New(rand.NewSource(cfg.Seed + int64(comm.Rank())))

	pull := func() error {
		if err := comm.SendBytes(0, mpi.TagAsyncPull, nil); err != nil {
			return err
		}
		buf := make(tensor.Vector, dim)
		if _, err := comm.RecvF32(0, mpi.TagAsyncParam, buf); err != nil {
			return err
		}
		eng.setParams(buf)
		return nil
	}
	comm.SetPhase("train")
	if err := pull(); err != nil {
		return err
	}

	// Minibatch units over the local shard.
	var units [][2]int
	if eng.criterion == Sequence {
		units = eng.train.bounds
	} else {
		for lo := 0; lo < eng.train.frames(); lo += cfg.BatchFrames {
			hi := min(lo+cfg.BatchFrames, eng.train.frames())
			units = append(units, [2]int{lo, hi})
		}
	}

	grad := tensor.NewVector(dim)
	var lossSum float64
	var frames int
	steps := 0
	var pending *mpi.Request
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		for _, ui := range rng.Perm(len(units)) {
			b := units[ui]
			rows := b[1] - b[0]
			grad.Zero()
			var loss float64
			if eng.criterion == Sequence {
				loss = eng.seqLossGrad(eng.train, b, grad)
			} else {
				x := eng.train.x.View(b[0], 0, rows, eng.train.x.Cols)
				loss, _ = eng.net.LossGrad(x, eng.train.y[b[0]:b[1]], grad)
			}
			lossSum += loss
			frames += rows
			// Pre-scale by lr/batch and push without blocking on the
			// server; also apply locally so progress continues on stale
			// parameters between pulls.
			//lint:ignore divguard batch units are built non-empty, so rows ≥ 1
			grad.Scale(float32(cfg.LearningRate / float64(rows)))
			eng.net.Params.AddScaled(-1, grad)
			if pending != nil {
				if err := pending.Wait(); err != nil {
					return err
				}
			}
			pending = comm.Isend(0, mpi.TagAsyncGrad, encodeVec(grad))
			steps++
			if steps%cfg.FetchEvery == 0 {
				if err := pull(); err != nil {
					return err
				}
			}
		}
	}
	if pending != nil {
		if err := pending.Wait(); err != nil {
			return err
		}
	}
	if err := comm.SendBytes(0, mpi.TagAsyncDone, encodeF64Pair(lossSum, float64(frames))); err != nil {
		return err
	}

	// Final evaluation on the server's converged parameters.
	comm.SetPhase("loss_eval")
	buf := make(tensor.Vector, dim)
	if _, err := comm.RecvF32(0, mpi.TagAsyncFinal, buf); err != nil {
		return err
	}
	eng.setParams(buf)
	loss, hframes := eng.heldLoss()
	correct, _ := eng.heldAccuracy()
	return comm.SendBytes(0, mpi.TagAsyncEval, encodeF64Triple(loss, float64(hframes), float64(correct)))
}

// TrainAsyncSGD runs the parameter server plus workers as goroutines over
// an in-process fabric (ranks includes the server).
func TrainAsyncSGD(p Problem, cfg AsyncSGDConfig, ranks int, part corpus.Partitioner) (*AsyncResult, error) {
	if ranks < 2 {
		return nil, fmt.Errorf("core: need ≥2 ranks, got %d", ranks)
	}
	fabric := mpi.NewInprocFabric(ranks)
	defer fabric.Close()
	workerErrs := make(chan error, ranks-1)
	for r := 1; r < ranks; r++ {
		go func(r int) {
			workerErrs <- RunAsyncWorker(mpi.NewComm(fabric.Transport(r)), cfg)
		}(r)
	}
	res, err := RunAsyncMaster(mpi.NewComm(fabric.Transport(0)), p, cfg, part)
	if err != nil {
		fabric.Close()
	}
	for r := 1; r < ranks; r++ {
		if werr := <-workerErrs; werr != nil && err == nil {
			err = werr
		}
	}
	if err != nil {
		return nil, err
	}
	return res, nil
}

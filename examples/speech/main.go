// Speech: the paper's workload end to end — distributed Hessian-free
// training of a DNN acoustic model over a master/worker MPI job (run
// in-process), for both training criteria of Table I, compared against
// the serial SGD baseline of §II-A.
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/hf"
	"repro/internal/nn"
	"repro/internal/seq"
)

func main() {
	c := corpus.Generate(corpus.Config{
		Seed:          3,
		NumUtterances: 160,
		MeanSeconds:   0.6,
		FeatDim:       20,
		Context:       3, // 7-frame splice
		NumStates:     10,
	})
	train, heldout := c.Split(8)
	fmt.Printf("synthetic corpus: %d train utterances (%d frames), %d held-out (%d frames)\n\n",
		len(train.Utts), train.TotalFrames(), len(heldout.Utts), heldout.TotalFrames())

	// Sequence training warm-starts from the cross-entropy model, as in
	// practice (and as the paper's pipeline does).
	var ceParams []float32
	for _, crit := range []core.Criterion{core.CrossEntropy, core.Sequence} {
		prob := core.Problem{
			Topo:           nn.NewTopology(c.InputDim(), 48, 48, c.NumStates),
			Train:          train,
			Heldout:        heldout,
			Criterion:      crit,
			SampleFraction: 0.2,
			Seed:           9,
		}
		if crit == core.Sequence {
			prob.InitParams = ceParams
		}

		// Distributed HF: 1 master + 3 workers over in-process MPI, with
		// the paper's sorted-greedy utterance partitioning.
		start := time.Now()
		sess, err := core.NewSession(prob, core.WithRanks(4), core.WithPartitioner(corpus.SortedGreedy{}))
		if err != nil {
			log.Fatal(err)
		}
		dist, err := sess.Run(hf.Config{MaxIterations: 6})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("[%s] distributed HF (4 ranks): held-out loss %.4f, accuracy %.1f%%  (%.1fs)\n",
			crit, dist.HF.FinalLoss, dist.HeldOutAccuracy*100, time.Since(start).Seconds())
		if crit == core.CrossEntropy {
			ceParams = dist.Params
		}

		// SGD baseline (serial, minibatch + momentum).
		start = time.Now()
		sgdObj, sgd, err := core.TrainSGD(prob, core.SGDConfig{Epochs: 6, Seed: 9})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("[%s] serial SGD baseline:    held-out loss %.4f, accuracy %.1f%%  (%.1fs)\n",
			crit, sgd.FinalLoss, sgdObj.HeldOutAccuracy()*100, time.Since(start).Seconds())

		// Decode the held-out set with Viterbi over the HF model: the
		// state-error-rate stand-in for the paper's WER metric.
		net := nn.New(prob.Topo)
		net.SetParams(dist.Params)
		trans := seq.Estimate(train.Utts, c.NumStates)
		var decoded, ref []int
		for _, u := range heldout.Utts {
			x, _ := corpus.SpliceFrames([]*corpus.Utterance{u}, c.FeatDim, c.Context)
			decoded = append(decoded, seq.Viterbi(net.Forward(x).Logits, trans)...)
			ref = append(ref, u.States...)
		}
		fmt.Printf("[%s] Viterbi decode of HF model: state error rate %.1f%%\n\n",
			crit, 100*seq.StateErrorRate(decoded, ref))
	}
}

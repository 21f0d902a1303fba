package core

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/hf"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// testProblem builds a small, fast, learnable problem.
func testProblem(t *testing.T, criterion Criterion) Problem {
	t.Helper()
	c := corpus.Generate(corpus.Config{
		Seed:          11,
		NumUtterances: 30,
		MeanSeconds:   0.3,
		FeatDim:       8,
		Context:       1,
		NumStates:     6,
		NoiseStd:      0.35,
	})
	train, held := c.Split(5)
	return Problem{
		Topo:           nn.NewTopology(c.InputDim(), 16, 6),
		Train:          train,
		Heldout:        held,
		Criterion:      criterion,
		SampleFraction: 1.0, // full-data curvature: serial ≡ distributed
		Seed:           7,
	}
}

func fastHF() hf.Config {
	return hf.Config{
		MaxIterations: 5,
		Lambda0:       1,
		CG:            hf.CGOpts{MaxIters: 20, MinIters: 3},
	}
}

// trainDist is the tests' shorthand for a spawn-mode Session run.
func trainDist(p Problem, cfg hf.Config, ranks int, part corpus.Partitioner, opts ...Option) (*MasterResult, error) {
	sess, err := NewSession(p, append([]Option{WithRanks(ranks), WithPartitioner(part)}, opts...)...)
	if err != nil {
		return nil, err
	}
	return sess.Run(cfg)
}

func TestSerialHFReducesCrossEntropyLoss(t *testing.T) {
	p := testProblem(t, CrossEntropy)
	obj, err := NewSerialObjective(p)
	if err != nil {
		t.Fatal(err)
	}
	initial := obj.HeldOutLoss(obj.Params())
	res := hf.Optimize(obj, fastHF())
	if res.FinalLoss >= initial {
		t.Fatalf("loss did not improve: %v → %v", initial, res.FinalLoss)
	}
	// ln(6) ≈ 1.79 is chance level; training should get clearly below it.
	if res.FinalLoss > 0.9*math.Log(6) {
		t.Fatalf("final loss %v too close to chance %v", res.FinalLoss, math.Log(6))
	}
	if acc := obj.HeldOutAccuracy(); acc < 0.4 {
		t.Fatalf("held-out accuracy %.3f, want > 0.4 (chance 0.167)", acc)
	}
}

func TestSerialHFSequenceCriterion(t *testing.T) {
	p := testProblem(t, Sequence)
	obj, err := NewSerialObjective(p)
	if err != nil {
		t.Fatal(err)
	}
	initial := obj.HeldOutLoss(obj.Params())
	res := hf.Optimize(obj, fastHF())
	if res.FinalLoss >= initial {
		t.Fatalf("sequence loss did not improve: %v → %v", initial, res.FinalLoss)
	}
}

// The paper's central accuracy claim: data-parallel HF matches serial HF.
// With a full-data curvature sample the two runs execute the same
// algorithm, differing only in floating-point reduction order, so their
// loss trajectories must agree closely.
func TestDistributedMatchesSerialCrossEntropy(t *testing.T) {
	p := testProblem(t, CrossEntropy)
	cfg := fastHF()
	serialObj, serialRes, err := TrainSerialHF(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, ranks := range []int{2, 3, 5} {
		distRes, err := trainDist(p, cfg, ranks, nil)
		if err != nil {
			t.Fatalf("ranks=%d: %v", ranks, err)
		}
		if len(distRes.HF.Iters) != len(serialRes.Iters) {
			t.Fatalf("ranks=%d: %d iterations vs serial %d", ranks, len(distRes.HF.Iters), len(serialRes.Iters))
		}
		for i := range serialRes.Iters {
			s, d := serialRes.Iters[i], distRes.HF.Iters[i]
			if math.Abs(s.Loss-d.Loss) > 2e-3*(1+math.Abs(s.Loss)) {
				t.Fatalf("ranks=%d iter %d: serial loss %v vs distributed %v", ranks, i, s.Loss, d.Loss)
			}
		}
		if math.Abs(distRes.HF.FinalLoss-serialRes.FinalLoss) > 2e-3 {
			t.Fatalf("ranks=%d: final loss %v vs serial %v", ranks, distRes.HF.FinalLoss, serialRes.FinalLoss)
		}
		serialAcc := serialObj.HeldOutAccuracy()
		if math.Abs(distRes.HeldOutAccuracy-serialAcc) > 0.05 {
			t.Fatalf("ranks=%d: accuracy %v vs serial %v", ranks, distRes.HeldOutAccuracy, serialAcc)
		}
	}
}

func TestDistributedMatchesSerialSequence(t *testing.T) {
	p := testProblem(t, Sequence)
	cfg := fastHF()
	cfg.MaxIterations = 3
	_, serialRes, err := TrainSerialHF(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	distRes, err := trainDist(p, cfg, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(distRes.HF.FinalLoss-serialRes.FinalLoss) > 5e-3*(1+math.Abs(serialRes.FinalLoss)) {
		t.Fatalf("sequence: distributed %v vs serial %v", distRes.HF.FinalLoss, serialRes.FinalLoss)
	}
}

func TestDistributedWorkerCountInvariance(t *testing.T) {
	p := testProblem(t, CrossEntropy)
	cfg := fastHF()
	cfg.MaxIterations = 3
	r2, err := trainDist(p, cfg, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	r4, err := trainDist(p, cfg, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r2.HF.FinalLoss-r4.HF.FinalLoss) > 2e-3 {
		t.Fatalf("2-rank %v vs 4-rank %v final loss", r2.HF.FinalLoss, r4.HF.FinalLoss)
	}
}

func TestDistributedWithRoundRobinPartitioner(t *testing.T) {
	p := testProblem(t, CrossEntropy)
	cfg := fastHF()
	cfg.MaxIterations = 2
	res, err := trainDist(p, cfg, 3, corpus.RoundRobin{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.HF.Iters) == 0 {
		t.Fatal("no iterations ran")
	}
}

func TestDistributedSampledCurvatureStillTrains(t *testing.T) {
	p := testProblem(t, CrossEntropy)
	p.SampleFraction = 0.2
	res, err := trainDist(p, fastHF(), 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	first := res.HF.Iters[0].Loss
	if res.HF.FinalLoss > first {
		t.Fatalf("sampled-curvature run regressed: %v → %v", first, res.HF.FinalLoss)
	}
}

func TestSGDReducesLoss(t *testing.T) {
	p := testProblem(t, CrossEntropy)
	obj, res, err := TrainSGD(p, SGDConfig{Epochs: 3, LearningRate: 0.3, BatchFrames: 64, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Epochs) != 3 {
		t.Fatalf("%d epochs", len(res.Epochs))
	}
	if res.Epochs[2].HeldOutLoss >= res.Epochs[0].TrainLoss+0.5 {
		t.Fatalf("SGD diverged: %+v", res.Epochs)
	}
	if res.FinalLoss > math.Log(6) {
		t.Fatalf("SGD final loss %v above chance", res.FinalLoss)
	}
	if obj.HeldOutAccuracy() < 0.3 {
		t.Fatalf("SGD accuracy %v", obj.HeldOutAccuracy())
	}
}

// TestSGDEpochCount: zero epochs means the default of 5, and a negative
// count is refused by name rather than filled.
func TestSGDEpochCount(t *testing.T) {
	p := testProblem(t, CrossEntropy)
	for _, tc := range []struct {
		epochs, want int
		wantErr      string
	}{
		{epochs: 0, want: 5},
		{epochs: -1, wantErr: "SGDConfig.Epochs -1"},
	} {
		_, res, err := TrainSGD(p, SGDConfig{Epochs: tc.epochs, Seed: 1})
		switch {
		case tc.wantErr != "":
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("Epochs %d: err = %v, want it to contain %q", tc.epochs, err, tc.wantErr)
			}
		case err != nil:
			t.Errorf("Epochs %d: %v", tc.epochs, err)
		case len(res.Epochs) != tc.want:
			t.Errorf("Epochs %d ran %d epochs, want %d", tc.epochs, len(res.Epochs), tc.want)
		}
	}
}

func TestSGDSequenceCriterion(t *testing.T) {
	p := testProblem(t, Sequence)
	_, res, err := TrainSGD(p, SGDConfig{Epochs: 2, LearningRate: 0.1, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Epochs[1].HeldOutLoss >= res.Epochs[0].HeldOutLoss+0.1 {
		t.Fatalf("sequence SGD regressed: %+v", res.Epochs)
	}
}

// engine-level checks.

func TestEngineGradientMatchesDirectComputation(t *testing.T) {
	p := testProblem(t, CrossEntropy).filled()
	eng := newEngine(p, p.Train.Utts, p.Heldout.Utts)
	eng.net.InitGlorot(newRand(3))
	grad := tensor.NewVector(eng.net.NumParams())
	loss, frames := eng.gradient(grad)
	if frames != p.Train.TotalFrames() {
		t.Fatalf("frames %d vs corpus %d", frames, p.Train.TotalFrames())
	}
	// Direct: one big LossGrad over the whole spliced set.
	x, y := corpus.SpliceFrames(p.Train.Utts, p.Train.FeatDim, p.Train.Context)
	grad2 := tensor.NewVector(eng.net.NumParams())
	loss2, _ := eng.net.LossGrad(x, y, grad2)
	if math.Abs(loss-loss2) > 1e-4*(1+math.Abs(loss2)) {
		t.Fatalf("chunked loss %v vs direct %v", loss, loss2)
	}
	if !tensor.EqualApproxVec(grad, grad2, 1e-2) {
		t.Fatal("chunked gradient differs from direct gradient")
	}
}

func TestEngineSequenceGradientFiniteDifferences(t *testing.T) {
	p := testProblem(t, Sequence).filled()
	// Tiny shard for FD affordability.
	utts := p.Train.Utts[:2]
	eng := newEngine(p, utts, utts)
	eng.net.InitGlorot(newRand(4))
	grad := tensor.NewVector(eng.net.NumParams())
	eng.gradient(grad)

	lossAt := func() float64 {
		var l float64
		for _, b := range eng.train.bounds {
			l += eng.seqLoss(eng.train, b)
		}
		return l
	}
	const eps = 1e-2
	rng := newRand(5)
	checked := 0
	for trial := 0; trial < 40 && checked < 15; trial++ {
		i := rng.Intn(eng.net.NumParams())
		orig := eng.net.Params[i]
		eng.net.Params[i] = orig + eps
		lp := lossAt()
		eng.net.Params[i] = orig - eps
		lm := lossAt()
		eng.net.Params[i] = orig
		fd := (lp - lm) / (2 * eps)
		if math.Abs(fd) < 1e-3 && math.Abs(float64(grad[i])) < 1e-3 {
			continue
		}
		rel := math.Abs(fd-float64(grad[i])) / (math.Abs(fd) + math.Abs(float64(grad[i])) + 1e-8)
		if rel > 0.1 {
			t.Fatalf("param %d: analytic %v vs FD %v", i, grad[i], fd)
		}
		checked++
	}
	if checked < 5 {
		t.Fatalf("only %d informative FD checks", checked)
	}
}

func TestEngineDrawSample(t *testing.T) {
	p := testProblem(t, CrossEntropy).filled()
	p.SampleFraction = 0.25
	eng := newEngine(p, p.Train.Utts, p.Heldout.Utts)
	eng.drawSample(1)
	want := int(float64(len(eng.train.bounds))*0.25 + 0.5)
	if len(eng.sample) != want {
		t.Fatalf("sample size %d, want %d", len(eng.sample), want)
	}
	frames := 0
	for _, b := range eng.sample {
		frames += b[1] - b[0]
	}
	if frames != eng.sampleFrames {
		t.Fatal("sampleFrames inconsistent")
	}
	// Deterministic per iteration, different across iterations.
	s1 := append([][2]int(nil), eng.sample...)
	eng.drawSample(1)
	for i := range s1 {
		if s1[i] != eng.sample[i] {
			t.Fatal("drawSample not deterministic")
		}
	}
	eng.drawSample(2)
	same := true
	for i := range s1 {
		if i >= len(eng.sample) || s1[i] != eng.sample[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different iterations should draw different samples")
	}
}

func TestEngineHeldLossAtRestoresParams(t *testing.T) {
	p := testProblem(t, CrossEntropy).filled()
	eng := newEngine(p, p.Train.Utts, p.Heldout.Utts)
	eng.net.InitGlorot(newRand(6))
	before := eng.net.Params.Clone()
	trial := before.Clone()
	trial.AddScaled(0.5, tensor.RandVector(newRand(7), len(trial), 1))
	eng.heldLossAt(trial)
	if !tensor.EqualApproxVec(before, eng.net.Params, 0) {
		t.Fatal("heldLossAt must restore parameters")
	}
}

func TestProblemValidation(t *testing.T) {
	p := testProblem(t, CrossEntropy)
	bad := p
	bad.Topo = nn.NewTopology(5, 6) // wrong input dim
	if _, err := NewSerialObjective(bad); err == nil {
		t.Fatal("expected input-dim error")
	}
	bad2 := p
	bad2.Topo = nn.NewTopology(p.Train.InputDim(), 9) // wrong output dim
	if _, err := NewSerialObjective(bad2); err == nil {
		t.Fatal("expected output-dim error")
	}
	bad3 := p
	bad3.Train = nil
	if _, err := NewSerialObjective(bad3); err == nil {
		t.Fatal("expected missing-corpus error")
	}
}

// TestProblemRejectsEmptyCorpus: a Train or Heldout corpus without
// frames is refused by name, serial and distributed, rather than
// trained against with a held-out loss that reads 0.
func TestProblemRejectsEmptyCorpus(t *testing.T) {
	p := testProblem(t, CrossEntropy)
	empty := &corpus.Corpus{FeatDim: p.Train.FeatDim, NumStates: p.Train.NumStates, Context: p.Train.Context}
	noTrain, noHeld := p, p
	noTrain.Train, noHeld.Heldout = empty, empty
	for _, tc := range []struct {
		which string
		p     Problem
	}{{"Train", noTrain}, {"Heldout", noHeld}} {
		_, serialErr := NewSerialObjective(tc.p)
		_, distErr := NewSession(tc.p, WithRanks(3))
		for _, err := range []error{serialErr, distErr} {
			if !errors.Is(err, ErrEmptyCorpus) || !strings.HasSuffix(err.Error(), tc.which) {
				t.Errorf("empty %s: err = %v, want ErrEmptyCorpus naming %s", tc.which, err, tc.which)
			}
		}
	}
}

// TestMoreWorkersThanUtterances: a partition that leaves some workers
// without an utterance is legal; those workers draw an empty curvature
// sample and the run ends, on both fabrics, with the same finite loss.
func TestMoreWorkersThanUtterances(t *testing.T) {
	c := corpus.Generate(corpus.Config{Seed: 11, NumUtterances: 10, MeanSeconds: 0.3, FeatDim: 8, Context: 1, NumStates: 6, NoiseStd: 0.35})
	train, held := c.Split(5)
	p := Problem{
		Topo:           nn.NewTopology(c.InputDim(), 16, 6),
		Train:          train,
		Heldout:        held,
		SampleFraction: 0.03,
		Seed:           7,
	}
	ranks := len(train.Utts) + 4 // 1 master, 3 workers with empty shards
	cfg := fastHF()
	cfg.MaxIterations = 2
	var loss [2]float64
	for i, fabric := range []FabricKind{FabricInproc, FabricTCP} {
		done := make(chan *MasterResult, 1)
		go func() {
			res, err := trainDist(p, cfg, ranks, nil, WithFabric(fabric))
			if err != nil {
				t.Errorf("%s: %v", fabric, err)
			}
			done <- res
		}()
		select {
		case res := <-done:
			if res == nil {
				t.FailNow()
			}
			loss[i] = res.HF.FinalLoss
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: %d ranks over %d utterances still running after 10s", fabric, ranks, len(train.Utts))
		}
		if math.IsNaN(loss[i]) || math.IsInf(loss[i], 0) {
			t.Fatalf("%s: final loss %v", fabric, loss[i])
		}
	}
	if loss[0] != loss[1] {
		t.Errorf("final loss inproc %v, tcp %v: want equal", loss[0], loss[1])
	}
}

// TestDegenerateProblemSweep samples rank counts 2–41 against corpora
// of 1–40 utterances, crossed with the curvature sample fraction, the
// fabric and the fault policy. Every cell must end within a deadline:
// below 10 utterances the 10-way split leaves no held-out utterance and
// NewSession refuses the problem with ErrEmptyCorpus; from 10 up the
// run finishes with a finite loss and accuracy, however many workers
// hold an empty shard. The 40-rank, 20-utterance cell must match
// serial training up to reduction order.
func TestDegenerateProblemSweep(t *testing.T) {
	type cell struct {
		ranks, utts int
		sample      float64
		fabric      FabricKind
		elastic     bool
	}
	cells := []cell{{ranks: 40, utts: 20, sample: 1}}
	for i := range 39 {
		// 13 and 7 are prime to 40, so no rank count and no corpus size
		// repeats.
		c := cell{ranks: 2 + i*13%40, utts: 1 + i*7%40, sample: 0.01, elastic: i/2%2 == 1}
		if i%2 == 1 {
			c.sample = 1
		}
		if i/3%2 == 0 && c.ranks <= 24 {
			c.fabric = FabricTCP
		}
		cells = append(cells, c)
	}
	cfg := hf.Config{MaxIterations: 2, Lambda0: 1, CG: hf.CGOpts{MaxIters: 4, MinIters: 2}}
	problem := func(c cell) Problem {
		full := corpus.Generate(corpus.Config{Seed: 5, NumUtterances: c.utts, MeanSeconds: 0.1, FeatDim: 4, Context: 1, NumStates: 3})
		train, held := full.Split(10)
		return Problem{Topo: nn.NewTopology(full.InputDim(), 6, 3), Train: train, Heldout: held, SampleFraction: c.sample, Seed: 3}
	}
	for _, c := range cells {
		name := fmt.Sprintf("ranks=%d/utts=%d/sample=%g/%s/elastic=%v", c.ranks, c.utts, c.sample, c.fabric, c.elastic)
		opts := []Option{WithRanks(c.ranks), WithFabric(c.fabric)}
		if c.elastic {
			opts = append(opts, WithFaults(FaultPolicy{}))
		}
		done := make(chan runOut, 1)
		go func() {
			sess, err := NewSession(problem(c), opts...)
			if err != nil {
				done <- runOut{nil, err}
				return
			}
			res, err := sess.Run(cfg)
			done <- runOut{res, err}
		}()
		var out runOut
		select {
		case out = <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: still running after 10s", name)
		}
		switch {
		case c.utts < 10:
			if !errors.Is(out.err, ErrEmptyCorpus) {
				t.Errorf("%s: err = %v, want ErrEmptyCorpus", name, out.err)
			}
		case out.err != nil:
			t.Errorf("%s: %v", name, out.err)
		default:
			loss, acc := out.res.HF.FinalLoss, out.res.HeldOutAccuracy
			if math.IsNaN(loss) || math.IsInf(loss, 0) || loss <= 0 || acc < 0 || acc > 1 {
				t.Errorf("%s: final loss %v, accuracy %v", name, loss, acc)
			}
		}
		if c.ranks == 40 && c.utts == 20 && out.res != nil {
			_, serial, err := TrainSerialHF(problem(c), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if d := math.Abs(out.res.HF.FinalLoss - serial.FinalLoss); d > 1e-6*(1+serial.FinalLoss) {
				t.Errorf("%s: final loss %v, serial %v (|Δ| = %g)", name, out.res.HF.FinalLoss, serial.FinalLoss, d)
			}
		}
	}
}

func TestTrainDistributedBadRanks(t *testing.T) {
	p := testProblem(t, CrossEntropy)
	if _, err := trainDist(p, fastHF(), 1, nil); err == nil {
		t.Fatal("expected error for 1 rank")
	}
}

func TestCriterionString(t *testing.T) {
	if CrossEntropy.String() != "cross-entropy" || Sequence.String() != "sequence" {
		t.Fatal("criterion names")
	}
	if Criterion(9).String() == "" {
		t.Fatal("unknown criterion must still render")
	}
}

// The preconditioner extension (deferred in the paper, §IV): serial and
// distributed preconditioned HF must agree and still train.
func TestPreconditionedHFSerialAndDistributed(t *testing.T) {
	p := testProblem(t, CrossEntropy)
	cfg := fastHF()
	cfg.UsePreconditioner = true
	serialObj, serialRes, err := TrainSerialHF(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if serialRes.FinalLoss >= math.Log(6) {
		t.Fatalf("preconditioned HF did not train: %v", serialRes.FinalLoss)
	}
	_ = serialObj
	distRes, err := trainDist(p, cfg, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(distRes.HF.FinalLoss-serialRes.FinalLoss) > 2e-3 {
		t.Fatalf("preconditioned distributed %v vs serial %v", distRes.HF.FinalLoss, serialRes.FinalLoss)
	}
}

// The preconditioner must reduce the CG iterations needed per HF
// iteration relative to the unpreconditioned run on the same problem.
func TestPreconditionerReducesCGWork(t *testing.T) {
	p := testProblem(t, CrossEntropy)
	base := fastHF()
	base.CG.MaxIters = 60
	base.CG.StopTol = 1e-6
	base.MaxIterations = 3
	_, plain, err := TrainSerialHF(p, base)
	if err != nil {
		t.Fatal(err)
	}
	withPrec := base
	withPrec.UsePreconditioner = true
	_, prec, err := TrainSerialHF(p, withPrec)
	if err != nil {
		t.Fatal(err)
	}
	if prec.TotalCGIters > plain.TotalCGIters {
		t.Fatalf("preconditioner increased CG work: %d vs %d", prec.TotalCGIters, plain.TotalCGIters)
	}
}

func TestCurvatureDiagPositive(t *testing.T) {
	p := testProblem(t, CrossEntropy)
	obj, err := NewSerialObjective(p)
	if err != nil {
		t.Fatal(err)
	}
	obj.NewCurvatureSample(1)
	diag := obj.CurvatureDiag(0.5)
	if len(diag) != obj.Dim() {
		t.Fatalf("diag length %d", len(diag))
	}
	for i, v := range diag {
		if v <= 0 {
			t.Fatalf("non-positive preconditioner entry %v at %d", v, i)
		}
	}
}

// Warm starting: sequence training initialized from a CE model (the
// standard pipeline) must start from and improve on the CE model's
// sequence loss, and a wrong-length InitParams must be rejected.
func TestInitParamsWarmStart(t *testing.T) {
	ceProb := testProblem(t, CrossEntropy)
	ceObj, _, err := TrainSerialHF(ceProb, fastHF())
	if err != nil {
		t.Fatal(err)
	}
	seqProb := testProblem(t, Sequence)
	seqProb.InitParams = ceObj.Params()

	warm, err := NewSerialObjective(seqProb)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := NewSerialObjective(testProblem(t, Sequence))
	if err != nil {
		t.Fatal(err)
	}
	warmStart := warm.HeldOutLoss(warm.Params())
	coldStart := cold.HeldOutLoss(cold.Params())
	if warmStart >= coldStart {
		t.Fatalf("CE warm start (%v) should begin below a cold start (%v) on sequence loss", warmStart, coldStart)
	}
	res := hf.Optimize(warm, fastHF())
	if res.FinalLoss > warmStart {
		t.Fatalf("warm-started sequence training regressed: %v → %v", warmStart, res.FinalLoss)
	}

	bad := seqProb
	bad.InitParams = make(tensor.Vector, 3)
	if _, err := NewSerialObjective(bad); err == nil {
		t.Fatal("wrong-length InitParams accepted")
	}
}

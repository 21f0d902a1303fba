package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/check"
	"repro/internal/hf"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// TestNumericGolden pins, bit for bit, the numeric paths the replay gate
// never runs: `make determinism` trains cross-entropy without the
// preconditioner, so it reaches neither nn.FisherDiag nor the sequence
// criterion. The hashes are FNV-1a over Float32bits (check.HashF32) and
// were recorded before nn lost its activation switch and gained its
// shared backward sweep, so a refactor of either must reproduce the old
// floats exactly, not merely agree with itself.
func TestNumericGolden(t *testing.T) {
	// A seeded 3-layer net on a 256-row batch: two hidden layers, so the
	// backward recursion runs through a sigmoid derivative twice, and
	// hidden products above blas.Auto's one-worker cutover, so on a
	// multi-core machine they split across the GEMM's workers.
	rng := rand.New(rand.NewSource(52))
	net := nn.New(nn.NewTopology(128, 192, 160, 24))
	net.InitGlorot(rng)
	x := tensor.RandMatrix(rng, 256, 128, 1)
	targets := make([]int, x.Rows)
	for i := range targets {
		targets[i] = rng.Intn(24)
	}
	v := tensor.RandVector(rng, net.NumParams(), 0.1)

	grad := tensor.NewVector(net.NumParams())
	loss, correct := net.LossGrad(x, targets, grad)
	fisher := tensor.NewVector(net.NumParams())
	net.FisherDiag(x, targets, fisher)
	gn := tensor.NewVector(net.NumParams())
	net.GNProduct(x, v, gn)

	prec := testProblem(t, CrossEntropy)
	precCfg := fastHF()
	precCfg.MaxIterations = 2
	precCfg.UsePreconditioner = true
	seqCfg := fastHF()
	seqCfg.MaxIterations = 2

	cases := []struct {
		name string
		got  uint64
		want uint64
	}{
		{"LossGrad", check.HashF32(grad), 0x94aded4e0e854170},
		{"LossGrad/loss", check.HashF64([]float64{loss, float64(correct)}), 0x7f122ddcc7fc1959},
		{"FisherDiag", check.HashF32(fisher), 0xf4437d5332ddfa4d},
		{"GNProduct", check.HashF32(gn), 0x50bf82d60db9dd11},
		{"serial/precond", trainedHash(t, prec, precCfg), 0x2867f1bf72e4f75c},
		{"serial/sequence", trainedHash(t, testProblem(t, Sequence), seqCfg), 0xc608bfc7623c91bf},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("%s: hash %#016x, want %#016x", c.name, c.got, c.want)
		}
	}
}

// trainedHash runs serial HF on p and hashes the final parameters
// together with the final held-out loss and accuracy.
func trainedHash(t *testing.T, p Problem, cfg hf.Config) uint64 {
	t.Helper()
	obj, res, err := TrainSerialHF(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	params := check.HashF32(obj.Params())
	return check.HashF64([]float64{math.Float64frombits(params), res.FinalLoss, obj.HeldOutAccuracy()})
}

package nn

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/tensor"
)

func testNet(t *testing.T, sizes ...int) *Network {
	t.Helper()
	n := New(NewTopology(sizes...))
	n.InitGlorot(rand.New(rand.NewSource(1)))
	return n
}

func TestTopologyBasics(t *testing.T) {
	topo := NewTopology(4, 5, 3)
	if topo.NumLayers() != 2 || topo.InputDim() != 4 || topo.OutputDim() != 3 {
		t.Fatalf("topology geometry wrong: %+v", topo)
	}
	want := 5*4 + 5 + 3*5 + 3
	if topo.NumParams() != want {
		t.Fatalf("NumParams = %d, want %d", topo.NumParams(), want)
	}
}

func TestTopologyInvalid(t *testing.T) {
	for _, sizes := range [][]int{{3}, {}, {4, 0, 2}, {-1, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("expected panic for %v", sizes)
				}
			}()
			NewTopology(sizes...)
		}()
	}
}

func TestViewsAliasParams(t *testing.T) {
	n := testNet(t, 3, 4, 2)
	n.Weights[0].Set(1, 2, 42)
	w, _ := n.Topo.Views(n.Params)
	if w[0].At(1, 2) != 42 {
		t.Fatal("weight views must alias the flat parameter vector")
	}
	n.Biases[1][0] = -7
	_, b := n.Topo.Views(n.Params)
	if b[1][0] != -7 {
		t.Fatal("bias views must alias the flat parameter vector")
	}
}

func TestViewsWrongLength(t *testing.T) {
	topo := NewTopology(3, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	topo.Views(make(tensor.Vector, 5))
}

func TestSetParamsAndClone(t *testing.T) {
	n := testNet(t, 2, 3, 2)
	v := tensor.RandVector(rand.New(rand.NewSource(2)), n.NumParams(), 1)
	n.SetParams(v)
	if n.Params[3] != v[3] {
		t.Fatal("SetParams did not copy")
	}
	c := n.Clone()
	c.Params[0] = 99
	if n.Params[0] == 99 {
		t.Fatal("Clone must be independent")
	}
}

func TestForwardShapes(t *testing.T) {
	n := testNet(t, 5, 7, 6, 3)
	x := tensor.RandMatrix(rand.New(rand.NewSource(3)), 4, 5, 1)
	f := n.Forward(x)
	if len(f.Hidden) != 2 {
		t.Fatalf("%d hidden activations, want 2", len(f.Hidden))
	}
	if f.Hidden[0].Cols != 7 || f.Hidden[1].Cols != 6 || f.Logits.Cols != 3 {
		t.Fatal("layer widths wrong")
	}
	if f.Logits.Rows != 4 || f.Batch() != 4 {
		t.Fatal("batch size wrong")
	}
	for _, h := range f.Hidden {
		for _, v := range h.Data[:h.Rows*h.Cols] {
			if v <= 0 || v >= 1 {
				t.Fatalf("sigmoid output %v outside (0,1)", v)
			}
		}
	}
}

// TestForwardToReusesLayers runs one Forward through ForwardTo at 256,
// 144, 1 and again 256 rows. Every pass must equal a fresh Forward bit
// for bit, and no layer's backing array may move after the first 256-row
// pass. Hidden activations are sigmoids of bounded inputs, so they lie
// in (0, 1).
func TestForwardToReusesLayers(t *testing.T) {
	n := testNet(t, 20, 24, 16, 5)
	rng := rand.New(rand.NewSource(4))
	var f Forward
	var backing []*float32
	for _, rows := range []int{256, 144, 1, 256} {
		x := tensor.RandMatrix(rng, rows, 20, 2)
		if n.ForwardTo(&f, x) != &f || f.X != x {
			t.Fatalf("rows %d: ForwardTo must fill and return f, aliasing x", rows)
		}
		want := n.Forward(x)
		got, ref := append(f.Hidden, f.Logits), append(want.Hidden, want.Logits)
		if len(got) != len(ref) {
			t.Fatalf("rows %d: %d layers, want %d", rows, len(got), len(ref))
		}
		for l, m := range got {
			if m.Rows != rows || m.Cols != ref[l].Cols {
				t.Fatalf("rows %d layer %d: %d×%d, want %d×%d", rows, l, m.Rows, m.Cols, rows, ref[l].Cols)
			}
			for i := 0; i < rows; i++ {
				for j, v := range m.Row(i) {
					if math.Float32bits(v) != math.Float32bits(ref[l].Row(i)[j]) {
						t.Fatalf("rows %d layer %d (%d,%d): %v, fresh Forward %v", rows, l, i, j, v, ref[l].Row(i)[j])
					}
					if l < len(f.Hidden) && (v <= 0 || v >= 1) {
						t.Fatalf("rows %d layer %d: sigmoid output %v outside (0,1)", rows, l, v)
					}
				}
			}
			if p := &m.Data[:cap(m.Data)][0]; len(backing) <= l {
				backing = append(backing, p)
			} else if p != backing[l] {
				t.Fatalf("rows %d layer %d: backing array moved", rows, l)
			}
		}
	}
}

func TestForwardInputMismatch(t *testing.T) {
	n := testNet(t, 5, 3, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	n.Forward(tensor.NewMatrix(2, 4))
}

func TestSoftmaxRowsSumToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	logits := tensor.RandMatrix(rng, 6, 9, 10)
	p := Softmax(logits)
	for i := 0; i < p.Rows; i++ {
		var sum float64
		for _, v := range p.Row(i) {
			if v < 0 {
				t.Fatal("negative probability")
			}
			sum += float64(v)
		}
		if math.Abs(sum-1) > 1e-4 {
			t.Fatalf("row %d sums to %v", i, sum)
		}
	}
}

func TestSoftmaxLargeLogitsStable(t *testing.T) {
	logits := tensor.FromSlice(1, 3, []float32{1000, 999, -1000})
	p := Softmax(logits)
	if math.IsNaN(float64(p.At(0, 0))) {
		t.Fatal("softmax overflowed")
	}
	if p.At(0, 0) < p.At(0, 1) {
		t.Fatal("ordering lost")
	}
}

func TestCrossEntropyKnownValue(t *testing.T) {
	// Uniform logits over k classes: loss per row = ln k.
	logits := tensor.NewMatrix(2, 4)
	loss, _ := CrossEntropy(logits, []int{0, 3})
	want := 2 * math.Log(4)
	if math.Abs(loss-want) > 1e-6 {
		t.Fatalf("loss %v, want %v", loss, want)
	}
}

func TestCrossEntropyCorrectCount(t *testing.T) {
	logits := tensor.FromSlice(2, 2, []float32{3, 0, 0, 3})
	_, correct := CrossEntropy(logits, []int{0, 0})
	if correct != 1 {
		t.Fatalf("correct = %d, want 1", correct)
	}
}

func TestCrossEntropyBadTargets(t *testing.T) {
	logits := tensor.NewMatrix(1, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	CrossEntropy(logits, []int{5})
}

func TestCrossEntropyLengthMismatch(t *testing.T) {
	logits := tensor.NewMatrix(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	CrossEntropy(logits, []int{0})
}

// The central correctness test: analytic backprop gradient vs central
// finite differences of the loss.
func TestGradientMatchesFiniteDifferences(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := testNet(t, 4, 6, 5, 3)
	x := tensor.RandMatrix(rng, 7, 4, 1)
	targets := make([]int, 7)
	for i := range targets {
		targets[i] = rng.Intn(3)
	}
	grad := tensor.NewVector(n.NumParams())
	loss0, _ := n.LossGrad(x, targets, grad)
	if loss0 <= 0 {
		t.Fatalf("loss %v", loss0)
	}

	const eps = 1e-2
	checked := 0
	for trial := 0; trial < 60; trial++ {
		i := rng.Intn(n.NumParams())
		orig := n.Params[i]
		n.Params[i] = orig + eps
		lp, _ := CrossEntropy(n.Forward(x).Logits, targets)
		n.Params[i] = orig - eps
		lm, _ := CrossEntropy(n.Forward(x).Logits, targets)
		n.Params[i] = orig
		fd := (lp - lm) / (2 * eps)
		if math.Abs(fd) < 1e-3 && math.Abs(float64(grad[i])) < 1e-3 {
			continue // both ≈0; float32 FD too noisy to compare
		}
		rel := math.Abs(fd-float64(grad[i])) / (math.Abs(fd) + math.Abs(float64(grad[i])) + 1e-8)
		if rel > 0.08 {
			t.Fatalf("param %d: analytic %v vs FD %v (rel %.3f)", i, grad[i], fd, rel)
		}
		checked++
	}
	if checked < 20 {
		t.Fatalf("only %d informative finite-difference checks", checked)
	}
}

func TestLossGradAccumulates(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	n := testNet(t, 3, 4, 2)
	x := tensor.RandMatrix(rng, 5, 3, 1)
	targets := []int{0, 1, 0, 1, 1}
	g1 := tensor.NewVector(n.NumParams())
	n.LossGrad(x, targets, g1)
	g2 := g1.Clone()
	n.LossGrad(x, targets, g2) // accumulate second pass
	for i := range g2 {
		if math.Abs(float64(g2[i]-2*g1[i])) > 1e-4 {
			t.Fatalf("gradient did not accumulate: %v vs 2*%v", g2[i], g1[i])
		}
	}
}

// Gauss-Newton operator properties: symmetry dᵀGe == eᵀGd and positive
// semidefiniteness vᵀGv ≥ 0, for random networks and vectors.
func TestGNProductSymmetryAndPSD(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := testNet(t, 4, 5, 3)
	x := tensor.RandMatrix(rng, 6, 4, 1)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := tensor.RandVector(r, n.NumParams(), 0.5)
		e := tensor.RandVector(r, n.NumParams(), 0.5)
		gd := tensor.NewVector(n.NumParams())
		ge := tensor.NewVector(n.NumParams())
		n.GNProduct(x, d, gd)
		n.GNProduct(x, e, ge)
		sym := math.Abs(e.Dot(gd)-d.Dot(ge)) <= 1e-3*(1+math.Abs(e.Dot(gd)))
		psd := d.Dot(gd) >= -1e-4 && e.Dot(ge) >= -1e-4
		return sym && psd
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// GNProduct must be linear in v.
func TestGNProductLinearity(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	n := testNet(t, 3, 4, 2)
	x := tensor.RandMatrix(rng, 5, 3, 1)
	v1 := tensor.RandVector(rng, n.NumParams(), 1)
	v2 := tensor.RandVector(rng, n.NumParams(), 1)
	sum := v1.Clone()
	sum.AddScaled(1, v2)
	gSum := tensor.NewVector(n.NumParams())
	n.GNProduct(x, sum, gSum)
	gParts := tensor.NewVector(n.NumParams())
	n.GNProduct(x, v1, gParts)
	n.GNProduct(x, v2, gParts)
	if !tensor.EqualApproxVec(gSum, gParts, 1e-3) {
		t.Fatal("GNProduct not linear in v")
	}
}

// On a network with no hidden layers (softmax regression), the
// Gauss-Newton matrix equals the exact Hessian, so Gv should match the
// finite-difference Hessian-vector product of the loss.
func TestGNMatchesHessianForConvexCase(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n := testNet(t, 3, 4) // direct softmax regression: convex in params
	x := tensor.RandMatrix(rng, 8, 3, 1)
	targets := make([]int, 8)
	for i := range targets {
		targets[i] = rng.Intn(4)
	}
	v := tensor.RandVector(rng, n.NumParams(), 0.5)
	gv := tensor.NewVector(n.NumParams())
	n.GNProduct(x, v, gv)

	// FD Hessian-vector product: (∇L(θ+εv) − ∇L(θ−εv)) / 2ε.
	const eps = 1e-2
	gp := tensor.NewVector(n.NumParams())
	gm := tensor.NewVector(n.NumParams())
	saved := n.Params.Clone()
	n.Params.AddScaled(eps, v)
	n.LossGrad(x, targets, gp)
	copy(n.Params, saved)
	n.Params.AddScaled(-eps, v)
	n.LossGrad(x, targets, gm)
	copy(n.Params, saved)

	for i := range gv {
		fd := (float64(gp[i]) - float64(gm[i])) / (2 * eps)
		if math.Abs(fd) < 5e-3 && math.Abs(float64(gv[i])) < 5e-3 {
			continue
		}
		rel := math.Abs(fd-float64(gv[i])) / (math.Abs(fd) + math.Abs(float64(gv[i])) + 1e-8)
		if rel > 0.1 {
			t.Fatalf("param %d: GN %v vs FD Hessian %v (rel %.3f)", i, gv[i], fd, rel)
		}
	}
}

func TestGNProductZeroVector(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	n := testNet(t, 3, 4, 2)
	x := tensor.RandMatrix(rng, 4, 3, 1)
	out := tensor.NewVector(n.NumParams())
	n.GNProduct(x, tensor.NewVector(n.NumParams()), out)
	if out.MaxAbs() != 0 {
		t.Fatal("G·0 must be 0")
	}
}

func TestPredict(t *testing.T) {
	// A hand-built network that copies input feature 0 vs 1 to the output:
	// weights chosen so class = argmax(x0, x1).
	n := New(NewTopology(2, 2))
	n.Weights[0].Set(0, 0, 5)
	n.Weights[0].Set(1, 1, 5)
	x := tensor.FromSlice(3, 2, []float32{1, 0, 0, 1, 1, 0})
	pred := n.Predict(x)
	if pred[0] != 0 || pred[1] != 1 || pred[2] != 0 {
		t.Fatalf("pred = %v", pred)
	}
}

func TestBackpropGradShapeMismatch(t *testing.T) {
	n := testNet(t, 2, 2)
	f := n.Forward(tensor.NewMatrix(1, 2))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	n.BackpropOutputGrad(f, tensor.NewMatrix(1, 2), make(tensor.Vector, 3))
}

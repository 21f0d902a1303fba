package hf

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/tensor"
)

// denseSPD builds a random symmetric positive-definite n×n matrix
// A = BᵀB + I (float64) and returns it with its apply closure.
func denseSPD(rng *rand.Rand, n int) ([][]float64, func(v, out tensor.Vector)) {
	b := make([][]float64, n)
	for i := range b {
		b[i] = make([]float64, n)
		for j := range b[i] {
			b[i][j] = rng.NormFloat64()
		}
	}
	a := make([][]float64, n)
	for i := range a {
		a[i] = make([]float64, n)
		for j := range a[i] {
			var s float64
			for k := 0; k < n; k++ {
				s += b[k][i] * b[k][j]
			}
			a[i][j] = s
		}
		a[i][i] += 1
	}
	apply := func(v, out tensor.Vector) {
		for i := range a {
			var s float64
			for j := range a[i] {
				s += a[i][j] * float64(v[j])
			}
			out[i] += float32(s)
		}
	}
	return a, apply
}

// solveDense solves A x = b by Gaussian elimination with partial pivoting,
// the independent oracle for CG.
func solveDense(a [][]float64, b []float64) []float64 {
	n := len(a)
	m := make([][]float64, n)
	for i := range m {
		m[i] = append(append([]float64(nil), a[i]...), b[i])
	}
	for col := 0; col < n; col++ {
		piv := col
		for r := col + 1; r < n; r++ {
			if math.Abs(m[r][col]) > math.Abs(m[piv][col]) {
				piv = r
			}
		}
		m[col], m[piv] = m[piv], m[col]
		for r := col + 1; r < n; r++ {
			f := m[r][col] / m[col][col]
			for c := col; c <= n; c++ {
				m[r][c] -= f * m[col][c]
			}
		}
	}
	x := make([]float64, n)
	for r := n - 1; r >= 0; r-- {
		s := m[r][n]
		for c := r + 1; c < n; c++ {
			s -= m[r][c] * x[c]
		}
		x[r] = s / m[r][r]
	}
	return x
}

// TestCGOptsFilled pins what each CGOpts field's doc promises: zero and
// negative values (and a SaveFactor ≤ 1) mean the default, and any
// other value is kept as given.
func TestCGOptsFilled(t *testing.T) {
	def := CGOpts{MaxIters: 100, StopTol: 5e-4, MinIters: 10, SaveFactor: 1.3}
	cases := []struct {
		name     string
		in, want CGOpts
	}{
		{"zero value", CGOpts{}, def},
		{"negative", CGOpts{MaxIters: -1, StopTol: -1e-3, MinIters: -5, SaveFactor: -2}, def},
		{"save factor 1", CGOpts{SaveFactor: 1}, def},
		{"save factor below 1", CGOpts{SaveFactor: 0.5}, def},
		{"explicit", CGOpts{MaxIters: 7, StopTol: 1e-3, MinIters: 3, SaveFactor: 1.01},
			CGOpts{MaxIters: 7, StopTol: 1e-3, MinIters: 3, SaveFactor: 1.01}},
	}
	for _, c := range cases {
		got := c.in.filled()
		if got.MaxIters != c.want.MaxIters || got.StopTol != c.want.StopTol ||
			got.MinIters != c.want.MinIters || got.SaveFactor != c.want.SaveFactor {
			t.Errorf("%s: %+v.filled() = %+v, want %+v", c.name, c.in, got, c.want)
		}
	}
}

func TestCGSolvesSPDSystem(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const n = 12
	a, apply := denseSPD(rng, n)
	g := tensor.RandVector(rng, n, 1)
	// Minimizing q(d) = gᵀd + ½dᵀAd means solving A d = −g.
	b := make([]float64, n)
	for i := range b {
		b[i] = -float64(g[i])
	}
	want := solveDense(a, b)

	res := CGMinimize(apply, g, tensor.NewVector(n), CGOpts{MaxIters: 200, StopTol: 1e-12})
	got := res.Final()
	for i := range want {
		if math.Abs(float64(got[i])-want[i]) > 1e-2*(1+math.Abs(want[i])) {
			t.Fatalf("component %d: CG %v vs direct %v", i, got[i], want[i])
		}
	}
}

func TestCGQValuesMonotoneNonIncreasing(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const n = 20
	_, apply := denseSPD(rng, n)
	g := tensor.RandVector(rng, n, 1)
	res := CGMinimize(apply, g, tensor.NewVector(n), CGOpts{MaxIters: 50})
	for i := 1; i < len(res.QValues); i++ {
		if res.QValues[i] > res.QValues[i-1]+1e-6 {
			t.Fatalf("q increased at saved iterate %d: %v → %v", i, res.QValues[i-1], res.QValues[i])
		}
	}
	if res.FinalQ() >= 0 {
		t.Fatalf("final q %v, want < 0", res.FinalQ())
	}
}

func TestCGWarmStartHelps(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const n = 16
	a, apply := denseSPD(rng, n)
	g := tensor.RandVector(rng, n, 1)
	b := make([]float64, n)
	for i := range b {
		b[i] = -float64(g[i])
	}
	exact := solveDense(a, b)
	// Warm start at 0.9×solution: fewer iterations to reach tolerance than
	// a cold start, and the result must still be correct.
	warm := tensor.NewVector(n)
	for i := range warm {
		warm[i] = float32(0.9 * exact[i])
	}
	resWarm := CGMinimize(apply, g, warm, CGOpts{MaxIters: 200, StopTol: 1e-10})
	resCold := CGMinimize(apply, g, tensor.NewVector(n), CGOpts{MaxIters: 200, StopTol: 1e-10})
	if resWarm.FinalQ() > resCold.FinalQ()+1e-3 {
		t.Fatalf("warm start ended worse: %v vs %v", resWarm.FinalQ(), resCold.FinalQ())
	}
	got := resWarm.Final()
	for i := range exact {
		if math.Abs(float64(got[i])-exact[i]) > 5e-2*(1+math.Abs(exact[i])) {
			t.Fatalf("warm-start solution wrong at %d", i)
		}
	}
}

func TestCGStoppingRuleTruncates(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	const n = 64
	_, apply := denseSPD(rng, n)
	g := tensor.RandVector(rng, n, 1)
	loose := CGMinimize(apply, g, tensor.NewVector(n), CGOpts{MaxIters: 1000, StopTol: 0.05, MinIters: 3})
	tight := CGMinimize(apply, g, tensor.NewVector(n), CGOpts{MaxIters: 1000, StopTol: 1e-10, MinIters: 3})
	if loose.Iters >= tight.Iters {
		t.Fatalf("loose tolerance ran %d iters, tight %d — truncation not working", loose.Iters, tight.Iters)
	}
	if loose.Iters >= 1000 {
		t.Fatal("loose run hit MaxIters")
	}
}

func TestCGIterateSpacingGeometric(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	_, apply := denseSPD(rng, 40)
	g := tensor.RandVector(rng, 40, 1)
	res := CGMinimize(apply, g, tensor.NewVector(40), CGOpts{MaxIters: 40, StopTol: 1e-14, SaveFactor: 2})
	if len(res.Iterates) < 3 {
		t.Fatalf("only %d saved iterates", len(res.Iterates))
	}
	if len(res.Iterates) != len(res.QValues) {
		t.Fatal("iterates and q-values out of sync")
	}
	// More iterations than saved iterates confirms subsampling.
	if res.Iters <= len(res.Iterates) {
		t.Fatalf("iters %d, saved %d: expected geometric subsampling", res.Iters, len(res.Iterates))
	}
}

func TestCGZeroGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	_, apply := denseSPD(rng, 8)
	res := CGMinimize(apply, tensor.NewVector(8), tensor.NewVector(8), CGOpts{})
	if res.Final().MaxAbs() != 0 {
		t.Fatal("zero gradient must give zero step")
	}
}

func TestCGDimMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	CGMinimize(func(v, out tensor.Vector) {}, tensor.NewVector(3), tensor.NewVector(4), CGOpts{})
}

// Property: for random small SPD systems, CG run to tolerance matches the
// direct solve.
func TestCGMatchesDirectSolveProperty(t *testing.T) {
	f := func(seed int64, nSeed uint8) bool {
		n := int(nSeed%10) + 2
		rng := rand.New(rand.NewSource(seed))
		a, apply := denseSPD(rng, n)
		g := tensor.RandVector(rng, n, 1)
		b := make([]float64, n)
		for i := range b {
			b[i] = -float64(g[i])
		}
		want := solveDense(a, b)
		got := CGMinimize(apply, g, tensor.NewVector(n), CGOpts{MaxIters: 500, StopTol: 1e-12}).Final()
		for i := range want {
			if math.Abs(float64(got[i])-want[i]) > 5e-2*(1+math.Abs(want[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

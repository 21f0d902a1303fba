package blas

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/tensor"
)

// gemmRef computes C = alpha·op(A)·op(B) + beta·C elementwise in float64,
// the independent oracle for all implementations.
func gemmRef(tA, tB Transpose, alpha float32, a, b *tensor.Matrix, beta float32, c *tensor.Matrix) *tensor.Matrix {
	m, k := opDims(a, tA)
	_, n := opDims(b, tB)
	out := tensor.NewMatrix(m, n)
	at := func(i, p int) float64 {
		if tA == Trans {
			return float64(a.At(p, i))
		}
		return float64(a.At(i, p))
	}
	bt := func(p, j int) float64 {
		if tB == Trans {
			return float64(b.At(j, p))
		}
		return float64(b.At(p, j))
	}
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for p := 0; p < k; p++ {
				s += at(i, p) * bt(p, j)
			}
			out.Set(i, j, float32(float64(alpha)*s+float64(beta)*float64(c.At(i, j))))
		}
	}
	return out
}

func makeOperands(rng *rand.Rand, tA, tB Transpose, m, n, k int) (a, b, c *tensor.Matrix) {
	if tA == Trans {
		a = tensor.RandMatrix(rng, k, m, 1)
	} else {
		a = tensor.RandMatrix(rng, m, k, 1)
	}
	if tB == Trans {
		b = tensor.RandMatrix(rng, n, k, 1)
	} else {
		b = tensor.RandMatrix(rng, k, n, 1)
	}
	c = tensor.RandMatrix(rng, m, n, 1)
	return a, b, c
}

func checkImpl(t *testing.T, impl Impl, tA, tB Transpose, m, n, k int, alpha, beta float32) {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(m*1000003 + n*1009 + k)))
	a, b, c := makeOperands(rng, tA, tB, m, n, k)
	want := gemmRef(tA, tB, alpha, a, b, beta, c)
	got := c.Clone()
	GemmWith(Config{Impl: impl, Threads: 3, MC: 24, KC: 16, NC: 20}, tA, tB, alpha, a, b, beta, got)
	tol := 1e-3 * float64(k+1)
	if !tensor.EqualApprox(got, want, tol) {
		t.Fatalf("impl=%d tA=%v tB=%v %dx%dx%d alpha=%v beta=%v: max diff %g",
			impl, tA, tB, m, n, k, alpha, beta, tensor.MaxAbsDiff(got, want))
	}
}

func TestGemmAllImplsAllTransposes(t *testing.T) {
	shapes := [][3]int{
		{1, 1, 1}, {2, 3, 4}, {8, 4, 16}, {7, 5, 3}, {9, 13, 17},
		{16, 16, 16}, {33, 29, 31}, {64, 48, 40}, {1, 64, 64}, {64, 1, 64}, {64, 64, 1},
	}
	impls := []Impl{Naive, Blocked, Parallel}
	for _, impl := range impls {
		for _, tA := range []Transpose{NoTrans, Trans} {
			for _, tB := range []Transpose{NoTrans, Trans} {
				for _, s := range shapes {
					checkImpl(t, impl, tA, tB, s[0], s[1], s[2], 1, 0)
				}
			}
		}
	}
}

func TestGemmAlphaBeta(t *testing.T) {
	cases := []struct{ alpha, beta float32 }{
		{1, 1}, {2, 0}, {0.5, -1}, {0, 1}, {-1, 0.25}, {0, 0},
	}
	for _, impl := range []Impl{Naive, Blocked, Parallel} {
		for _, cse := range cases {
			checkImpl(t, impl, NoTrans, NoTrans, 19, 23, 29, cse.alpha, cse.beta)
			checkImpl(t, impl, Trans, Trans, 19, 23, 29, cse.alpha, cse.beta)
		}
	}
}

// sameBits reports the first element at which got and want differ in
// their float32 bit patterns (so −0 ≠ +0 and NaN payloads count).
func sameBits(got, want *tensor.Matrix) (i, j int, ok bool) {
	for i = 0; i < want.Rows; i++ {
		g, w := got.Row(i), want.Row(i)
		for j = range w {
			if math.Float32bits(g[j]) != math.Float32bits(w[j]) {
				return i, j, false
			}
		}
	}
	return 0, 0, true
}

// detShapes are the products the worker-count tests cover, under the
// block limits each is run with: several MC, KC and NC blocks; one row
// block (m < MC, a Gauss-Newton utterance batch); n not a multiple of
// nr; fewer column panels than workers; and edge A panels of one to
// seven rows under wide column runs, so the row kernel runs inside each
// worker's run (its four-panel body, its tail and a partial panel).
var detShapes = []struct {
	cfg     Config
	m, n, k int
}{
	{Config{MC: 16, KC: 8, NC: 12}, 61, 53, 47},
	{Config{MC: 16, KC: 8, NC: 12}, 12, 100, 40},
	{Config{MC: 16, KC: 8, NC: 12}, 33, 13, 9},
	{Config{MC: 16, KC: 8, NC: 12}, 7, 5, 3},
	{Config{}, 100, 100, 64},
	{Config{}, 100, 37, 300},
	{Config{}, 3, 130, 300},
	{Config{MC: 16, KC: 32, NC: 40}, 23, 77, 70},
}

// Property: the parallel result equals the single-threaded one bit for
// bit at every worker count (each C element is summed by one worker in
// the same k order), for every transpose pair and for β ∈ {0, 1}.
func TestGemmDeterministicAcrossThreads(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, s := range detShapes {
		for _, tA := range []Transpose{NoTrans, Trans} {
			for _, tB := range []Transpose{NoTrans, Trans} {
				a, b, c := makeOperands(rng, tA, tB, s.m, s.n, s.k)
				for _, beta := range []float32{0, 1} {
					cfg := s.cfg
					cfg.Impl = Blocked
					ref := c.Clone()
					GemmWith(cfg, tA, tB, 1, a, b, beta, ref)
					for threads := 1; threads <= 8; threads++ {
						cfg.Impl, cfg.Threads = Parallel, threads
						got := c.Clone()
						GemmWith(cfg, tA, tB, 1, a, b, beta, got)
						if i, j, ok := sameBits(got, ref); !ok {
							t.Fatalf("%+v tA=%v tB=%v %d×%d×%d β=%v threads=%d: C[%d][%d] = %v, single-threaded %v",
								s.cfg, tA, tB, s.m, s.n, s.k, beta, threads, i, j, got.At(i, j), ref.At(i, j))
						}
					}
				}
			}
		}
	}
}

// Property: a GEMM whose workers run the epilogue — here nn.Forward's
// bias add and sigmoid — equals the GEMM followed by the same ops on the
// caller, bit for bit, at 1–4 workers, including a product that skips
// the kernel (α = 0) and the Naive path.
func TestGemmEpilogueMatchesUnfused(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	finish := func(bias []float32) Epilogue {
		return func(cols *tensor.Matrix, j0 int) {
			for i := 0; i < cols.Rows; i++ {
				row := cols.Row(i)
				for j := range row {
					row[j] += bias[j0+j]
					row[j] = float32(1 / (1 + math.Exp(-float64(row[j]))))
				}
			}
		}
	}
	for _, s := range detShapes {
		a, b, c := makeOperands(rng, NoTrans, Trans, s.m, s.n, s.k)
		bias := tensor.RandMatrix(rng, 1, s.n, 1).Row(0)
		for _, alpha := range []float32{1, 0} {
			want := c.Clone()
			cfg := s.cfg
			cfg.Impl = Blocked
			GemmWith(cfg, NoTrans, Trans, alpha, a, b, 0, want)
			finish(bias)(want, 0)
			for workers := 1; workers <= 4; workers++ {
				cfg.Impl, cfg.Threads = Parallel, workers
				got := c.Clone()
				gemm(cfg, NoTrans, Trans, alpha, a, b, 0, got, finish(bias))
				if i, j, ok := sameBits(got, want); !ok {
					t.Fatalf("%+v %d×%d×%d α=%v workers=%d: C[%d][%d] = %v, unfused %v",
						s.cfg, s.m, s.n, s.k, alpha, workers, i, j, got.At(i, j), want.At(i, j))
				}
			}
			// The naive loop sums in another order; it must still apply
			// the epilogue exactly once.
			got := c.Clone()
			gemm(Config{Impl: Naive}, NoTrans, Trans, alpha, a, b, 0, got, finish(bias))
			if !tensor.EqualApprox(got, want, 1e-4) {
				t.Fatalf("%+v naive α=%v: max diff %g", s.cfg, alpha, tensor.MaxAbsDiff(got, want))
			}
		}
	}
}

// Property: multiplying by a packed operand equals GemmWith on the
// operand itself, bit for bit: packing is a copy and the loop nest is
// the same. The shapes cross KC (k > 256: two pc blocks) and NC (n >
// 512: two jc blocks) with n not a multiple of nr, and one PackedB is
// re-packed for every operand, largest first, so a stale or mis-sized
// reuse shows too.
func TestGemmPackedMatchesGemmWith(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	var pb PackedB
	var ws Workspace
	for _, s := range []struct{ n, k int }{{517, 300}, {520, 256}, {13, 20}, {8, 1}} {
		for _, tB := range []Transpose{NoTrans, Trans} {
			for _, m := range []int{1, 2, 7, 8, 9, 32} {
				a, b, c := makeOperands(rng, NoTrans, tB, m, s.n, s.k)
				pb.Pack(tB, b)
				for _, alpha := range []float32{1, 0.5} {
					for _, beta := range []float32{0, 1} {
						want := c.Clone()
						GemmWith(Config{}, NoTrans, tB, alpha, a, b, beta, want)
						got := c.Clone()
						GemmPacked(&ws, alpha, a, &pb, beta, got)
						if i, j, ok := sameBits(got, want); !ok {
							t.Fatalf("tB=%v %d×%d×%d α=%v β=%v: C[%d][%d] = %v, GemmWith %v",
								tB, m, s.n, s.k, alpha, beta, i, j, got.At(i, j), want.At(i, j))
						}
					}
				}
			}
		}
	}
	// A operand or output that does not fit the packed operand panics,
	// and so does an operand that was never packed.
	pb.Pack(NoTrans, tensor.NewMatrix(3, 5))
	for name, run := range map[string]func(){
		"inner dimension": func() { GemmPacked(&ws, 1, tensor.NewMatrix(2, 4), &pb, 0, tensor.NewMatrix(2, 5)) },
		"output shape":    func() { GemmPacked(&ws, 1, tensor.NewMatrix(2, 3), &pb, 0, tensor.NewMatrix(2, 4)) },
		"never packed":    func() { GemmPacked(&ws, 1, tensor.NewMatrix(2, 3), &PackedB{}, 0, tensor.NewMatrix(2, 5)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			run()
		}()
	}
}

// Property: the packed-A panel's dead lanes are never read into C. A
// partial A panel is not padded, so a Workspace reused across products
// leaves stale floats in the lanes past the live rows; here they are NaN,
// and every product must still equal GemmWith on a fresh slab bit for
// bit. m covers edges of 1–7 rows (the row kernel and the 8×8 tile), n
// the row kernel's four-panel body, its tail and a partial panel, and k
// one and two KC blocks.
func TestGemmPackedStaleWorkspace(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	var ws Workspace
	var pb PackedB
	nan := float32(math.NaN())
	for _, k := range []int{100, 384} {
		for _, n := range []int{8, 32, 40, 100, 384} {
			b := tensor.RandMatrix(rng, n, k, 1)
			pb.Pack(Trans, b)
			for _, m := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 17} {
				a, c := tensor.RandMatrix(rng, m, k, 1), tensor.RandMatrix(rng, m, n, 1)
				ws.slab(roundUp(m, mr) * min(k, defaultKC))
				stale := ws.buf[:cap(ws.buf)]
				for i := range stale {
					stale[i] = nan
				}
				want := c.Clone()
				GemmWith(Config{Impl: Blocked}, NoTrans, Trans, 0.5, a, b, 1, want)
				got := c.Clone()
				GemmPacked(&ws, 0.5, a, &pb, 1, got)
				if i, j, ok := sameBits(got, want); !ok {
					t.Fatalf("%d×%d×%d on a NaN-filled workspace: C[%d][%d] = %v, GemmWith %v",
						m, n, k, i, j, got.At(i, j), want.At(i, j))
				}
			}
		}
	}
}

// Property: GEMM is linear in A: (A1+A2)B == A1·B + A2·B.
func TestGemmLinearityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	f := func(seedM, seedN, seedK uint8) bool {
		m, n, k := int(seedM%24)+1, int(seedN%24)+1, int(seedK%24)+1
		a1 := tensor.RandMatrix(rng, m, k, 1)
		a2 := tensor.RandMatrix(rng, m, k, 1)
		b := tensor.RandMatrix(rng, k, n, 1)
		sum := a1.Clone()
		for i := range sum.Data {
			sum.Data[i] += a2.Data[i]
		}
		c1 := tensor.NewMatrix(m, n)
		GemmWith(Config{Impl: Blocked, MC: 8, KC: 8, NC: 8}, NoTrans, NoTrans, 1, sum, b, 0, c1)
		c2 := tensor.NewMatrix(m, n)
		GemmWith(Config{Impl: Blocked, MC: 8, KC: 8, NC: 8}, NoTrans, NoTrans, 1, a1, b, 0, c2)
		GemmWith(Config{Impl: Blocked, MC: 8, KC: 8, NC: 8}, NoTrans, NoTrans, 1, a2, b, 1, c2)
		return tensor.EqualApprox(c1, c2, 1e-3*float64(k))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: identity is a GEMM unit: I·B == B.
func TestGemmIdentityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	f := func(seedN uint8) bool {
		n := int(seedN%32) + 1
		id := tensor.NewMatrix(n, n)
		for i := 0; i < n; i++ {
			id.Set(i, i, 1)
		}
		b := tensor.RandMatrix(rng, n, n, 1)
		c := tensor.NewMatrix(n, n)
		Gemm(NoTrans, NoTrans, 1, id, b, 0, c)
		return tensor.EqualApprox(c, b, 1e-5)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestGemmAutoDispatch(t *testing.T) {
	// Auto must give correct results both below and above the size cutoff.
	checkImpl(t, Auto, NoTrans, NoTrans, 4, 4, 4, 1, 0)
	checkImpl(t, Auto, NoTrans, Trans, 80, 80, 80, 1, 0.5)
}

func TestGemmDimensionMismatch(t *testing.T) {
	a := tensor.NewMatrix(2, 3)
	b := tensor.NewMatrix(4, 5) // inner dim mismatch
	c := tensor.NewMatrix(2, 5)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on inner dimension mismatch")
		}
	}()
	Gemm(NoTrans, NoTrans, 1, a, b, 0, c)
}

func TestGemmOutputShapeMismatch(t *testing.T) {
	a := tensor.NewMatrix(2, 3)
	b := tensor.NewMatrix(3, 5)
	c := tensor.NewMatrix(2, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on output shape mismatch")
		}
	}()
	Gemm(NoTrans, NoTrans, 1, a, b, 0, c)
}

func TestGemmOnViews(t *testing.T) {
	// Operands with stride > cols (views) must work in every impl.
	rng := rand.New(rand.NewSource(13))
	big := tensor.RandMatrix(rng, 40, 40, 1)
	a := big.View(2, 3, 17, 11)
	b := big.View(5, 7, 11, 13)
	cBig := tensor.RandMatrix(rng, 30, 30, 1)
	c := cBig.View(1, 1, 17, 13)
	want := gemmRef(NoTrans, NoTrans, 1, a, b, 1, c)
	for _, impl := range []Impl{Naive, Blocked, Parallel} {
		cc := cBig.Clone().View(1, 1, 17, 13)
		GemmWith(Config{Impl: impl, MC: 8, KC: 8, NC: 8, Threads: 2}, NoTrans, NoTrans, 1, a, b, 1, cc)
		if !tensor.EqualApprox(cc, want, 1e-3) {
			t.Fatalf("impl %d wrong on views", impl)
		}
	}
}

func TestGemmEmpty(t *testing.T) {
	a := tensor.NewMatrix(0, 5)
	b := tensor.NewMatrix(5, 3)
	c := tensor.NewMatrix(0, 3)
	Gemm(NoTrans, NoTrans, 1, a, b, 0, c) // must not panic
	a2 := tensor.NewMatrix(3, 0)
	b2 := tensor.NewMatrix(0, 2)
	c2 := tensor.NewMatrix(3, 2)
	c2.Fill(7)
	Gemm(NoTrans, NoTrans, 1, a2, b2, 0, c2)
	if c2.At(0, 0) != 0 {
		t.Fatal("k=0 with beta=0 must zero C")
	}
}

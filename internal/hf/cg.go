// Package hf implements the Hessian-free second-order optimizer of the
// paper's Algorithm 1 (after Martens 2010): an outer loop that forms the
// damped Gauss-Newton quadratic model of the loss and an inner truncated
// conjugate-gradient solver that minimizes it using only matrix-vector
// products, plus CG-iterate backtracking, an Armijo line search and
// Levenberg-Marquardt damping adaptation.
//
// Two deviations from the paper's listing, documented in DESIGN.md: the
// listing's ρ-based λ updates are inverted relative to Martens 2010 and to
// its own "no improvement" branch, so the Martens convention is used; and
// the backtracking loop tracks the running minimum of the held-out loss as
// in Martens' reference implementation.
package hf

import (
	"fmt"
	"math"

	"repro/internal/blas"
	"repro/internal/check"
	"repro/internal/tensor"
)

// CGOpts configures the truncated conjugate-gradient inner solver.
type CGOpts struct {
	// MaxIters caps CG iterations. Zero (or any value ≤ 0) means the
	// default of 100.
	MaxIters int
	// StopTol is the relative per-iteration progress threshold ε of the
	// Martens stopping rule: stop at iteration i when φ(x_i) < 0 and
	// (φ(x_i) − φ(x_{i−k}))/φ(x_i) < k·ε with k = max(MinIters, i/10).
	// Zero (or any value ≤ 0) means the default of 5e-4.
	StopTol float64
	// MinIters is the smallest lookback window k. Zero (or any value
	// ≤ 0) means the default of 10.
	MinIters int
	// SaveFactor controls which iterates are kept for backtracking: each
	// saved index is the previous times this factor (geometric spacing, as
	// in Martens). Any value ≤ 1, zero included, means the default of
	// 1.3.
	SaveFactor float64
	// Precond, when non-nil, is the strictly positive diagonal of a
	// preconditioner M: the solver runs preconditioned CG with
	// z = M⁻¹r. The paper's implementation omits the preconditioner of
	// Martens 2010 §4.7 (citing it as future work); it is provided here
	// as the natural extension.
	Precond tensor.Vector
}

func (o CGOpts) filled() CGOpts {
	if o.MaxIters <= 0 {
		o.MaxIters = 100
	}
	if o.StopTol <= 0 {
		o.StopTol = 5e-4
	}
	if o.MinIters <= 0 {
		o.MinIters = 10
	}
	if o.SaveFactor <= 1 {
		o.SaveFactor = 1.3
	}
	return o
}

// CGResult reports the outcome of a CG-Minimize call.
type CGResult struct {
	// Iterates are the saved intermediate solutions d_1 … d_N in
	// ascending iteration order; the last entry is the final iterate.
	Iterates []tensor.Vector
	// QValues[i] is the quadratic-model value q(Iterates[i]).
	QValues []float64
	// Iters is the number of CG iterations executed.
	Iters int
}

// Final returns the last (best) iterate.
func (r CGResult) Final() tensor.Vector { return r.Iterates[len(r.Iterates)-1] }

// FinalQ returns the quadratic-model value at the final iterate.
func (r CGResult) FinalQ() float64 { return r.QValues[len(r.QValues)-1] }

// CGMinimize minimizes the quadratic model
//
//	q(d) = gᵀd + ½ dᵀA d
//
// with conjugate gradient, where A (the damped Gauss-Newton matrix
// G + λI) is accessed only through the matrix-vector product apply(v, out)
// with out ← A·v. d0 is the warm-start direction (the β·d_N momentum of
// Algorithm 1); it is not modified. Iteration stops by the Martens
// relative-progress rule or at MaxIters, and intermediate iterates are
// saved at geometrically spaced indices for the outer loop's backtracking.
//
//lint:shape g=n d0=n
func CGMinimize(apply func(v, out tensor.Vector), g tensor.Vector, d0 tensor.Vector, opts CGOpts) CGResult {
	opts = opts.filled()
	n := len(g)
	if len(d0) != n {
		panic(fmt.Sprintf("hf: d0 has %d elements, want %d", len(d0), n))
	}

	if opts.Precond != nil {
		if len(opts.Precond) != n {
			panic(fmt.Sprintf("hf: preconditioner has %d elements, want %d", len(opts.Precond), n))
		}
		for i, m := range opts.Precond {
			if m <= 0 {
				panic(fmt.Sprintf("hf: non-positive preconditioner entry %v at %d", m, i))
			}
		}
	}

	// Solve A x = b with b = −g; then q(x) = φ(x) = −½ xᵀ(b + r).
	b := make(tensor.Vector, n)
	for i := range b {
		b[i] = -g[i]
	}
	x := d0.Clone()
	r := make(tensor.Vector, n)
	ax := make(tensor.Vector, n)
	apply(x, ax)
	for i := range r {
		r[i] = b[i] - ax[i]
	}
	z := make(tensor.Vector, n)
	applyPrecond(opts.Precond, r, z)
	p := z.Clone()
	ap := make(tensor.Vector, n)
	rz := r.Dot(z)

	res := CGResult{}
	phiHist := []float64{phi(x, b, r)}
	nextSave := 1
	saveIdx := func(i int) bool { return i == nextSave }

	for i := 1; i <= opts.MaxIters; i++ {
		var ok bool
		rz, ok = cgStep(apply, opts.Precond, x, r, z, p, ap, rz)
		if !ok {
			break
		}

		res.Iters = i
		ph := phi(x, b, r)
		phiHist = append(phiHist, ph)
		if saveIdx(i) {
			res.Iterates = append(res.Iterates, x.Clone())
			res.QValues = append(res.QValues, ph)
			ns := int(math.Ceil(float64(nextSave) * opts.SaveFactor))
			if ns <= nextSave {
				ns = nextSave + 1
			}
			nextSave = ns
		}

		// Martens stopping rule.
		k := opts.MinIters
		if i/10 > k {
			k = i / 10
		}
		if i > k && ph < 0 {
			prev := phiHist[i-k]
			if (ph-prev)/ph < float64(k)*opts.StopTol {
				break
			}
		}
	}

	// Always include the final iterate.
	if len(res.Iterates) == 0 || !sameVector(res.Iterates[len(res.Iterates)-1], x) {
		res.Iterates = append(res.Iterates, x.Clone())
		res.QValues = append(res.QValues, phiHist[len(phiHist)-1])
	}
	if res.Iters == 0 && len(phiHist) > 0 {
		// No progress possible (e.g. zero gradient): report the start point.
		res.QValues[len(res.QValues)-1] = phiHist[0]
	}
	return res
}

// cgStep performs one conjugate-gradient update in place: one curvature
// product, the α/β recurrences, and the preconditioned residual refresh.
// It returns the new rᵀz and ok=false when the recurrence must stop —
// a zero (or numerically negative) residual norm means convergence, and
// non-positive curvature pᵀAp means the damped Gauss-Newton product
// broke down numerically (it is PSD + λI by construction). This is the
// kernel that runs tens of times per outer HF iteration and drives the
// two collectives per CG iteration of the paper's Figure 5, so it must
// stay free of formatting, clock reads and boxing.
//
//lint:shape x=n r=n z=n p=n ap=n
//lint:hotpath
func cgStep(apply func(v, out tensor.Vector), precond tensor.Vector, x, r, z, p, ap tensor.Vector, rz float64) (rzNew float64, ok bool) {
	if rz <= 0 {
		return rz, false
	}
	for j := range ap {
		ap[j] = 0
	}
	apply(p, ap)
	pap := p.Dot(ap)
	if pap <= 0 {
		return rz, false
	}
	alpha := rz / pap
	x.AddScaled(float32(alpha), p)
	r.AddScaled(float32(-alpha), ap)
	applyPrecond(precond, r, z)
	rzNew = r.Dot(z)
	blas.Axpby(1, z, float32(rzNew/rz), p)
	if check.Enabled {
		check.Finite("hf.cg.iterate", x)
		check.Finite("hf.cg.direction", p)
	}
	return rzNew, true
}

// applyPrecond computes z = M⁻¹r for the diagonal preconditioner M
// (plain copy when unpreconditioned). The division loop runs inside the
// equal-length branch so prove sees len(z) == len(precond) == len(r)
// and drops every bounds check (the bce gate keeps it that way).
//
//lint:shape r=n z=n
//lint:hotpath
func applyPrecond(precond, r, z tensor.Vector) {
	if precond == nil {
		copy(z, r)
		return
	}
	if len(z) == len(r) && len(precond) == len(r) {
		for i := range r {
			//lint:ignore divguard CGMinimize panics on any non-positive preconditioner entry at entry
			z[i] = r[i] / precond[i]
		}
		return
	}
	precondMismatch()
}

// precondMismatch is the cold fail-fast for applyPrecond's length
// guard; hoisting the panic keeps the hot body escape-free (boxing the
// message escapes to the heap under -m=2).
//
//go:noinline
func precondMismatch() {
	panic("hf: applyPrecond length mismatch")
}

// phi evaluates the quadratic model value φ(x) = −½ xᵀ(b + r) where
// r = b − A x, the standard cheap expression used by Martens' stopping
// rule.
func phi(x, b, r tensor.Vector) float64 {
	var s float64
	for i := range x {
		s += float64(x[i]) * (float64(b[i]) + float64(r[i]))
	}
	return -0.5 * s
}

// sameVector reports bit-exact identity of two vectors — the intent here
// really is "is this the very iterate we just saved", so it compares the
// float32 bit patterns rather than using float equality (which would also
// treat -0 == 0 and NaN != NaN).
func sameVector(a, b tensor.Vector) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

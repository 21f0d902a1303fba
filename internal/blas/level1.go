package blas

import "fmt"

// Level-1 routines operate on raw float32 slices. They back the vector
// arithmetic of the CG loop and the elementwise stages of backpropagation.

// lenMismatch panics with the standard length-mismatch message. It
// exists so the hot-path guards below stay escape-free: fmt.Sprintf's
// argument pack heap-escapes, and hoisting the formatting into this
// never-inlined cold helper keeps the compiler-truth gate (internal/
// lint/escape) at zero escapes for the kernels themselves.
//
//go:noinline
func lenMismatch(op string, nx, ny int) {
	panic(fmt.Sprintf("blas: %s length mismatch %d vs %d", op, nx, ny))
}

// Axpy computes y += alpha*x.
//
// The loop runs inside the equal-length branch (here and in Dot and
// Axpby below) so the compiler's prove pass sees len(y) == len(x) on
// the hot path and drops the y[i] bounds check; the bce gate locks the
// kernels check-free.
//
//lint:shape x=n y=n
//lint:hotpath
func Axpy(alpha float32, x, y []float32) {
	if len(x) == len(y) {
		for i, v := range x {
			y[i] += alpha * v
		}
		return
	}
	lenMismatch("Axpy", len(x), len(y))
}

// Dot returns xᵀy accumulated in float64; CG's α and β recurrences are
// sensitive to the accuracy of these reductions.
//
//lint:shape x=n y=n
//lint:hotpath
func Dot(x, y []float32) float64 {
	if len(x) == len(y) {
		var s float64
		for i, v := range x {
			s += float64(v) * float64(y[i])
		}
		return s
	}
	lenMismatch("Dot", len(x), len(y))
	return 0
}

// Copy copies x into y.
//
//lint:shape x=n y=n
func Copy(x, y []float32) {
	if len(x) != len(y) {
		lenMismatch("Copy", len(x), len(y))
	}
	copy(y, x)
}

// Axpby computes y = alpha*x + beta*y, the fused update used by the CG
// direction recurrence p = r + beta*p.
//
//lint:shape x=n y=n
//lint:hotpath
func Axpby(alpha float32, x []float32, beta float32, y []float32) {
	if len(x) == len(y) {
		for i, v := range x {
			y[i] = alpha*v + beta*y[i]
		}
		return
	}
	lenMismatch("Axpby", len(x), len(y))
}

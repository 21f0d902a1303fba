//go:build checked

package check

import "fmt"

// Enabled reports whether invariant checks are compiled in; this build
// has the checked tag, so violations panic.
const Enabled = true

// Replay reports whether fine-grained replay hashing is compiled in;
// under the checked tag the HF optimizer additionally hashes every CG
// curvature application (direction and product), not just the
// per-iteration summaries. That pins divergence to the exact CG step
// at the cost of one hash pass per collective pair.
const Replay = true

// Finite panics if any element of x is NaN or ±Inf. name identifies the
// handoff point (e.g. "core.master.gradient") in the panic message.
func Finite(name string, x []float32) {
	if i := firstNonFinite(x); i >= 0 {
		panic(fmt.Sprintf("check: %s[%d] = %v is not finite (len %d)", name, i, x[i], len(x)))
	}
}

// FiniteScalar panics if v is NaN or ±Inf.
func FiniteScalar(name string, v float64) {
	if nonFinite(v) {
		panic(fmt.Sprintf("check: %s = %v is not finite", name, v))
	}
}

// Dims panics when got differs from want — the shape assertion guarding
// vector handoffs whose lengths must agree with the parameter dimension.
func Dims(name string, got, want int) {
	if got != want {
		panic(fmt.Sprintf("check: %s has %d elements, want %d", name, got, want))
	}
}

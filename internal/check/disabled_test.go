//go:build !checked

package check

import (
	"math"
	"testing"
)

// TestDisabledIsNoop pins the default build's contract: Enabled is a
// false constant (so `if check.Enabled` blocks are dead-code-eliminated)
// and every check accepts violating inputs without panicking.
func TestDisabledIsNoop(t *testing.T) {
	if Enabled || Replay {
		t.Fatal("Enabled and Replay must both be false without the checked tag")
	}
	Finite("noop", []float32{float32(math.NaN())})
	FiniteScalar("noop", math.Inf(1))
	Dims("noop", 3, 7)
}

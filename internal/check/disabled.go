//go:build !checked

package check

// Enabled reports whether invariant checks are compiled in; without the
// checked build tag every check below is an empty, inlinable no-op, and
// `if check.Enabled { ... }` blocks are eliminated entirely.
const Enabled = false

// Replay reports whether fine-grained replay hashing is compiled in;
// without the checked build tag the optimizer records only the
// per-iteration summary hashes (gradient, CG result, step, θ), which is
// enough for the replay gate to detect divergence — the tag narrows it
// to the exact CG application.
const Replay = false

// Finite is a no-op in this build; see the checked tag.
func Finite(name string, x []float32) {}

// FiniteScalar is a no-op in this build; see the checked tag.
func FiniteScalar(name string, v float64) {}

// Dims is a no-op in this build; see the checked tag.
func Dims(name string, got, want int) {}

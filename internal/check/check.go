// Package check provides runtime invariant checks for the numeric core:
// NaN/Inf scans over gradients and CG directions, and tensor shape
// assertions at the points where Algorithm 1 hands vectors between the
// master and the workers.
//
// The checks compile to no-ops unless the build carries the
// checked tag (which also turns on fine-grained replay hashing, see
// Replay, and protocol-checks every mpi communicator):
//
//	go test -tags checked ./...
//	go build -tags checked ./cmd/hftrain
//
// With the tag set, a violated invariant panics with the instrument name
// and the offending index/value — a NaN that leaks into a CG direction is
// broadcast to every rank and silently poisons the whole run (the
// second-order fragility Martens 2010 warns about), so the debug build
// fails loudly at the first handoff instead. Call sites on hot paths
// should gate on the Enabled constant so the disabled build spends
// nothing, not even argument evaluation:
//
//	if check.Enabled {
//		check.Finite("hf.cg.iterate", x)
//	}
package check

import "math"

// firstNonFinite returns the index of the first NaN or ±Inf element of x,
// or -1 when every element is finite. It is compiled unconditionally so
// the scan logic is testable without the build tag.
func firstNonFinite(x []float32) int {
	for i, v := range x {
		f := float64(v)
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return i
		}
	}
	return -1
}

// nonFinite reports whether v is NaN or ±Inf.
func nonFinite(v float64) bool {
	return math.IsNaN(v) || math.IsInf(v, 0)
}

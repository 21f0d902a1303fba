//go:build !checked

package mpi

// checkedByDefault reports whether NewComm enables protocol conformance
// checking unconditionally. Without the checked build tag checking is
// opt-in via NewCheckedComm, and every collective pays only a nil
// pointer test for the instrumentation.
const checkedByDefault = false

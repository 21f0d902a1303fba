//go:build checked

package mpi

// checkedByDefault reports whether NewComm enables protocol conformance
// checking unconditionally. This build carries the checked tag, so
// every communicator in the process — tests, examples, the trainer —
// runs with piggybacked protocol headers and the watchdog, with the
// default deadline and history depth:
//
//	go test -tags checked ./internal/mpi ./internal/core
const checkedByDefault = true

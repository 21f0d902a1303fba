// Package mpi is a message-passing library with MPI semantics, replacing
// the Blue Gene/Q MPI/PAMI stack the paper's application runs on (§V-B).
//
// It provides ranks, tagged point-to-point Send/Recv, and tree-based
// collectives (Bcast, Reduce, Barrier) over pluggable transports:
//
//   - the in-process fabric (goroutines + channels-free mailboxes), used by
//     tests, examples and the single-binary distributed trainer; and
//   - a TCP fabric (net, length-prefixed frames) for multi-process runs.
//
// Every tag the module uses — the collectives' blocks and each
// protocol's point tags — is declared once, in tags.go.
//
// Every Comm records wall-clock time, bytes and call counts split into
// point-to-point and collective categories per named phase — the same
// split the paper reports in its Figures 4 and 5 MPI breakdowns.
package mpi

import (
	"errors"
	"fmt"
)

// AnySource matches a message from any rank in Recv.
const AnySource = -1

// AnyTag matches a message with any tag in Recv.
const AnyTag = -1

// ErrClosed is returned by operations on a closed transport.
var ErrClosed = errors.New("mpi: transport closed")

// Message is a received point-to-point message.
type Message struct {
	Src  int
	Tag  int
	Data []byte
}

// Transport moves raw tagged byte messages between ranks. Implementations
// must be safe for one sending and one receiving goroutine per rank (the
// usage pattern of a single-threaded MPI rank).
type Transport interface {
	// Rank returns this endpoint's rank in [0, Size).
	Rank() int
	// Size returns the number of ranks.
	Size() int
	// Send delivers data to dst with the given tag. The data is copied (or
	// serialized) before Send returns; the caller may reuse the buffer.
	Send(dst, tag int, data []byte) error
	// Recv blocks until a message matching (src, tag) arrives and returns
	// it. src may be AnySource and tag may be AnyTag.
	Recv(src, tag int) (Message, error)
	// Close shuts the endpoint down; blocked and future calls fail with
	// ErrClosed.
	Close() error
}

// checkRank validates rank ∈ [0, size). Public collective and transport
// paths return the error so a bad root surfaces as an mpi error on the
// calling rank instead of killing it; constructors without an error
// return use mustRank.
func checkRank(what string, rank, size int) error {
	if rank < 0 || rank >= size {
		return fmt.Errorf("mpi: %s rank %d out of range [0,%d)", what, rank, size)
	}
	return nil
}

// mustRank is checkRank for infallible accessors (fabric construction),
// where an out-of-range rank is a programming error with no error path.
func mustRank(what string, rank, size int) {
	if err := checkRank(what, rank, size); err != nil {
		panic(err.Error())
	}
}

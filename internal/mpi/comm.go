package mpi

import (
	"fmt"
	"time"

	"repro/internal/obs"
)

// Op is a reduction operator for Reduce.
type Op int

const (
	// OpSum adds elementwise.
	OpSum Op = iota
	// OpMax takes the elementwise maximum.
	OpMax
	// OpMin takes the elementwise minimum.
	OpMin
)

func (op Op) foldF32(dst, src []float32) {
	switch op {
	case OpSum:
		for i, v := range src {
			dst[i] += v
		}
	case OpMax:
		for i, v := range src {
			if v > dst[i] {
				dst[i] = v
			}
		}
	case OpMin:
		for i, v := range src {
			if v < dst[i] {
				dst[i] = v
			}
		}
	default:
		panic(fmt.Sprintf("mpi: unknown op %d", op))
	}
}

// Comm is a communicator: a transport endpoint plus typed point-to-point
// operations, tree collectives and a communication profiler. One Comm
// serves one rank and is not safe for concurrent operations, matching the
// single-threaded-rank model of the paper's application.
type Comm struct {
	t    Transport
	prof *Profiler
}

// NewComm wraps a transport endpoint in a communicator.
func NewComm(t Transport) *Comm {
	return &Comm{t: t, prof: NewProfiler()}
}

// Rank returns this communicator's rank.
func (c *Comm) Rank() int { return c.t.Rank() }

// Size returns the number of ranks.
func (c *Comm) Size() int { return c.t.Size() }

// Profiler returns the communication profiler for this rank.
func (c *Comm) Profiler() *Profiler { return c.prof }

// SetMetrics routes this communicator's per-operation latency/bytes
// data into the given obs registry (see Profiler.SetRegistry); nil
// detaches. Disabled communicators pay only a nil check per operation.
func (c *Comm) SetMetrics(r *obs.Registry) { c.prof.SetRegistry(r) }

// SetPhase labels subsequent communication for the profiler.
func (c *Comm) SetPhase(name string) { c.prof.SetPhase(name) }

// Close shuts down the underlying transport.
func (c *Comm) Close() error { return c.t.Close() }

// --- point-to-point ---

// SendBytes sends a tagged byte message to dst (profiled as p2p).
func (c *Comm) SendBytes(dst, tag int, data []byte) error {
	start := time.Now()
	err := c.t.Send(dst, tag, data)
	c.prof.addOp(CatP2P, "send", time.Since(start), int64(len(data)))
	return err
}

// RecvBytes blocks for a message matching (src, tag) and returns it.
func (c *Comm) RecvBytes(src, tag int) (Message, error) {
	start := time.Now()
	msg, err := c.t.Recv(src, tag)
	c.prof.addOp(CatP2P, "recv", time.Since(start), int64(len(msg.Data)))
	return msg, err
}

// RecvBytesTimeout is RecvBytes bounded by a deadline: if no matching
// message arrives within d it fails with an error wrapping ErrTimeout
// instead of blocking. d <= 0 blocks like RecvBytes. The elastic
// runtime's failure detector is built on this.
func (c *Comm) RecvBytesTimeout(src, tag int, d time.Duration) (Message, error) {
	start := time.Now()
	msg, err := RecvTimeout(c.t, src, tag, d)
	c.prof.addOp(CatP2P, "recv", time.Since(start), int64(len(msg.Data)))
	return msg, err
}

// SendF32 sends a float32 slice to dst.
func (c *Comm) SendF32(dst, tag int, x []float32) error {
	return c.SendBytes(dst, tag, encodeF32(x))
}

// RecvF32 receives a float32 slice of exactly len(x) elements into x and
// returns the source rank.
func (c *Comm) RecvF32(src, tag int, x []float32) (int, error) {
	msg, err := c.RecvBytes(src, tag)
	if err != nil {
		return 0, err
	}
	return msg.Src, decodeF32Into(msg.Data, x)
}

// --- collectives ---
// All collectives must be called by every rank of the communicator with
// compatible arguments, like their MPI counterparts.

// timedCollective wraps fn with collective-category profiling under the
// given operation name (the per-collective histogram key).
func (c *Comm) timedCollective(op string, bytes int64, fn func() error) error {
	start := time.Now()
	err := fn()
	c.prof.addOp(CatCollective, op, time.Since(start), bytes)
	return err
}

// vrank maps rank into the tree rooted at root.
func vrank(rank, root, size int) int { return (rank - root + size) % size }

// absRank inverts vrank.
func absRank(v, root, size int) int { return (v + root) % size }

// Bcast broadcasts buf from root to all ranks along a binomial tree, the
// optimized weight-synchronization path of §V-B. On non-root ranks buf is
// overwritten with root's data.
func (c *Comm) Bcast(root int, buf []float32) error {
	if err := checkRank("bcast root", root, c.Size()); err != nil {
		return err
	}
	return c.timedCollective("bcast", int64(4*len(buf)), func() error {
		size := c.Size()
		if size == 1 {
			return nil
		}
		vr := vrank(c.Rank(), root, size)
		mask := 1
		for mask < size {
			if vr&mask != 0 {
				src := absRank(vr-mask, root, size)
				msg, err := c.t.Recv(src, tagBcast)
				if err != nil {
					return err
				}
				if err := decodeF32Into(msg.Data, buf); err != nil {
					return err
				}
				break
			}
			mask <<= 1
		}
		mask >>= 1
		payload := encodeF32(buf)
		// Best-effort fan-out: a dead subtree must not starve the live
		// ones, so remaining sends proceed and the first error is
		// reported after the loop.
		var sendErr error
		for mask > 0 {
			if vr+mask < size {
				dst := absRank(vr+mask, root, size)
				if err := c.t.Send(dst, tagBcast, payload); err != nil && sendErr == nil {
					sendErr = err
				}
			}
			mask >>= 1
		}
		return sendErr
	})
}

// Reduce combines buf across ranks with op along a binomial tree; the
// result lands in root's buf. Non-root buffers hold partial sums on
// return, as in MPI where only the root's receive buffer is significant.
// The combine order is a fixed function of the communicator size, so
// results are deterministic run to run.
func (c *Comm) Reduce(root int, op Op, buf []float32) error {
	if err := checkRank("reduce root", root, c.Size()); err != nil {
		return err
	}
	return c.timedCollective("reduce", int64(4*len(buf)), func() error {
		size := c.Size()
		vr := vrank(c.Rank(), root, size)
		tmp := make([]float32, len(buf))
		for mask := 1; mask < size; mask <<= 1 {
			if vr&mask != 0 {
				dst := absRank(vr-mask, root, size)
				return c.t.Send(dst, tagReduce, encodeF32(buf))
			}
			peer := vr | mask
			if peer < size {
				src := absRank(peer, root, size)
				msg, err := c.t.Recv(src, tagReduce)
				if err != nil {
					return err
				}
				if err := decodeF32Into(msg.Data, tmp); err != nil {
					return err
				}
				op.foldF32(buf, tmp)
			}
		}
		return nil
	})
}

// Barrier blocks until every rank has entered it (dissemination barrier,
// ⌈log₂P⌉ rounds).
func (c *Comm) Barrier() error {
	return c.timedCollective("barrier", 0, func() error {
		size := c.Size()
		rank := c.Rank()
		for dist := 1; dist < size; dist <<= 1 {
			dst := (rank + dist) % size
			src := (rank - dist + size) % size
			if err := c.t.Send(dst, tagBarrier+dist, nil); err != nil {
				return err
			}
			if _, err := c.t.Recv(src, tagBarrier+dist); err != nil {
				return err
			}
		}
		return nil
	})
}

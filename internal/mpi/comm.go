package mpi

import (
	"fmt"
	"time"

	"repro/internal/obs"
)

// Op is a reduction operator for Reduce/Allreduce.
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

func (op Op) foldF64(dst, src []float64) {
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
	chk  *protoChecker // nil: protocol conformance checking off
}

// NewComm wraps a transport endpoint in a communicator. Under the
// checked build tag the communicator is protocol-checked with the
// default CheckConfig; see CheckedComm.
func NewComm(t Transport) *Comm {
	c := &Comm{t: t, prof: NewProfiler()}
	if checkedByDefault {
		c.chk = newProtoChecker(t.Rank(), CheckConfig{})
	}
	return c
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

// Transport exposes the underlying transport so callers can reach
// optional capabilities (DeadlineRecver, WriteDeadliner, fault epochs).
func (c *Comm) Transport() Transport { return c.t }

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

// SendInts sends an int slice to dst.
func (c *Comm) SendInts(dst, tag int, x []int) error {
	return c.SendBytes(dst, tag, encodeInts(x))
}

// RecvInts receives an int slice from src.
func (c *Comm) RecvInts(src, tag int) ([]int, error) {
	msg, err := c.RecvBytes(src, tag)
	if err != nil {
		return nil, err
	}
	return decodeInts(msg.Data)
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
	c.enter(CollBcast, DtypeF32, root, len(buf), 1)
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
				msg, err := c.collRecv(src, tagBcast)
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
				if err := c.collSend(dst, tagBcast, payload); err != nil && sendErr == nil {
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
	c.enter(CollReduce, DtypeF32, root, len(buf), 1)
	return c.timedCollective("reduce", int64(4*len(buf)), func() error {
		size := c.Size()
		vr := vrank(c.Rank(), root, size)
		tmp := make([]float32, len(buf))
		for mask := 1; mask < size; mask <<= 1 {
			if vr&mask != 0 {
				dst := absRank(vr-mask, root, size)
				return c.collSend(dst, tagReduce, encodeF32(buf))
			}
			peer := vr | mask
			if peer < size {
				src := absRank(peer, root, size)
				msg, err := c.collRecv(src, tagReduce)
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

// ReduceF64 is Reduce for float64 payloads (losses and statistics that
// need double-precision accumulation).
func (c *Comm) ReduceF64(root int, op Op, buf []float64) error {
	if err := checkRank("reduce root", root, c.Size()); err != nil {
		return err
	}
	c.enter(CollReduce, DtypeF64, root, len(buf), 1)
	return c.timedCollective("reduce", int64(8*len(buf)), func() error {
		size := c.Size()
		vr := vrank(c.Rank(), root, size)
		tmp := make([]float64, len(buf))
		for mask := 1; mask < size; mask <<= 1 {
			if vr&mask != 0 {
				dst := absRank(vr-mask, root, size)
				return c.collSend(dst, tagReduce, encodeF64(buf))
			}
			peer := vr | mask
			if peer < size {
				src := absRank(peer, root, size)
				msg, err := c.collRecv(src, tagReduce)
				if err != nil {
					return err
				}
				if err := decodeF64Into(msg.Data, tmp); err != nil {
					return err
				}
				op.foldF64(buf, tmp)
			}
		}
		return nil
	})
}

// Allreduce combines buf across ranks with op and leaves the identical
// result in every rank's buf. Power-of-two communicators use recursive
// doubling (log₂P exchange rounds, each of the full payload); other sizes
// fall back to reduce-to-0 + broadcast. Floating-point addition is
// commutative, so recursive doubling still produces bitwise-identical
// results on every rank.
func (c *Comm) Allreduce(op Op, buf []float32) error {
	size := c.Size()
	if !isPowerOfTwo(size) {
		if err := c.Reduce(0, op, buf); err != nil {
			return err
		}
		return c.Bcast(0, buf)
	}
	c.enter(CollAllreduce, DtypeF32, -1, len(buf), 1)
	return c.timedCollective("allreduce", int64(4*len(buf)), func() error {
		rank := c.Rank()
		tmp := make([]float32, len(buf))
		for mask := 1; mask < size; mask <<= 1 {
			partner := rank ^ mask
			if err := c.collSend(partner, tagAllredRD+mask, encodeF32(buf)); err != nil {
				return err
			}
			msg, err := c.collRecv(partner, tagAllredRD+mask)
			if err != nil {
				return err
			}
			if err := decodeF32Into(msg.Data, tmp); err != nil {
				return err
			}
			op.foldF32(buf, tmp)
		}
		return nil
	})
}

// AllreduceF64 is Allreduce for float64 payloads.
func (c *Comm) AllreduceF64(op Op, buf []float64) error {
	if err := c.ReduceF64(0, op, buf); err != nil {
		return err
	}
	// Broadcast the float64 result via the byte path of Bcast's tree.
	c.enter(CollBcast, DtypeF64, 0, len(buf), 1)
	return c.timedCollective("bcast", int64(8*len(buf)), func() error {
		size := c.Size()
		if size == 1 {
			return nil
		}
		vr := c.Rank()
		mask := 1
		for mask < size {
			if vr&mask != 0 {
				msg, err := c.collRecv(vr-mask, tagBcast)
				if err != nil {
					return err
				}
				if err := decodeF64Into(msg.Data, buf); err != nil {
					return err
				}
				break
			}
			mask <<= 1
		}
		mask >>= 1
		payload := encodeF64(buf)
		var sendErr error
		for mask > 0 {
			if vr+mask < size {
				if err := c.collSend(vr+mask, tagBcast, payload); err != nil && sendErr == nil {
					sendErr = err
				}
			}
			mask >>= 1
		}
		return sendErr
	})
}

// Barrier blocks until every rank has entered it (dissemination barrier,
// ⌈log₂P⌉ rounds).
func (c *Comm) Barrier() error {
	c.enter(CollBarrier, DtypeNone, -1, 0, 1)
	return c.timedCollective("barrier", 0, func() error {
		size := c.Size()
		rank := c.Rank()
		for dist := 1; dist < size; dist <<= 1 {
			dst := (rank + dist) % size
			src := (rank - dist + size) % size
			if err := c.collSend(dst, tagBarrier+dist, nil); err != nil {
				return err
			}
			if _, err := c.collRecv(src, tagBarrier+dist); err != nil {
				return err
			}
		}
		return nil
	})
}

// Gather collects each rank's fixed-size send buffer into root's recv
// buffer (rank i's data at recv[i*len(send):]). recv is only used at root,
// where it must have Size()*len(send) elements.
func (c *Comm) Gather(root int, send, recv []float32) error {
	if err := checkRank("gather root", root, c.Size()); err != nil {
		return err
	}
	c.enter(CollGather, DtypeF32, root, len(send), 1)
	return c.timedCollective("gather", int64(4*len(send)), func() error {
		if c.Rank() != root {
			return c.collSend(root, tagGather, encodeF32(send))
		}
		n := len(send)
		if len(recv) != n*c.Size() {
			return fmt.Errorf("mpi: Gather recv %d elements, want %d", len(recv), n*c.Size())
		}
		copy(recv[root*n:(root+1)*n], send)
		for r := 0; r < c.Size(); r++ {
			if r == root {
				continue
			}
			msg, err := c.collRecv(r, tagGather)
			if err != nil {
				return err
			}
			if err := decodeF32Into(msg.Data, recv[r*n:(r+1)*n]); err != nil {
				return err
			}
		}
		return nil
	})
}

// Scatter distributes equal slices of root's send buffer to every rank's
// recv buffer (rank i gets send[i*len(recv):]). send is only used at root,
// where it must have Size()*len(recv) elements.
func (c *Comm) Scatter(root int, send, recv []float32) error {
	if err := checkRank("scatter root", root, c.Size()); err != nil {
		return err
	}
	c.enter(CollScatter, DtypeF32, root, len(recv), 1)
	return c.timedCollective("scatter", int64(4*len(recv)), func() error {
		n := len(recv)
		if c.Rank() == root {
			if len(send) != n*c.Size() {
				return fmt.Errorf("mpi: Scatter send %d elements, want %d", len(send), n*c.Size())
			}
			var sendErr error
			for r := 0; r < c.Size(); r++ {
				if r == root {
					copy(recv, send[r*n:(r+1)*n])
					continue
				}
				if err := c.collSend(r, tagScatter, encodeF32(send[r*n:(r+1)*n])); err != nil && sendErr == nil {
					sendErr = err
				}
			}
			return sendErr
		}
		msg, err := c.collRecv(root, tagScatter)
		if err != nil {
			return err
		}
		return decodeF32Into(msg.Data, recv)
	})
}

// Allgather concatenates every rank's fixed-size send buffer into each
// rank's recv buffer using a ring, recv[i*len(send):] holding rank i's
// contribution.
func (c *Comm) Allgather(send, recv []float32) error {
	c.enter(CollAllgather, DtypeF32, -1, len(send), 1)
	return c.timedCollective("allgather", int64(4*len(send)), func() error {
		size := c.Size()
		rank := c.Rank()
		n := len(send)
		if len(recv) != n*size {
			return fmt.Errorf("mpi: Allgather recv %d elements, want %d", len(recv), n*size)
		}
		copy(recv[rank*n:(rank+1)*n], send)
		right := (rank + 1) % size
		left := (rank - 1 + size) % size
		// Ring: in step s, forward the block received in step s-1.
		blk := rank
		for s := 0; s < size-1; s++ {
			if err := c.collSend(right, tagAllgather+s, encodeF32(recv[blk*n:(blk+1)*n])); err != nil {
				return err
			}
			msg, err := c.collRecv(left, tagAllgather+s)
			if err != nil {
				return err
			}
			blk = (blk - 1 + size) % size
			if err := decodeF32Into(msg.Data, recv[blk*n:(blk+1)*n]); err != nil {
				return err
			}
		}
		return nil
	})
}

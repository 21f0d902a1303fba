package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"strings"
	"time"

	"repro/internal/mpi"
	"repro/internal/tensor"
)

// carrier is how the master gets one op of the table (ops.go) to the
// workers and their summed answer back. There are exactly two:
//
//   - tree: the paper's collectives. Command and payload go down by
//     Bcast, vector and scalars come back by Reduce, along mpi's fixed
//     binomial tree. Any failure is fatal: a dead rank breaks the tree.
//   - star: one point-to-point frame per worker and one reply each,
//     folded in ascending rank order under a deadline. A failure names
//     its ranks, which is what lets elastic.go evict and rewind.
//
// Session picks star when a FaultPolicy is present, tree otherwise.
type carrier interface {
	// issue runs op on every worker: arg and, for a payload row, down
	// travel out; the row's vector and scalars come back summed into up
	// and sc. A nil error means every worker answered.
	issue(op int, arg float32, down, up tensor.Vector, sc []float64) error
	// workers lists the ranks issue reaches, ascending.
	workers() []int
}

// tree carries ops over mpi collectives rooted at the master, which
// contributes zeros to every reduction (the paper's coordinate-only
// master).
type tree struct{ comm *mpi.Comm }

func (t tree) workers() []int {
	ranks := make([]int, t.comm.Size()-1)
	for i := range ranks {
		ranks[i] = i + 1
	}
	return ranks
}

func (t tree) issue(op int, arg float32, down, up tensor.Vector, sc []float64) error {
	row := &ops[op]
	err := t.comm.Bcast(0, []float32{float32(op), arg})
	if err == nil && row.down {
		err = t.comm.Bcast(0, down)
	}
	if err == nil && row.up {
		up.Zero()
		err = t.comm.Reduce(0, mpi.OpSum, up)
	}
	if err == nil && row.scalars > 0 {
		clear(sc)
		err = t.comm.ReduceF64(0, mpi.OpSum, sc[:row.scalars])
	}
	if err != nil {
		return fmt.Errorf("core: %s: %w", row.name, err)
	}
	return nil
}

// tagElastic carries every master→worker star frame, in FIFO order on
// one tag so workers can never block on an out-of-order match.
const tagElastic = 9500

// tagElasticReply is the base tag of worker→master replies; the round
// number is added, so replies from before an eviction can never be
// mistaken for current ones.
const tagElasticReply = 16 << 24

// Star frame types (first byte of every tagElastic message).
const (
	emOp    byte = 1 // one op of the table: [op][arg f32][payload]
	emShard byte = 2 // re-shard supplement: gob shardSupplement
	emPing  byte = 3 // heartbeat: [replyTag u32][seq u32]
	emStop  byte = 4 // shut the worker down (how opStop travels)
)

// emEncode frames one star message: [type][round u32][body].
func emEncode(typ byte, round int, body []byte) []byte {
	b := make([]byte, 0, 5+len(body))
	b = append(b, typ)
	b = binary.LittleEndian.AppendUint32(b, uint32(round))
	return append(b, body...)
}

// emDecode splits a star message into type, round and body.
func emDecode(data []byte) (typ byte, round int, body []byte, err error) {
	if len(data) < 5 {
		return 0, 0, nil, fmt.Errorf("core: elastic message %d bytes, want >= 5", len(data))
	}
	return data[0], int(binary.LittleEndian.Uint32(data[1:5])), data[5:], nil
}

// emOpBody builds the body of an emOp frame: [op][arg f32][payload].
func emOpBody(op int, arg float32, payload []byte) []byte {
	b := make([]byte, 0, 5+len(payload))
	b = append(b, byte(op))
	b = binary.LittleEndian.AppendUint32(b, math.Float32bits(arg))
	return append(b, payload...)
}

// suspectRank is a worker that failed an op, and how.
type suspectRank struct {
	rank  int
	cause error
}

// rankFailure is the star carrier's failure report: which ranks failed
// which op. It is the only way into eviction and rewind.
type rankFailure struct {
	op       string
	suspects []suspectRank // ascending rank
}

func (f *rankFailure) Error() string {
	parts := make([]string, len(f.suspects))
	for i, s := range f.suspects {
		parts[i] = fmt.Sprintf("rank %d: %v", s.rank, s.cause)
	}
	return "core: " + f.op + " failed on " + strings.Join(parts, "; ")
}

// Unwrap exposes the first suspect's cause (mpi.ErrTimeout, …).
func (f *rankFailure) Unwrap() error { return f.suspects[0].cause }

// star carries ops as point-to-point frames to the live workers.
type star struct {
	comm     *mpi.Comm
	deadline time.Duration // per-reply wait (FaultPolicy.OpDeadline)
	dim      int
	round    int   // bumped on every resync; orphans stale replies
	live     []int // live worker ranks, ascending
}

func (s *star) workers() []int { return s.live }

// issue sends one frame per live worker — payload inline, so a worker
// never waits for a second message — then, for a row with a reply,
// collects one well-formed reply each in ascending rank order, the
// deterministic fold order. What arrived is folded even when some
// ranks fail; the returned rankFailure names those.
func (s *star) issue(op int, arg float32, down, up tensor.Vector, sc []float64) error {
	row := &ops[op]
	if op == opStop {
		return s.failure(row.name, s.fanOut(emEncode(emStop, s.round, nil)))
	}
	var payload []byte
	if row.down {
		payload = encodeVec(down)
	}
	errs := s.fanOut(emEncode(emOp, s.round, emOpBody(op, arg, payload)))
	if nvec, want := row.replyLen(s.dim); want > 0 {
		if row.up {
			up.Zero()
		}
		clear(sc)
		buf := tensor.NewVector(nvec / 4)
		for i, w := range s.live {
			if errs[i] != nil {
				continue
			}
			msg, err := s.comm.RecvBytesTimeout(w, tagElasticReply+s.round, s.deadline)
			if err == nil && len(msg.Data) != want {
				err = fmt.Errorf("malformed %s reply: %d bytes, want %d", row.name, len(msg.Data), want)
			}
			if err == nil {
				err = decodeInto(msg.Data[:nvec], buf)
			}
			if err != nil {
				errs[i] = err
				continue
			}
			if row.up {
				up.AddScaled(1, buf)
			}
			for j := range sc[:row.scalars] {
				sc[j] += math.Float64frombits(binary.LittleEndian.Uint64(msg.Data[nvec+8*j:]))
			}
		}
	}
	return s.failure(row.name, errs)
}

// fanOut sends frame to every live worker; errs[i] is live[i]'s outcome.
func (s *star) fanOut(frame []byte) []error {
	errs := make([]error, len(s.live))
	for i, w := range s.live {
		errs[i] = s.comm.SendBytes(w, tagElastic, frame)
	}
	return errs
}

// failure turns per-live-rank errors into a rankFailure, nil if none.
func (s *star) failure(op string, errs []error) error {
	var suspects []suspectRank
	for i, err := range errs {
		if err != nil {
			suspects = append(suspects, suspectRank{s.live[i], err})
		}
	}
	if suspects == nil {
		return nil
	}
	return &rankFailure{op: op, suspects: suspects}
}

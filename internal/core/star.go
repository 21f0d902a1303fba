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

// The wire. The master gets one op of the table (ops.go) to the workers
// as one point-to-point frame each and folds their one reply each in
// ascending rank order, so a send error, a missed deadline or a malformed
// reply names its rank. That rankFailure is the door into eviction and
// rewind (elastic.go), or, with an eviction budget of 0, the run's end.

// Star frame types (first byte of every mpi.TagStarCmd message). Like
// the opcodes they key an array literal, so a duplicate does not compile.
const (
	emOp    byte = 1 // one op of the table: [op][arg f32][payload]
	emShard byte = 2 // re-shard supplement: gob shardSupplement
	emPing  byte = 3 // heartbeat: [replyTag u32][seq u32]
	emStop  byte = 4 // shut the worker down (how opStop travels)
)

var emNames = [...]string{
	emOp:    "op",
	emShard: "shard",
	emPing:  "ping",
	emStop:  "stop",
}

// emName renders a frame type for errors: its name, or the bare number
// for a byte outside the table.
func emName(typ byte) string {
	if int(typ) < len(emNames) && emNames[typ] != "" {
		return emNames[typ]
	}
	return fmt.Sprintf("type(%d)", typ)
}

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

// rankFailure is the star's failure report: which ranks failed which
// op. It is the only way into eviction and rewind.
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
	comm *mpi.Comm
	// deadline bounds the wait for each reply (FaultPolicy.OpDeadline).
	deadline time.Duration
	dim      int
	round    int   // bumped on every resync; orphans stale replies
	live     []int // live worker ranks, ascending
}

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
			msg, err := s.comm.RecvBytesTimeout(w, mpi.TagStarReply+s.round, s.deadline)
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
		errs[i] = s.comm.SendBytes(w, mpi.TagStarCmd, frame)
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
	if s.comm.Closed() {
		// The master's own endpoint is gone, so every worker's op failed
		// for that reason: naming them would evict healthy ranks.
		return fmt.Errorf("core: %s: the master's transport is closed: %w", op, mpi.ErrClosed)
	}
	return &rankFailure{op: op, suspects: suspects}
}

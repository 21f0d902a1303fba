package serve

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/mpi"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// The replica protocol's opcodes: the first byte of every message on
// mpi.TagServeReq (master→replica, routed by ServeReplica's switch) and
// mpi.TagServeRes (replica→master, consumed by replicaScorer.score).
// Request and reply values are distinct so a misrouted frame is
// diagnosable by opcode alone, and all four key svNames, so a duplicate
// does not compile.
const (
	svScore byte = 1 // request: score a batch: [rows u32][cols u32][rows*cols f32]
	svStop  byte = 2 // request: drain and exit the replica loop
	svOK    byte = 3 // reply: scored logits: [rows u32][cols u32][rows*cols f32]
	svErr   byte = 4 // reply: replica-side failure: [error string]
)

var svNames = [...]string{
	svScore: "score",
	svStop:  "stop",
	svOK:    "ok",
	svErr:   "err",
}

// svName renders a serve opcode for diagnostics: its name, or the bare
// number for a byte outside the table.
func svName(op byte) string {
	if int(op) < len(svNames) && svNames[op] != "" {
		return svNames[op]
	}
	return fmt.Sprintf("op(%d)", op)
}

// svHeader is [op u8][rows u32][cols u32].
const svHeader = 1 + 4 + 4

// appendBatch encodes a score request or reply: opcode, row/col header,
// then the matrix's live rows in row-major float32 bits.
func appendBatch(dst []byte, op byte, m *tensor.Matrix) []byte {
	dst = append(dst, op)
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(m.Rows))
	binary.LittleEndian.PutUint32(hdr[4:], uint32(m.Cols))
	dst = append(dst, hdr[:]...)
	var w [4]byte
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for _, v := range row {
			binary.LittleEndian.PutUint32(w[:], math.Float32bits(v))
			dst = append(dst, w[:]...)
		}
	}
	return dst
}

// decodeBatch decodes the row/col header and payload of a score
// request or reply into m, which must have capacity for the decoded
// rows (maxRows bounds a lying header before anything is copied).
func decodeBatch(body []byte, m *tensor.Matrix, maxRows, wantCols int) error {
	if len(body) < svHeader-1 {
		return fmt.Errorf("serve: batch frame %d bytes, want ≥ %d", len(body), svHeader-1)
	}
	rows := int(binary.LittleEndian.Uint32(body[0:]))
	cols := int(binary.LittleEndian.Uint32(body[4:]))
	if cols != wantCols {
		return fmt.Errorf("serve: batch has %d columns, model wants %d", cols, wantCols)
	}
	if rows < 0 || rows > maxRows {
		return fmt.Errorf("serve: batch claims %d rows, limit %d", rows, maxRows)
	}
	want := (svHeader - 1) + rows*cols*4
	if len(body) != want {
		return fmt.Errorf("serve: batch frame %d bytes, want %d for %d×%d", len(body), want, rows, cols)
	}
	m.Rows = rows
	off := svHeader - 1
	for i := 0; i < rows; i++ {
		row := m.Row(i)
		for j := range row {
			row[j] = math.Float32frombits(binary.LittleEndian.Uint32(body[off:]))
			off += 4
		}
	}
	return nil
}

// replicaScorer is the master-side half of the replica protocol: each
// scoring worker owns one, pinned to one replica rank, and ships its
// batches there instead of running the network locally. Request and
// reply buffers are preallocated for MaxBatch rows, so steady-state
// fan-out allocates only what mpi's transport copies.
type replicaScorer struct {
	comm   *mpi.Comm
	rank   int
	x      *tensor.Matrix // staging for the batch rows
	logits *tensor.Matrix // decoded reply
	wire   []byte         // reusable encode buffer
}

func newReplicaScorer(comm *mpi.Comm, rank int, topo nn.Topology, maxBatch int) *replicaScorer {
	return &replicaScorer{
		comm:   comm,
		rank:   rank,
		x:      tensor.NewMatrix(maxBatch, topo.InputDim()),
		logits: tensor.NewMatrix(maxBatch, topo.OutputDim()),
		wire:   make([]byte, 0, svHeader+maxBatch*topo.InputDim()*4),
	}
}

// replyDeadline bounds the wait for one scored batch, so a replica that
// is connected but wedged fails its batch instead of parking the scoring
// worker, and every request batched onto it, forever. A variable only so
// a test can shorten it.
var replyDeadline = mpi.DefaultOpDeadline

// score ships the batch to the pinned replica and decodes its reply. A
// missed reply wraps ErrWorkerLost: a late one would pair with the next
// batch, so the worker leaves the pool instead of sending another.
func (sc *replicaScorer) score(batch []*request) (*tensor.Matrix, error) {
	x := stage(sc.x, batch)
	sc.wire = appendBatch(sc.wire[:0], svScore, x)
	if err := sc.comm.SendBytes(sc.rank, mpi.TagServeReq, sc.wire); err != nil {
		return nil, fmt.Errorf("serve: replica %d send: %w", sc.rank, err)
	}
	msg, err := sc.comm.RecvBytesTimeout(sc.rank, mpi.TagServeRes, replyDeadline)
	if err != nil {
		return nil, fmt.Errorf("%w: replica %d recv: %w", ErrWorkerLost, sc.rank, err)
	}
	if len(msg.Data) == 0 {
		return nil, fmt.Errorf("serve: replica %d sent an empty reply", sc.rank)
	}
	op, body := msg.Data[0], msg.Data[1:]
	switch op {
	case svOK:
		if err := decodeBatch(body, sc.logits, x.Rows, sc.logits.Cols); err != nil {
			return nil, fmt.Errorf("serve: replica %d reply: %w", sc.rank, err)
		}
		if sc.logits.Rows != x.Rows {
			return nil, fmt.Errorf("serve: replica %d scored %d rows, sent %d", sc.rank, sc.logits.Rows, x.Rows)
		}
		return sc.logits, nil
	case svErr:
		return nil, fmt.Errorf("serve: replica %d: %s", sc.rank, string(body))
	}
	return nil, fmt.Errorf("serve: replica %d sent unexpected %s reply", sc.rank, svName(op))
}

// stop tells the pinned replica to exit its ServeReplica loop; called
// once per replica during Close's drain.
func (sc *replicaScorer) stop() error {
	if err := sc.comm.SendBytes(sc.rank, mpi.TagServeReq, []byte{svStop}); err != nil {
		return fmt.Errorf("serve: replica %d stop: %w", sc.rank, err)
	}
	return nil
}

// replica is the worker-side half: the reconstructed network plus
// preallocated buffers for one batch at a time.
type replica struct {
	comm *mpi.Comm
	net  *nn.Network
	x    *tensor.Matrix
	buf  *nn.InferBuffers
	wire []byte
}

// ServeReplica runs the replica loop on a non-zero rank of the
// WithReplicas communicator: receive a batch from the master, run the
// shared forward pass, ship the logits back; returns nil when the
// master's Close sends the stop opcode. The master applies any softmax
// transform after the fan-in, so replicas always ship raw logits and
// the replicated path stays bit-identical to the local one.
func (s *Server) ServeReplica() error {
	r := s.rep
	if r == nil {
		return fmt.Errorf("serve: ServeReplica on the master rank (rank 0 serves the front end)")
	}
	for {
		// An idle replica waits for work as long as the master lives.
		msg, err := r.comm.RecvBytes(0, mpi.TagServeReq)
		if err != nil {
			return fmt.Errorf("serve: replica recv: %w", err)
		}
		if len(msg.Data) == 0 {
			return fmt.Errorf("serve: replica received an empty frame")
		}
		op, body := msg.Data[0], msg.Data[1:]
		switch op {
		case svStop:
			return nil
		case svScore:
			r.wire = r.wire[:0]
			if err := decodeBatch(body, r.x, r.buf.MaxBatch(), r.x.Cols); err != nil {
				r.wire = append(append(r.wire, svErr), err.Error()...)
			} else {
				logits := r.net.ForwardInto(r.buf, r.x)
				r.wire = appendBatch(r.wire, svOK, logits)
			}
			if err := r.comm.SendBytes(0, mpi.TagServeRes, r.wire); err != nil {
				return fmt.Errorf("serve: replica send: %w", err)
			}
		default:
			return fmt.Errorf("serve: replica received unexpected %s", svName(op))
		}
	}
}

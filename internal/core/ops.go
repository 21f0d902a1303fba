package core

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/check"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/obs/telemetry"
	"repro/internal/tensor"
)

// The distributed trainer is one master/worker loop over a small fixed
// set of ops (the paper's §V-B phases plus housekeeping), described once
// in the ops table below. The master's sender (star.go), the worker's
// dispatch, the op names in fault reports and the wire's reply length
// are all read off a row: a new op is one row plus its engine function.
//
// Opcodes are the table's array keys, so a duplicate does not compile.
// They travel as one byte in the wire's emOp frame.
const (
	opSetParams = 1 + iota
	opGradient
	opSample
	opGNProduct
	opHeldLoss
	opAccuracy
	opFisherDiag
	opStop
	opClockSync
	opTelemetry
)

// opRow is one op of the master/worker protocol.
type opRow struct {
	name string // in FaultReports, events and errors
	// phase is the master's comm phase during the op and, with span set,
	// the span both sides record around it; wphase overrides the
	// worker's comm phase where it differs.
	phase, wphase string
	span          bool
	down, up      bool // a dim-vector travels down with the command / comes back summed
	scalars       int  // float64s that come back summed
	// serve computes one worker's contribution from in (when down) into
	// out (when up) and sc (len scalars).
	serve func(w *worker, arg float32, in, out tensor.Vector, sc []float64) error
}

var ops = [...]opRow{
	opSetParams:  {name: "sync_weights", phase: "sync_weights", span: true, down: true, serve: (*worker).setParams},
	opGradient:   {name: "gradient", phase: "gradient_loss", span: true, up: true, scalars: 2, serve: (*worker).gradient},
	opSample:     {name: "sample", phase: "cg_minimize", serve: (*worker).sample},
	opGNProduct:  {name: "gnproduct", phase: "cg_minimize", wphase: "worker_curvature_product", span: true, down: true, up: true, scalars: 1, serve: (*worker).gnProduct},
	opHeldLoss:   {name: "held_loss", phase: "loss_eval", span: true, down: true, scalars: 2, serve: (*worker).heldLoss},
	opAccuracy:   {name: "accuracy", phase: "loss_eval", span: true, scalars: 2, serve: (*worker).accuracy},
	opFisherDiag: {name: "fisher_diag", phase: "cg_minimize", span: true, up: true, scalars: 1, serve: (*worker).fisherDiag},
	opStop:       {name: "stop", phase: "shutdown", serve: (*worker).stop},
	opClockSync:  {name: "clock_sync", phase: "telemetry", serve: (*worker).clockSync},
	opTelemetry:  {name: "telemetry", phase: "telemetry", serve: (*worker).telemetry},
}

// lookupOp resolves a wire opcode to its row; anything outside the
// table (0, past the end) is rejected, never indexed.
func lookupOp(code byte) (*opRow, bool) {
	if code < 1 || int(code) >= len(ops) {
		return nil, false
	}
	return &ops[code], true
}

// replyLen is the shape of the one reply a worker sends per op: vec
// bytes of vector, then the scalars padded to a float64 pair. A total of
// zero means the op has no reply.
func (r *opRow) replyLen(dim int) (vec, total int) {
	if r.up {
		vec = 4 * dim
	}
	return vec, vec + 16*min(r.scalars, 1)
}

// errStopped is the stop row's result: the receive loop exits cleanly.
var errStopped = errors.New("core: worker stopped")

func (w *worker) setParams(_ float32, in, _ tensor.Vector, _ []float64) error {
	w.eng.setParams(in)
	return nil
}

func (w *worker) gradient(_ float32, _, out tensor.Vector, sc []float64) error {
	loss, frames := w.eng.gradient(out)
	sc[0], sc[1] = loss, float64(frames)
	return nil
}

// sample draws the curvature sample for the global HF iteration in arg
// and, in fault drills, advances this rank's injection epoch to it.
func (w *worker) sample(arg float32, _, _ tensor.Vector, _ []float64) error {
	w.eng.drawSample(int(arg))
	if w.epochHook != nil {
		w.epochHook(int(arg))
	}
	return nil
}

func (w *worker) gnProduct(_ float32, in, out tensor.Vector, sc []float64) error {
	defer w.ob.Span(w.rank, "worker_curvature_product").End()
	sc[0] = float64(w.eng.gnProduct(in, out))
	return nil
}

func (w *worker) heldLoss(_ float32, in, _ tensor.Vector, sc []float64) error {
	loss, frames := w.eng.heldLossAt(in)
	sc[0], sc[1] = loss, float64(frames)
	return nil
}

func (w *worker) accuracy(_ float32, _, _ tensor.Vector, sc []float64) error {
	correct, frames := w.eng.heldAccuracy()
	sc[0], sc[1] = float64(correct), float64(frames)
	return nil
}

func (w *worker) fisherDiag(_ float32, _, out tensor.Vector, sc []float64) error {
	sc[0] = float64(w.eng.fisherDiag(out))
	return nil
}

func (w *worker) stop(float32, tensor.Vector, tensor.Vector, []float64) error { return errStopped }

// clockSync and telemetry answer on mpi.TagClockSync / mpi.TagTelemetry,
// not through the op's reply. A nil shipper ships an empty bundle.
func (w *worker) clockSync(arg float32, _, _ tensor.Vector, _ []float64) error {
	return telemetry.ServeClockSync(w.comm, 0, int(arg))
}

func (w *worker) telemetry(float32, tensor.Vector, tensor.Vector, []float64) error {
	return w.ship.Ship(w.comm, 0)
}

// worker is a non-zero rank: its shard's engine and its receive loop's
// state.
type worker struct {
	comm      *mpi.Comm
	rank      int
	ob        *obs.Observer
	ship      *telemetry.Shipper
	epochHook func(int)
	eng       *engine
	shard     *wireShard
	in        tensor.Vector // payload landing buffer, len dim
	wait      *obs.Counter  // time blocked on the master's next command; nil-safe
}

// runWorker serves the master on a non-zero rank for Session.Run until
// it is stopped: it receives its data shard, then answers ops off the
// table frame by frame (starLoop). A non-nil observer adds per-op spans
// labelled with this rank, shard-size gauges and
// "core.worker.<rank>.wait_ns", the time blocked on the master's next
// command (the straggler/idle signal of the paper's Figure 5).
// epochHook, when non-nil, receives the global HF iteration as the
// worker learns it, advancing fault-injection epochs in drills.
func runWorker(comm *mpi.Comm, ob *obs.Observer, ship *telemetry.Shipper, epochHook func(int)) error {
	w := &worker{comm: comm, rank: comm.Rank(), ob: ob, ship: ship, epochHook: epochHook}
	comm.SetMetrics(ob.Registry())

	sp := ob.Span(w.rank, "load_data")
	eng, shard, err := recvShard(comm)
	sp.End()
	if err != nil {
		return err
	}
	w.eng, w.shard = eng, shard
	w.in = make(tensor.Vector, eng.net.NumParams())
	w.shardGauges()
	w.wait = ob.Registry().Counter(fmt.Sprintf("core.worker.%d.wait_ns", w.rank))
	return w.starLoop()
}

// shardGauges publishes the shard's size (nil-safe without a registry).
func (w *worker) shardGauges() {
	reg := w.ob.Registry()
	reg.Gauge(fmt.Sprintf("core.worker.%d.train_frames", w.rank)).Set(float64(w.eng.train.frames()))
	reg.Gauge(fmt.Sprintf("core.worker.%d.held_frames", w.rank)).Set(float64(w.eng.heldout.frames()))
}

// begin enters row's comm phase and opens its span, which covers the
// payload receive, the compute and the reply.
func (w *worker) begin(row *opRow) obs.Span {
	w.comm.SetPhase(cmp.Or(row.wphase, row.phase))
	if !row.span {
		return obs.Span{}
	}
	return w.ob.Span(w.rank, row.phase)
}

// serve runs one op against the engine: given the row, its arg and its
// payload it returns the dim-vector and the scalars the row promises.
// It is the only place a worker acts on an opcode. Under the
// checked build everything that enters or leaves must be
// finite: a bad shard contribution would poison the reduction.
func (w *worker) serve(row *opRow, arg float32, payload tensor.Vector) (tensor.Vector, []float64, error) {
	var out tensor.Vector
	if row.up {
		out = tensor.NewVector(len(w.in))
	}
	sc := make([]float64, row.scalars)
	if check.Enabled && row.down {
		check.Finite("core.worker."+row.name+".payload", payload)
	}
	if err := row.serve(w, arg, payload, out, sc); err != nil {
		return nil, nil, fmt.Errorf("core: worker %d %s: %w", w.rank, row.name, err)
	}
	if check.Enabled {
		check.Finite("core.worker."+row.name, out)
		for _, v := range sc {
			check.FiniteScalar("core.worker."+row.name, v)
		}
	}
	return out, sc, nil
}

// starLoop is the worker's receive loop: one frame per command
// on mpi.TagStarCmd, at most one reply per op on mpi.TagStarReply+round.
func (w *worker) starLoop() error {
	for {
		w.comm.SetPhase("ctrl")
		t0 := time.Now()
		msg, err := w.comm.RecvBytes(0, mpi.TagStarCmd)
		w.wait.Add(time.Since(t0).Nanoseconds())
		if err != nil {
			return fmt.Errorf("core: worker %d command: %w", w.rank, err)
		}
		typ, round, body, err := emDecode(msg.Data)
		if err != nil {
			return err
		}
		switch typ {
		case emStop:
			return nil
		case emPing:
			if len(body) != 8 {
				return fmt.Errorf("core: worker %d: malformed ping (%d bytes)", w.rank, len(body))
			}
			replyTag := int(binary.LittleEndian.Uint32(body))
			if err := w.comm.SendBytes(0, replyTag, body[4:8]); err != nil {
				return fmt.Errorf("core: worker %d pong: %w", w.rank, err)
			}
		case emShard:
			if err := w.reshard(body); err != nil {
				return err
			}
		case emOp:
			if err := w.starStep(round, body); errors.Is(err, errStopped) {
				return nil
			} else if err != nil {
				return err
			}
		default:
			return fmt.Errorf("core: worker %d: unknown elastic message %s", w.rank, emName(typ))
		}
	}
}

// reshard appends a re-shard supplement and rebuilds the engine; θ
// arrives in the sync_weights op that follows every resync.
func (w *worker) reshard(body []byte) error {
	defer w.ob.Span(w.rank, "elastic_reshard").End()
	var sup shardSupplement
	if err := decodeGob(body, &sup); err != nil {
		return fmt.Errorf("core: worker %d re-shard: %w", w.rank, err)
	}
	w.shard.TrainUtts = append(w.shard.TrainUtts, sup.TrainUtts...)
	w.shard.HeldUtts = append(w.shard.HeldUtts, sup.HeldUtts...)
	w.eng = engineFromShard(w.shard)
	w.shardGauges()
	return nil
}

// decodeOp splits an emOp body ([op][arg f32][payload]) against the
// table: the opcode must name a row, and the payload must be exactly
// len(in) float32s for a payload-bearing row (it lands in in, all or
// nothing) and empty otherwise.
func decodeOp(body []byte, in tensor.Vector) (row *opRow, arg float32, err error) {
	if len(body) < 5 {
		return nil, 0, fmt.Errorf("malformed op (%d bytes)", len(body))
	}
	row, ok := lookupOp(body[0])
	if !ok {
		return nil, 0, fmt.Errorf("unknown opcode %d", body[0])
	}
	if !row.down {
		in = nil
	}
	if err := decodeInto(body[5:], in); err != nil {
		return nil, 0, fmt.Errorf("opcode %d (%s): %w", body[0], row.name, err)
	}
	return row, math.Float32frombits(binary.LittleEndian.Uint32(body[1:5])), nil
}

func (w *worker) starStep(round int, body []byte) error {
	row, arg, err := decodeOp(body, w.in)
	if err != nil {
		return fmt.Errorf("core: worker %d: %w", w.rank, err)
	}
	defer w.begin(row).End()
	vec, sc, err := w.serve(row, arg, w.in)
	if err != nil {
		return err
	}
	if _, n := row.replyLen(len(w.in)); n == 0 {
		return nil
	}
	var pair [2]float64
	copy(pair[:], sc)
	return w.comm.SendBytes(0, mpi.TagStarReply+round, append(encodeVec(vec), encodeF64Pair(pair[0], pair[1])...))
}

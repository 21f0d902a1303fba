package core

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/check"
	"repro/internal/corpus"
	"repro/internal/hf"
	"repro/internal/mpi"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/obs/telemetry"
	"repro/internal/seq"
	"repro/internal/tensor"
)

// The distributed trainer's master: one run loop that is also the one
// hf.Objective, written against the ops table (ops.go) and the star
// wire (star.go). Rank 0 is always the master; it owns θ and computes
// nothing itself.

// wireShard is the gob-encoded payload the master sends each worker
// during load_data: the worker's data shard plus everything needed to
// reconstruct its compute engine.
type wireShard struct {
	Sizes          []int // DNN topology
	Criterion      Criterion
	Trans          seq.Transitions
	SampleFraction float64
	BatchFrames    int
	Seed           int64
	FeatDim        int
	Context        int
	NumStates      int
	TrainUtts      []*corpus.Utterance
	HeldUtts       []*corpus.Utterance
}

// MasterResult reports a distributed training run.
type MasterResult struct {
	// Params is the final trained parameter vector.
	Params tensor.Vector
	// HF is the optimizer trace.
	HF hf.Result
	// HeldOutAccuracy is final frame accuracy on the held-out set.
	HeldOutAccuracy float64
	// MPIProfile is the master rank's per-phase communication snapshot.
	MPIProfile []mpi.PhaseStat
	// Fault is the run's eviction/rewind record under its FaultPolicy.
	Fault *FaultReport
}

// master drives one distributed HF run from rank 0 and is its
// hf.Objective.
type master struct {
	comm *mpi.Comm
	star *star
	p    Problem
	cfg  hf.Config
	part corpus.Partitioner
	ob   *obs.Observer

	dim   int
	theta tensor.Vector

	// The run's trace, stitched across attempts: a rewind restarts
	// hf.Optimize, whose iteration numbers are then offset by iterBase,
	// the iterations completed before the attempt.
	iterBase  int
	curIter   int // global iteration in flight
	iters     []hf.IterStats
	totalCG   int
	finalLoss float64
	lastWall  time.Time
	lastLoss  float64 // held-out loss of the latest recorded iteration

	// The telemetry plane, nil without telemetry. Every rank's observer
	// is bound into its merger before the rank starts, so collecting
	// telemetry is a function call that can neither fail a run nor evict
	// a rank.
	plane *telemetry.Plane

	// Fault tolerance (elastic.go) under the filled policy.
	pol  FaultPolicy
	ckpt CheckpointPolicy
	// plan[w-1] is what worker rank w holds; an evicted rank's utterances
	// wait in pending until the next resync redistributes them.
	plan    []shardSupplement
	pending shardSupplement
	lastCK  *Checkpoint // carries the post-update λ and CG warm-start direction
	report  FaultReport
	pingSeq uint32
	// epochHook advances fault-injection epochs on the master's own
	// transport (spawn mode wires it to FaultTransport.SetEpoch).
	epochHook func(int)
}

// runMaster drives a distributed HF training run from rank 0 for
// Session.Run, which has validated the problem and the options: it ships
// shards to the workers (load_data), runs the HF optimizer with all
// heavy computation delegated to them, and shuts them down. Every reply
// wait has the policy's op deadline; a failure naming a rank goes to
// eviction, re-sharding and checkpoint rewinds (elastic.go) within the
// policy's budget and surrenders past it.
func runMaster(comm *mpi.Comm, p Problem, cfg hf.Config, o *sessionOptions, plane *telemetry.Plane, epochHook func(int)) (*MasterResult, error) {
	comm.SetMetrics(o.ob.Registry())
	m := &master{comm: comm, star: &star{comm: comm, deadline: o.faults.OpDeadline}, p: p.filled(), cfg: cfg, part: o.part, ob: o.ob, plane: plane,
		pol: o.faults, ckpt: o.ckpt, report: FaultReport{MaxEvictions: o.faults.MaxEvictions}, epochHook: epochHook}
	return m.run()
}

// loadData ships each worker its shard point-to-point (the
// master-serialized phase of Figures 2/4) and initializes θ.
func (m *master) loadData() error {
	sp := m.ob.Span(0, "load_data")
	plan, err := shipShards(m.comm, m.p, m.part)
	sp.End()
	if err != nil {
		return err
	}
	net := nn.New(m.p.Topo)
	m.p.initParams(net)
	m.dim = net.NumParams()
	m.theta = net.Params.Clone()
	// The plan is retained for post-eviction re-partitioning.
	m.plan, m.star.dim, m.report.FinalWorkers = plan, m.dim, len(plan)
	m.star.live = make([]int, len(plan))
	for i := range m.star.live {
		m.star.live[i] = i + 1
	}
	return nil
}

func (m *master) run() (*MasterResult, error) {
	if err := m.loadData(); err != nil {
		return nil, err
	}
	m.plane.Health().SetState("training")
	for _, w := range m.star.live {
		m.plane.Health().SetWorker(w, telemetry.WorkerLive)
	}
	// Mirror hf.Config's MaxIterations default so the remaining-
	// iterations arithmetic matches what Optimize will run.
	if m.cfg.MaxIterations <= 0 {
		m.cfg.MaxIterations = 50
	}

	err := m.attempt()
	for err != nil {
		// Only a failure that names ranks can be recovered from; anything
		// else ends the run.
		var rf *rankFailure
		if !errors.As(err, &rf) {
			return m.fail(err)
		}
		if err := m.evict(rf); err != nil {
			return nil, err
		}
		// A further fault during resync evicts again and loops here.
		if err = m.resync(); err == nil {
			err = m.attempt()
		}
	}

	acc, err := m.accuracy()
	if err != nil {
		return m.fail(err)
	}
	m.plane.Health().SetState("done")
	m.stop()
	out := &MasterResult{
		Params:          m.theta.Clone(),
		HF:              hf.Result{Iters: m.iters, FinalLoss: m.finalLoss, TotalCGIters: m.totalCG},
		HeldOutAccuracy: acc,
		MPIProfile:      m.comm.Profiler().Snapshot(),
		Fault:           &m.report,
	}
	return out, nil
}

// fail ends the run on an unrecoverable error without waiting on the
// possibly wedged workers.
func (m *master) fail(err error) (*MasterResult, error) {
	m.plane.Health().SetState("failed")
	m.stop()
	return nil, err
}

// faultUnwind aborts hf.Optimize when an op fails: the optimizer has no
// error path, so master.call unwinds it with this typed panic.
type faultUnwind struct{ cause error }

// recoverUnwind turns a faultUnwind panic back into the op's error,
// re-panicking anything else. Use in a defer:
//
//	defer func() { recoverUnwind(recover(), &err) }()
func recoverUnwind(r any, err *error) {
	if r == nil {
		return
	}
	fu, ok := r.(faultUnwind)
	if !ok {
		panic(r)
	}
	*err = fu.cause
}

// attempt runs hf.Optimize over the iterations still to do, turning a
// failed op anywhere inside it into the returned error.
func (m *master) attempt() (err error) {
	remaining := m.cfg.MaxIterations - m.iterBase
	if remaining <= 0 {
		// Nothing left to do (fault landed after the final iteration).
		return nil
	}
	defer func() { recoverUnwind(recover(), &err) }()
	m.curIter = m.iterBase

	cfg := m.cfg
	cfg.MaxIterations = remaining
	if ck := m.lastCK; ck != nil && ck.Lambda > 0 {
		// Resume with the exact optimizer state the checkpoint captured
		// (post-update λ, CG warm-start direction), so a rewound run
		// retraces the uninterrupted trajectory up to reduction-order
		// float noise from the re-partitioned shards.
		cfg.Lambda0, cfg.InitDirection = ck.Lambda, ck.Dir
	}
	// Optimize numbers iterations from 1 every attempt; hooks see global.
	if log := cfg.Log; log != nil {
		cfg.Log = func(s hf.IterStats) {
			s.Iter += m.iterBase
			log(s)
		}
	}
	m.lastWall = time.Now()
	tel := cfg.Telemetry
	cfg.Telemetry = func(s hf.IterStats) {
		s.Iter += m.iterBase
		m.onIter(s)
		if tel != nil {
			tel(s)
		}
	}
	if m.canRewind() {
		// State fires after Telemetry with the post-update λ and warm-start
		// direction, the exact state the next iteration resumes from.
		cfg.State = func(iter int, lambda float64, dir tensor.Vector) {
			m.snapshot(m.iterBase+iter, m.lastLoss, lambda, dir)
		}
	}

	m.SetParams(m.theta)
	if m.canRewind() && m.lastCK == nil {
		// Seed a checkpoint so the first rewind has somewhere to land.
		m.snapshot(0, m.HeldOutLoss(m.theta), 0, nil)
	}
	res := hf.Optimize(m, cfg)
	m.iterBase += len(res.Iters)
	m.finalLoss = res.FinalLoss
	return nil
}

// onIter ingests one globally-numbered iteration: the stitched trace,
// CG accounting, the iteration wall histogram and, with the plane on,
// one telemetry collection.
func (m *master) onIter(s hf.IterStats) {
	m.curIter = s.Iter
	m.iters = append(m.iters, s)
	m.totalCG += s.CGIters
	now := time.Now()
	m.ob.Registry().Histogram("core.hf.iter_wall_ns").Observe(now.Sub(m.lastWall).Nanoseconds())
	m.lastWall = now
	// The State hook (which snapshots) fires next and needs this loss.
	m.lastLoss = s.Loss
	m.plane.Health().SetProgress(s.Iter, s.Loss)
	m.collectTelemetry()
}

// issue runs one op of the table on every worker under the row's phase
// and span. Under the checked build the vector going out must be
// dim-long and finite (a bad θ or CG direction corrupts every shard
// computation) and so must the fold that comes back (it feeds CG).
func (m *master) issue(op int, arg float32, down, up tensor.Vector, sc []float64) error {
	row := &ops[op]
	if row.span {
		defer m.ob.Span(0, row.phase).End()
	}
	m.comm.SetPhase(row.phase)
	if check.Enabled && row.down {
		check.Dims("core.master."+row.name+".payload", len(down), m.dim)
		check.Finite("core.master."+row.name+".payload", down)
	}
	err := m.star.issue(op, arg, down, up, sc)
	if check.Enabled && err == nil {
		check.Finite("core.master."+row.name, up)
		for _, v := range sc {
			check.FiniteScalar("core.master."+row.name, v)
		}
	}
	return err
}

// call is issue for the objective: a failure unwinds hf.Optimize at
// once instead of feeding it zeros until its own stopping rules fire.
func (m *master) call(op int, arg float32, down, up tensor.Vector, sc []float64) {
	if err := m.issue(op, arg, down, up, sc); err != nil {
		panic(faultUnwind{err})
	}
}

// accuracy gathers held-out frame accuracy at the final θ. Training is
// over, so with a budget above 0 a rankFailure here evicts nobody: the
// failed ranks' shards are absent from the figure and the failure is one
// event. With a budget of 0 it ends the run.
func (m *master) accuracy() (float64, error) {
	var sc [2]float64
	if err := m.issue(opAccuracy, 0, nil, nil, sc[:]); err != nil {
		var rf *rankFailure
		if !m.canRewind() || !errors.As(err, &rf) {
			return 0, err
		}
		m.ob.Eventf(0, "elastic: %v", err)
	}
	if sc[1] <= 0 {
		return 0, nil
	}
	return sc[0] / sc[1], nil
}

// stop shuts the workers down, best-effort.
func (m *master) stop() {
	if err := m.issue(opStop, 0, nil, nil, nil); err != nil {
		m.ob.Eventf(0, "core: %v", err)
	}
}

// collectTelemetry drains every bound rank's observer into the merger,
// evicted ranks included. Runs at iteration boundaries and around
// faults.
func (m *master) collectTelemetry() {
	if m.plane == nil {
		return
	}
	collect := m.ob.Registry().Histogram("telemetry.collect_ns")
	defer func(start time.Time) { collect.Observe(time.Since(start).Nanoseconds()) }(time.Now())
	m.plane.Merger().Collect()
}

// The master as hf.Objective and hf.Preconditioned: workers compute
// shard sums, the star adds them, the normalization happens here.

// Dim implements hf.Objective.
func (m *master) Dim() int { return m.dim }

// Params implements hf.Objective.
func (m *master) Params() tensor.Vector { return m.theta.Clone() }

// SetParams implements hf.Objective: synchronizes θ to all workers, the
// §V-B sync_weights path.
func (m *master) SetParams(p tensor.Vector) {
	copy(m.theta, p)
	m.call(opSetParams, 0, p, nil, nil)
}

// Gradient implements hf.Objective: workers compute shard gradients,
// the star sums them. It opens every HF iteration.
func (m *master) Gradient() tensor.Vector {
	m.curIter++
	m.beginIter()
	grad := tensor.NewVector(m.dim)
	var sc [2]float64 // summed loss, frames
	m.call(opGradient, 0, nil, grad, sc[:])
	if sc[1] > 0 {
		grad.Scale(float32(1 / sc[1]))
	}
	return grad
}

// NewCurvatureSample implements hf.Objective. Workers draw from the
// global iteration, so a rewound run sees the same sample streams.
func (m *master) NewCurvatureSample(iter int) {
	m.call(opSample, float32(m.iterBase+iter), nil, nil, nil)
}

// GNProduct implements hf.Objective: the direction goes out, the
// per-shard Gauss-Newton products come back summed — the two transfers
// per CG iteration that dominate worker MPI time in the paper's Figure 5.
func (m *master) GNProduct(v, out tensor.Vector) {
	var frames [1]float64
	m.call(opGNProduct, 0, v, out, frames[:])
	if frames[0] > 0 {
		out.Scale(float32(1 / frames[0]))
	}
}

// HeldOutLoss implements hf.Objective.
func (m *master) HeldOutLoss(p tensor.Vector) float64 {
	var sc [2]float64 // summed loss, frames
	m.call(opHeldLoss, 0, p, nil, sc[:])
	if sc[1] <= 0 {
		return 0
	}
	return sc[0] / sc[1]
}

// CurvatureDiag implements hf.Preconditioned: workers sum their shard's
// Fisher diagonals over the current curvature sample.
func (m *master) CurvatureDiag(lambda float64) tensor.Vector {
	diag := tensor.NewVector(m.dim)
	var frames [1]float64
	m.call(opFisherDiag, 0, nil, diag, frames[:])
	return finishPreconditioner(diag, int(frames[0]), lambda)
}

// shipShards partitions the problem's data over the workers and sends
// each its gob-encoded shard point-to-point (the load_data phase). It
// returns the plan, indexed by worker (rank w+1), so the elastic master
// can re-partition a dead worker's retained utterances.
func shipShards(comm *mpi.Comm, p Problem, part corpus.Partitioner) ([]shardSupplement, error) {
	workers := comm.Size() - 1
	trainShards := part.Partition(p.Train.Utts, workers)
	heldShards := part.Partition(p.Heldout.Utts, workers)
	plan := make([]shardSupplement, workers)
	comm.SetPhase("load_data")
	for w := range plan {
		plan[w] = shardSupplement{TrainUtts: trainShards[w], HeldUtts: heldShards[w]}
		data, err := encodeGob(&wireShard{
			Sizes:          p.Topo.Sizes,
			Criterion:      p.Criterion,
			Trans:          p.Trans,
			SampleFraction: p.SampleFraction,
			BatchFrames:    p.BatchFrames,
			Seed:           p.Seed + int64(w+1), // per-worker sample stream
			FeatDim:        p.Train.FeatDim,
			Context:        p.Train.Context,
			NumStates:      p.Train.NumStates,
			TrainUtts:      trainShards[w],
			HeldUtts:       heldShards[w],
		})
		if err != nil {
			return nil, fmt.Errorf("core: encode shard for worker %d: %w", w+1, err)
		}
		if err := comm.SendBytes(w+1, mpi.TagShard, data); err != nil {
			return nil, fmt.Errorf("core: send shard to worker %d: %w", w+1, err)
		}
	}
	return plan, nil
}

// engineFromShard builds (or, after a re-shard supplement, rebuilds) the
// worker's compute engine from its current shard.
func engineFromShard(shard *wireShard) *engine {
	return newEngine(Problem{
		Topo:           nn.NewTopology(shard.Sizes...),
		Train:          &corpus.Corpus{Utts: shard.TrainUtts, FeatDim: shard.FeatDim, NumStates: shard.NumStates, Context: shard.Context},
		Heldout:        &corpus.Corpus{Utts: shard.HeldUtts, FeatDim: shard.FeatDim, NumStates: shard.NumStates, Context: shard.Context},
		Criterion:      shard.Criterion,
		Trans:          shard.Trans,
		SampleFraction: shard.SampleFraction,
		BatchFrames:    shard.BatchFrames,
		Seed:           shard.Seed,
	}, shard.TrainUtts, shard.HeldUtts)
}

// recvShard receives and decodes this worker's shard, waiting at most d
// for it, and builds its compute engine. The decoded shard is returned
// too so the elastic worker can append re-shard supplements and rebuild.
func recvShard(comm *mpi.Comm, d time.Duration) (*engine, *wireShard, error) {
	comm.SetPhase("load_data")
	msg, err := comm.RecvBytesTimeout(0, mpi.TagShard, d)
	if err != nil {
		return nil, nil, fmt.Errorf("core: worker %d receive shard: %w", comm.Rank(), err)
	}
	var shard wireShard
	if err := decodeGob(msg.Data, &shard); err != nil {
		return nil, nil, fmt.Errorf("core: worker %d decode shard: %w", comm.Rank(), err)
	}
	return engineFromShard(&shard), &shard, nil
}

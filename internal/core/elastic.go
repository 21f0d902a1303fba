package core

// Elastic fault tolerance: what the run's FaultPolicy does with the
// star's failure report. Every distributed run has a policy; one without
// WithFaults has FaultPolicy{MaxEvictions: -1}, a budget of 0. The star
// (star.go) speaks to each worker point-to-point, so a send error, a
// missed reply deadline (FaultPolicy.OpDeadline), a malformed reply or a
// missed heartbeat names the rank. That rankFailure is the only door into
// this file: the master unwinds hf.Optimize, evicts the named ranks,
// re-partitions their shards across the survivors (corpus.Reshard),
// rewinds θ to the last Checkpoint, bumps the round (orphaning stale
// in-flight replies) and resumes after an exponential backoff — up to
// FaultPolicy.MaxEvictions times before surrendering with a structured
// FaultReport. With a budget of 0 the first failure surrenders, and no
// heartbeat or snapshot runs, since no rewind can follow.

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"slices"
	"time"

	"repro/internal/corpus"
	"repro/internal/mpi"
	"repro/internal/obs/telemetry"
	"repro/internal/tensor"
)

// Defaults for FaultPolicy zero fields.
const (
	// DefaultMaxEvictions tolerates this many evictions per run.
	DefaultMaxEvictions = 2
	// DefaultFaultBackoff is the base of the exponential backoff slept
	// before each post-eviction resume.
	DefaultFaultBackoff = 50 * time.Millisecond
	// maxFaultBackoff caps the exponential backoff.
	maxFaultBackoff = 2 * time.Second
)

// FaultPolicy configures the elastic runtime: detection deadlines
// (embedded mpi.FaultConfig), eviction budget, resume backoff and an
// optional fault-injection schedule for tests. A run with a budget
// above 0 pings every live worker at the start of every HF iteration,
// exporting RTTs to core.elastic.heartbeat_rtt_ns.
type FaultPolicy struct {
	mpi.FaultConfig
	// MaxEvictions is the total number of worker evictions tolerated
	// before the run surrenders with a SurrenderError; 0 selects
	// DefaultMaxEvictions, negative means "no evictions tolerated" (the
	// policy of a run without WithFaults).
	MaxEvictions int
	// Backoff is the base of the exponential backoff slept before each
	// post-eviction resume (doubling per eviction, capped at 2s); 0
	// selects DefaultFaultBackoff.
	Backoff time.Duration
	// Inject, when non-nil, wraps every spawned rank's transport in an
	// mpi.FaultTransport applying the schedule (fault drills and
	// tests). Only effective in spawn mode — attached comms are owned
	// by the caller.
	Inject *mpi.FaultSchedule
}

func (p FaultPolicy) filled() FaultPolicy {
	p.FaultConfig = p.FaultConfig.Filled()
	if p.MaxEvictions == 0 {
		p.MaxEvictions = DefaultMaxEvictions
	}
	if p.MaxEvictions < 0 {
		p.MaxEvictions = 0
	}
	if p.Backoff <= 0 {
		p.Backoff = DefaultFaultBackoff
	}
	return p
}

// CheckpointPolicy configures the elastic runtime's rewind points. A run
// with an eviction budget above 0 snapshots θ in memory after every
// completed HF iteration; rewinds restart from the most recent one.
type CheckpointPolicy struct {
	// Path, when non-empty, also mirrors each snapshot to disk
	// atomically (SaveCheckpoint), surviving process death.
	Path string
}

// Eviction records one worker eviction in a FaultReport.
type Eviction struct {
	// Rank is the evicted worker.
	Rank int `json:"rank"`
	// Round is the elastic round during which the fault was detected.
	Round int `json:"round"`
	// HFIter is the global HF iteration in flight at detection.
	HFIter int `json:"hf_iter"`
	// Op names the elastic op in flight ("gradient", "gnproduct", …).
	Op string `json:"op"`
	// Cause classifies the detection: "timeout", "peer-down", "closed"
	// or a send/recv error description.
	Cause string `json:"cause"`
	// RewindIter is the checkpointed iteration training resumed from.
	RewindIter int `json:"rewind_iter"`
	// ResumeLoss is the held-out loss re-measured at the rewound θ over
	// the re-partitioned shards (should match the checkpoint's loss up
	// to summation order).
	ResumeLoss float64 `json:"resume_loss"`
	// ReshardUtts and ReshardFrames size the re-partitioned shard.
	ReshardUtts   int `json:"reshard_utts"`
	ReshardFrames int `json:"reshard_frames"`
	// RewindWall is the time from detection to resumed training.
	RewindWall time.Duration `json:"rewind_wall_ns"`
}

// FaultReport is the elastic runtime's structured account of a run's
// failures and recoveries.
type FaultReport struct {
	// Evictions lists every eviction in detection order.
	Evictions []Eviction `json:"evictions"`
	// MaxEvictions echoes the policy's budget.
	MaxEvictions int `json:"max_evictions"`
	// Surrendered reports that the run gave up (budget exhausted or no
	// survivors) instead of completing.
	Surrendered bool `json:"surrendered"`
	// FinalWorkers is the live worker count at the end of the run.
	FinalWorkers int `json:"final_workers"`
	// Flight is the flight recorder's post-mortem bundle captured at the
	// latest fault: the last window of spans, event-log entries and
	// metric deltas from every reachable rank. Nil when the run had no
	// telemetry plane or no fault.
	Flight *telemetry.FlightBundle `json:"flight,omitempty"`
}

// SurrenderError is returned when a run exhausts its eviction budget or
// runs out of workers; Report holds the full record. A run with a budget
// of 0 ends in one at its first rank failure.
type SurrenderError struct {
	Report *FaultReport
	// Cause is the *rankFailure that pushed the run over its budget: it
	// names the op and the ranks, and unwraps to the first rank's cause
	// (mpi.ErrTimeout, …).
	Cause error
}

func (e *SurrenderError) Error() string {
	return fmt.Sprintf("core: run surrendered after %d evictions (budget %d, %d workers left): %v",
		len(e.Report.Evictions), e.Report.MaxEvictions, e.Report.FinalWorkers, e.Cause)
}

func (e *SurrenderError) Unwrap() error { return e.Cause }

// shardSupplement is the gob payload of an emShard message: utterances
// from an evicted worker's shard now assigned to this survivor. The
// master's shard plan is kept in the same shape.
type shardSupplement struct {
	TrainUtts []*corpus.Utterance
	HeldUtts  []*corpus.Utterance
}

func encodeGob(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func decodeGob(data []byte, v any) error {
	return gob.NewDecoder(bytes.NewReader(data)).Decode(v)
}

// causeOf classifies a detection error for the FaultReport.
func causeOf(err error) string {
	switch {
	case errors.Is(err, mpi.ErrTimeout):
		return "timeout"
	case errors.Is(err, mpi.ErrPeerDown):
		return "peer-down"
	case errors.Is(err, mpi.ErrClosed):
		return "closed"
	default:
		return err.Error()
	}
}

// canRewind reports whether the budget allows an eviction, and so a
// rewind: only then do heartbeats and snapshots run.
func (m *master) canRewind() bool { return m.pol.MaxEvictions > 0 }

// beginIter opens a global HF iteration: the master-side fault injector
// (if any) learns the iteration, as workers do on the sample op, and
// where a rewind can follow the workers are pinged.
func (m *master) beginIter() {
	if m.epochHook != nil {
		m.epochHook(m.curIter)
	}
	if m.canRewind() {
		if err := m.heartbeat(); err != nil {
			panic(faultUnwind{err})
		}
	}
}

// heartbeat pings every live worker and records RTTs; a miss is a
// rankFailure like any failed op.
func (m *master) heartbeat() error {
	defer m.ob.Span(0, "heartbeat").End()
	m.comm.SetPhase("heartbeat")
	s := m.star
	replyTag := mpi.TagHeartbeat + s.round
	rtt := m.ob.Registry().Histogram("core.elastic.heartbeat_rtt_ns")
	errs := make([]error, len(s.live))
	for i, w := range s.live {
		m.pingSeq++
		body := binary.LittleEndian.AppendUint32(nil, uint32(replyTag))
		body = binary.LittleEndian.AppendUint32(body, m.pingSeq)
		start := time.Now()
		if errs[i] = m.comm.SendBytes(w, mpi.TagStarCmd, emEncode(emPing, s.round, body)); errs[i] != nil {
			continue
		}
		msg, err := m.comm.RecvBytesTimeout(w, replyTag, m.pol.OpDeadline)
		if err == nil && (len(msg.Data) != 4 || binary.LittleEndian.Uint32(msg.Data) != m.pingSeq) {
			err = fmt.Errorf("malformed pong (%d bytes)", len(msg.Data))
		}
		if errs[i] = err; err == nil {
			rtt.Observe(time.Since(start).Nanoseconds())
		}
	}
	return s.failure("heartbeat", errs)
}

// snapshot records the rewind point at the current θ.
func (m *master) snapshot(iter int, loss, lambda float64, dir tensor.Vector) {
	ck := &Checkpoint{
		Sizes:       m.p.Topo.Sizes,
		Params:      m.theta.Clone(),
		Criterion:   m.p.Criterion,
		Trans:       m.p.Trans,
		Iteration:   iter,
		HeldOutLoss: loss,
		Lambda:      lambda,
	}
	if dir != nil {
		ck.Dir = dir.Clone()
	}
	m.lastCK = ck
	if m.ckpt.Path != "" {
		if err := SaveCheckpoint(m.ckpt.Path, ck); err != nil {
			m.ob.Eventf(0, "elastic: checkpoint mirror to %s failed: %v", m.ckpt.Path, err)
		}
	}
}

// evict takes the ranks a failure names out of the live set, records
// them and captures the flight bundle; then it either surrenders (a
// *SurrenderError: budget exhausted or no survivors) or sleeps the
// exponential backoff before the caller resyncs.
func (m *master) evict(rf *rankFailure) error {
	s := m.star
	for _, sus := range rf.suspects {
		s.live = slices.DeleteFunc(s.live, func(w int) bool { return w == sus.rank })
		// The dead worker's current shard is orphaned until resync.
		held := &m.plan[sus.rank-1]
		m.pending.TrainUtts = append(m.pending.TrainUtts, held.TrainUtts...)
		m.pending.HeldUtts = append(m.pending.HeldUtts, held.HeldUtts...)
		*held = shardSupplement{}
		m.report.Evictions = append(m.report.Evictions,
			Eviction{Rank: sus.rank, Round: s.round, HFIter: m.curIter, Op: rf.op, Cause: causeOf(sus.cause)})
		m.ob.Registry().Counter("core.elastic.evictions").Inc()
		m.ob.Registry().Gauge("core.elastic.live_workers").Set(float64(len(s.live)))
		m.plane.Health().SetWorker(sus.rank, telemetry.WorkerEvicted)
		m.plane.Health().SetState("degraded")
		m.ob.Eventf(0, "elastic: evicted rank %d during %s (round %d, iter %d): %v",
			sus.rank, rf.op, s.round, m.curIter, sus.cause)
	}
	m.report.FinalWorkers = len(s.live)

	// The bundle reads every bound rank in place, the evicted one too,
	// so it holds the dead rank's spans up to its last completed op.
	ev := m.report.Evictions[len(m.report.Evictions)-1]
	reason := fmt.Sprintf("eviction rank %d during %s (round %d, iter %d): %s",
		ev.Rank, ev.Op, ev.Round, ev.HFIter, ev.Cause)
	m.captureFlight(reason)
	if len(s.live) == 0 || len(m.report.Evictions) > m.pol.MaxEvictions {
		m.report.Surrendered = true
		m.captureFlight("surrender: " + reason)
		m.plane.Health().SetState("failed")
		m.stop()
		return &SurrenderError{Report: &m.report, Cause: rf}
	}
	time.Sleep(min(m.pol.Backoff<<(len(m.report.Evictions)-1), maxFaultBackoff))
	return nil
}

// captureFlight snapshots the last telemetry window into the fault
// report's post-mortem bundle.
func (m *master) captureFlight(reason string) {
	if m.plane == nil {
		return
	}
	m.collectTelemetry()
	m.report.Flight = m.plane.Recorder().Capture(m.plane.Merger(), reason)
}

// resync rewinds θ to the last checkpoint, re-partitions the evicted
// workers' shards across the survivors, pushes the supplements and θ,
// confirms survivor liveness and re-measures the resumed loss. A
// further fault on the way comes back as another rankFailure.
func (m *master) resync() (err error) {
	defer func() { recoverUnwind(recover(), &err) }()
	start := time.Now()
	defer m.ob.Span(0, "elastic_rewind").End()
	s := m.star

	// Rewind to the last snapshot; with none yet (fault before the first
	// op completed) keep the initial θ.
	rewindIter := 0
	if m.lastCK != nil {
		copy(m.theta, m.lastCK.Params)
		rewindIter = m.lastCK.Iteration
	}
	m.iterBase = rewindIter
	m.curIter = rewindIter
	if rewindIter < len(m.iters) {
		// Iterations after the snapshot were lost to the rewind.
		m.iters = m.iters[:rewindIter]
	}

	// New round: every stale in-flight reply is orphaned by its tag.
	s.round++

	// Re-partition the orphaned shards across survivors and ship the
	// supplements. One that cannot be delivered stays in its survivor's
	// plan, so evicting that survivor orphans it again.
	supTrain := corpus.Reshard(m.pending.TrainUtts, len(s.live), m.part)
	supHeld := corpus.Reshard(m.pending.HeldUtts, len(s.live), m.part)
	reshardUtts := len(m.pending.TrainUtts) + len(m.pending.HeldUtts)
	reshardFrames := corpus.ReshardFrames(supTrain) + corpus.ReshardFrames(supHeld)
	m.pending = shardSupplement{}
	errs := make([]error, len(s.live))
	for i, w := range s.live {
		sup := shardSupplement{}
		if i < len(supTrain) {
			sup.TrainUtts = supTrain[i]
		}
		if i < len(supHeld) {
			sup.HeldUtts = supHeld[i]
		}
		if len(sup.TrainUtts) == 0 && len(sup.HeldUtts) == 0 {
			continue
		}
		m.plan[w-1].TrainUtts = append(m.plan[w-1].TrainUtts, sup.TrainUtts...)
		m.plan[w-1].HeldUtts = append(m.plan[w-1].HeldUtts, sup.HeldUtts...)
		body, err := encodeGob(&sup)
		if err != nil {
			return fmt.Errorf("core: encode re-shard supplement: %w", err)
		}
		errs[i] = m.comm.SendBytes(w, mpi.TagStarCmd, emEncode(emShard, s.round, body))
	}
	m.ob.Registry().Counter("core.elastic.reshard_utterances").Add(int64(reshardUtts))
	m.ob.Registry().Counter("core.elastic.reshard_frames").Add(int64(reshardFrames))
	if err := s.failure("reshard", errs); err != nil {
		return err
	}

	// Push the rewound θ, confirm liveness, re-measure the loss.
	m.SetParams(m.theta)
	if err := m.heartbeat(); err != nil {
		return err
	}
	resumeLoss := m.HeldOutLoss(m.theta)

	wall := time.Since(start)
	for i := range m.report.Evictions {
		ev := &m.report.Evictions[i]
		if ev.RewindWall == 0 {
			ev.RewindIter = rewindIter
			ev.ResumeLoss = resumeLoss
			ev.ReshardUtts = reshardUtts
			ev.ReshardFrames = reshardFrames
			ev.RewindWall = wall
		}
	}
	m.ob.Registry().Histogram("core.elastic.rewind_ns").Observe(wall.Nanoseconds())
	m.ob.Eventf(0, "elastic: resumed at iter %d with %d workers (loss %.4f, rewind %v)",
		rewindIter, len(s.live), resumeLoss, wall.Round(time.Millisecond))
	return nil
}

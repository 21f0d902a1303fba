package core

// Session is the single front door to distributed training, one
// options-based constructor:
//
//	sess, err := core.NewSession(p,
//		core.WithRanks(8),
//		core.WithFabric(core.FabricTCP),
//		core.WithObserver(ob),
//		core.WithFaults(core.FaultPolicy{MaxEvictions: 2}),
//		core.WithCheckpoint(core.CheckpointPolicy{Every: 1}),
//	)
//	...
//	res, err := sess.Run(hfCfg)
//
// Two modes:
//
//   - Spawn mode (default): the session builds an in-process fabric
//     (goroutine ranks over InprocFabric or localhost TCP), runs the
//     master on rank 0 and workers on the rest, joins them, and returns
//     the master's result.
//
//   - Attach mode (WithComm): the caller owns rank launch — one Session
//     per rank over an externally built communicator. Run dispatches on
//     the comm's rank: rank 0 trains and returns the result; other
//     ranks serve the worker loop and return (nil, nil).
//
// Both modes run the same master loop and worker over the one ops table
// (ops.go) and the one wire (star.go), whose failures name a rank.
// WithFaults supplies the policy for that report — deadlines, heartbeats,
// evict, re-shard and rewind (elastic.go) — and is a master-side option
// only: a worker serves the same loop with or without it. Without it
// the first failure ends the run.

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/corpus"
	"repro/internal/hf"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/obs/telemetry"
)

// FabricKind selects the transport a spawn-mode Session builds.
type FabricKind int

const (
	// FabricInproc is the deterministic in-process mailbox fabric.
	FabricInproc FabricKind = iota
	// FabricTCP is the localhost TCP fabric — the same code path a true
	// multi-process deployment uses, exercised inside one process.
	FabricTCP
)

func (k FabricKind) String() string {
	switch k {
	case FabricInproc:
		return "inproc"
	case FabricTCP:
		return "tcp"
	}
	return fmt.Sprintf("fabric(%d)", int(k))
}

// ParseFabric converts a flag string ("inproc", "tcp") to a FabricKind.
func ParseFabric(s string) (FabricKind, error) {
	switch s {
	case "inproc":
		return FabricInproc, nil
	case "tcp":
		return FabricTCP, nil
	}
	return 0, fmt.Errorf("core: unknown fabric %q (want inproc, tcp)", s)
}

// sessionOptions accumulates option state before validation.
type sessionOptions struct {
	ranks    int
	ranksSet bool
	fabric   FabricKind
	fabSet   bool
	comm     *mpi.Comm
	part     corpus.Partitioner
	ob       *obs.Observer
	faults   *FaultPolicy
	ckpt     *CheckpointPolicy
	tele     *telemetry.Config
}

// Option configures a Session.
type Option func(*sessionOptions)

// WithRanks sets the spawn-mode rank count, master included (default 4).
// Incompatible with WithComm.
func WithRanks(n int) Option {
	return func(o *sessionOptions) { o.ranks, o.ranksSet = n, true }
}

// WithFabric selects the spawn-mode transport (default FabricInproc).
// Incompatible with WithComm.
func WithFabric(k FabricKind) Option {
	return func(o *sessionOptions) { o.fabric, o.fabSet = k, true }
}

// WithComm attaches the session to an externally built communicator
// instead of spawning a fabric: the caller runs one Session per rank and
// Run dispatches on comm.Rank(). Incompatible with WithRanks and
// WithFabric.
func WithComm(comm *mpi.Comm) Option {
	return func(o *sessionOptions) { o.comm = comm }
}

// WithPartitioner sets the shard partitioner (default the paper's
// sorted-greedy equal-frame partitioner).
func WithPartitioner(part corpus.Partitioner) Option {
	return func(o *sessionOptions) { o.part = part }
}

// WithObserver routes spans, metrics and events through ob (nil is the
// no-op observer).
func WithObserver(ob *obs.Observer) Option {
	return func(o *sessionOptions) { o.ob = ob }
}

// WithFaults gives the master a fault policy, the elastic runtime:
// per-op deadlines, heartbeats, worker eviction, shard re-partitioning
// and checkpoint rewinds per pol. It changes nothing on a worker rank.
func WithFaults(pol FaultPolicy) Option {
	return func(o *sessionOptions) { o.faults = &pol }
}

// WithCheckpoint sets the elastic runtime's rewind cadence (and optional
// on-disk mirror). Requires WithFaults — checkpoints exist to be rewound
// to; without a fault policy nothing ever rewinds.
func WithCheckpoint(pol CheckpointPolicy) Option {
	return func(o *sessionOptions) { o.ckpt = &pol }
}

// WithTelemetry enables the distributed telemetry plane: a clock-offset
// handshake at session start, per-iteration shipment of every rank's
// spans/metrics/events to the master's merger (one merged trace on a
// common timebase), a flight recorder for post-mortem fault bundles,
// and live health state. Read the plane back with Session.Telemetry —
// e.g. to serve it over HTTP with telemetry.NewServer. The zero Config
// selects defaults.
func WithTelemetry(cfg telemetry.Config) Option {
	return func(o *sessionOptions) { o.tele = &cfg }
}

// Session is a configured distributed training run. Build with
// NewSession; execute with Run.
type Session struct {
	p     Problem
	opt   sessionOptions
	plane *telemetry.Plane
}

// NewSession validates the option set against the problem and returns a
// runnable session. See the package-level Option docs for the legal
// combinations; the zero option set spawns 4 inproc ranks with no fault
// policy.
func NewSession(p Problem, opts ...Option) (*Session, error) {
	o := sessionOptions{ranks: 4, fabric: FabricInproc}
	for _, opt := range opts {
		opt(&o)
	}
	if o.comm != nil {
		if o.ranksSet || o.fabSet {
			return nil, errors.New("core: WithComm is incompatible with WithRanks/WithFabric (the attached comm fixes both)")
		}
		if o.comm.Size() < 2 {
			return nil, fmt.Errorf("core: distributed training needs ≥2 ranks, have %d", o.comm.Size())
		}
	} else {
		if o.ranks < 2 {
			return nil, fmt.Errorf("core: need ≥2 ranks, got %d", o.ranks)
		}
		switch o.fabric {
		case FabricInproc, FabricTCP:
		default:
			return nil, fmt.Errorf("core: unknown fabric %v", o.fabric)
		}
	}
	if o.ckpt != nil && o.faults == nil {
		return nil, errors.New("core: WithCheckpoint requires WithFaults (checkpoints exist to be rewound to)")
	}
	if o.faults != nil && o.faults.Inject != nil && o.comm != nil {
		return nil, errors.New("core: FaultPolicy.Inject requires spawn mode (attached comms are owned by the caller)")
	}
	if o.part == nil {
		o.part = corpus.SortedGreedy{}
	}
	// Validate the problem wherever this session will run a master. A
	// worker-rank attach session never touches the full corpus, which
	// legitimately may be empty there.
	if o.comm == nil || o.comm.Rank() == 0 {
		filled := p.filled()
		if err := filled.validate(); err != nil {
			return nil, err
		}
	}
	s := &Session{p: p, opt: o}
	if o.tele != nil && (o.comm == nil || o.comm.Rank() == 0) {
		// Build the plane eagerly so callers can serve it over HTTP
		// before Run starts (telemetry.NewServer(addr, sess.Telemetry())).
		epoch := o.ob.Tracer().Epoch()
		if epoch.IsZero() {
			epoch = time.Now()
		}
		s.plane = telemetry.NewPlane(o.tele.Filled(), epoch)
		s.plane.Merger().BindLocal(0, o.ob.Registry())
	}
	return s, nil
}

// Telemetry returns the session's telemetry plane: non-nil only on the
// rank that runs the master (rank 0, or any spawn-mode session) when
// WithTelemetry was given. Available before Run so the monitoring
// endpoint can be up for the whole run.
func (s *Session) Telemetry() *telemetry.Plane {
	if s == nil {
		return nil
	}
	return s.plane
}

// Run executes the session: spawn mode trains to completion and returns
// the master's result; attach mode returns the result on rank 0 and
// (nil, nil) on worker ranks after their loop drains.
func (s *Session) Run(cfg hf.Config) (*MasterResult, error) {
	if s.opt.comm != nil {
		return s.runAttached(cfg)
	}
	return s.runSpawned(cfg)
}

func (s *Session) runAttached(cfg hf.Config) (*MasterResult, error) {
	comm, o := s.opt.comm, &s.opt
	if comm.Rank() == 0 {
		return runMaster(comm, s.p, cfg, o, s.plane, nil)
	}
	var ship *telemetry.Shipper
	if o.tele != nil {
		ship = telemetry.NewShipper(comm.Rank(), o.ob)
	}
	return nil, runWorker(comm, o.ob, ship, nil)
}

// rankErr pairs a worker error with its rank so elastic joins can
// separate injected deaths from real failures.
type rankErr struct {
	rank int
	err  error
}

func (s *Session) runSpawned(cfg hf.Config) (*MasterResult, error) {
	o := &s.opt
	ranks := o.ranks

	// Build one transport per rank.
	var transports []mpi.Transport
	switch o.fabric {
	case FabricInproc:
		fabric := mpi.NewInprocFabric(ranks)
		defer fabric.Close()
		for r := 0; r < ranks; r++ {
			transports = append(transports, fabric.Transport(r))
		}
	case FabricTCP:
		ts, err := mpi.ConnectTCPLocal(ranks)
		if err != nil {
			return nil, err
		}
		transports = ts
	}

	// Per-rank wrapping: fault injection first (so injected kills close
	// the real transport), then deadlines.
	epochHooks := make([]func(int), ranks)
	comms := make([]*mpi.Comm, ranks)
	for r := 0; r < ranks; r++ {
		t := transports[r]
		if o.faults != nil {
			if o.faults.Inject != nil {
				t = mpi.InjectFaults(t, o.faults.Inject)
				if ft, ok := t.(*mpi.FaultTransport); ok {
					epochHooks[r] = ft.SetEpoch
				}
			}
			if wd, ok := t.(mpi.WriteDeadliner); ok {
				wd.SetWriteDeadline(o.faults.FaultConfig.Filled().WriteDeadline)
			}
		}
		comms[r] = mpi.NewComm(t)
	}

	workerErrs := make(chan rankErr, ranks-1)
	for r := 1; r < ranks; r++ {
		go func(r int) {
			comm := comms[r]
			defer comm.Close()
			// With telemetry on, each spawned worker observes into its own
			// private observer and ships it over the fabric — the same
			// aggregation path a true multi-process deployment exercises.
			// Without it, ranks share o.ob directly (nil ship still answers
			// the master's telemetry commands with empty bundles).
			wob := o.ob
			var ship *telemetry.Shipper
			if s.plane != nil {
				wob = &obs.Observer{Metrics: obs.NewRegistry(), Trace: obs.NewTracer(), Events: obs.NewEventLog(0)}
				ship = telemetry.NewShipper(r, wob)
			}
			workerErrs <- rankErr{rank: r, err: runWorker(comm, wob, ship, epochHooks[r])}
		}(r)
	}

	master := comms[0]
	defer master.Close()
	res, err := runMaster(master, s.p, cfg, o, s.plane, epochHooks[0])
	if err != nil {
		if s.plane != nil {
			s.plane.Health().SetState("failed")
			if s.plane.Recorder().Last() == nil {
				s.plane.Recorder().Capture(s.plane.Merger(), "master error: "+err.Error())
			}
		}
		// Unblock workers still parked in a Recv before draining them.
		for r := 1; r < ranks; r++ {
			_ = comms[r].Close() // best-effort: the master's error is primary
		}
	}

	evicted := map[int]bool{}
	if res != nil && res.Fault != nil {
		for _, ev := range res.Fault.Evictions {
			evicted[ev.Rank] = true
		}
	}
	// An evicted worker that is still alive (evicted for slowness, not
	// death) is parked in a Recv the master will never answer — the stop
	// fan-out only covers live ranks. Close its comm to unpark it.
	for r := range evicted {
		if r >= 1 && r < ranks {
			_ = comms[r].Close() // best-effort: eviction already recorded
		}
	}
	for r := 1; r < ranks; r++ {
		we := <-workerErrs
		if we.err == nil || err != nil {
			continue
		}
		// An evicted worker's exit error is expected — its transport was
		// killed or its master vanished mid-op; the eviction record in
		// res.Fault is the authoritative account.
		if evicted[we.rank] {
			continue
		}
		err = fmt.Errorf("core: worker %d: %w", we.rank, we.err)
	}
	if err != nil {
		return nil, err
	}
	return res, nil
}

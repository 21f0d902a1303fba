package core

// Session is the single front door to distributed training, one
// options-based constructor:
//
//	sess, err := core.NewSession(p,
//		core.WithRanks(8),
//		core.WithFabric(core.FabricTCP),
//		core.WithObserver(ob),
//		core.WithFaults(core.FaultPolicy{MaxEvictions: 2}),
//		core.WithCheckpoint(core.CheckpointPolicy{Path: "run.ckpt"}),
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
// (ops.go) and the one wire (star.go), whose failures name a rank. Every
// run acts on that report under a FaultPolicy — deadlines, heartbeats,
// evict, re-shard and rewind (elastic.go). WithFaults sets it and is a
// master-side option only: a worker serves the same loop with or without
// it. Without it the policy is FaultPolicy{MaxEvictions: -1}: the same
// deadlines, and the first failure ends the run in a SurrenderError.

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
	// FabricTCP is the localhost TCP fabric: real sockets and framing,
	// every rank still in this process.
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
	faults   FaultPolicy // filled by NewSession
	faultSet bool
	ckpt     CheckpointPolicy
	ckptSet  bool
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
// no-op observer). In attach mode ob is this rank's observer. In spawn
// mode ob is rank 0's, and a non-nil ob also turns on the telemetry
// plane: every worker rank observes into its own observer, and the
// master drains each rank's spans, rank 0's included, into the plane's
// merger, so read them through Session.Telemetry.
func WithObserver(ob *obs.Observer) Option {
	return func(o *sessionOptions) { o.ob = ob }
}

// WithFaults sets the master's fault policy, the elastic runtime:
// per-op deadlines, heartbeats, worker eviction, shard re-partitioning
// and checkpoint rewinds per pol. The default, FaultPolicy{MaxEvictions:
// -1}, keeps the deadlines and tolerates no eviction. It changes nothing
// on a worker rank.
func WithFaults(pol FaultPolicy) Option {
	return func(o *sessionOptions) { o.faults, o.faultSet = pol, true }
}

// WithCheckpoint sets the elastic runtime's on-disk mirror of its rewind
// points. Requires WithFaults — checkpoints exist to be rewound to;
// under the default policy nothing ever rewinds.
func WithCheckpoint(pol CheckpointPolicy) Option {
	return func(o *sessionOptions) { o.ckpt, o.ckptSet = pol, true }
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
// combinations; the zero option set spawns 4 inproc ranks under
// FaultPolicy{MaxEvictions: -1}.
func NewSession(p Problem, opts ...Option) (*Session, error) {
	o := sessionOptions{ranks: 4, fabric: FabricInproc, faults: FaultPolicy{MaxEvictions: -1}}
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
	if o.ckptSet && !o.faultSet {
		return nil, errors.New("core: WithCheckpoint requires WithFaults (checkpoints exist to be rewound to)")
	}
	if o.faults.Inject != nil && o.comm != nil {
		return nil, errors.New("core: FaultPolicy.Inject requires spawn mode (attached comms are owned by the caller)")
	}
	if o.faults.Inject != nil {
		for _, ev := range o.faults.Inject.Events {
			if ev.Rank < 1 || ev.Rank >= o.ranks {
				return nil, fmt.Errorf("core: fault event %q names rank %d; only worker ranks 1..%d of a %d-rank run can be faulted (the master is not evictable)", ev, ev.Rank, o.ranks-1, o.ranks)
			}
		}
	}
	o.faults = o.faults.filled()
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
	if o.comm == nil && o.ob != nil {
		// An observed spawn-mode run always has the plane. Build it
		// eagerly so callers can serve it over HTTP before Run starts
		// (telemetry.NewServer(addr, sess.Telemetry())).
		epoch := o.ob.Tracer().Epoch()
		if epoch.IsZero() {
			epoch = time.Now()
		}
		s.plane = telemetry.NewPlane(epoch)
		s.plane.Merger().Bind(0, o.ob)
	}
	return s, nil
}

// Telemetry returns the session's telemetry plane, non-nil only for a
// spawn-mode session with a non-nil observer. Available before Run so
// the monitoring endpoint can be up for the whole run.
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
		return runMaster(comm, s.p, cfg, o, nil, nil)
	}
	return nil, runWorker(comm, o.ob, nil)
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
		if o.faults.Inject != nil {
			t = mpi.InjectFaults(t, o.faults.Inject)
			if ft, ok := t.(*mpi.FaultTransport); ok {
				epochHooks[r] = ft.SetEpoch
			}
		}
		if wd, ok := t.(mpi.WriteDeadliner); ok {
			wd.SetWriteDeadline(o.faults.WriteDeadline)
		}
		comms[r] = mpi.NewComm(t)
	}

	workerErrs := make(chan rankErr, ranks-1)
	for r := 1; r < ranks; r++ {
		// With the plane on, each worker observes into its own observer,
		// bound into the master's merger before the rank starts, which
		// drains it in place. Without it no rank observes anything.
		var wob *obs.Observer
		if s.plane != nil {
			wob = &obs.Observer{Metrics: obs.NewRegistry(), Trace: obs.NewTracer(), Events: obs.NewEventLog(0)}
			s.plane.Merger().Bind(r, wob)
		}
		go func(r int) {
			comm := comms[r]
			defer comm.Close()
			workerErrs <- rankErr{rank: r, err: runWorker(comm, wob, epochHooks[r])}
		}(r)
	}

	master := comms[0]
	defer master.Close()
	res, err := runMaster(master, s.p, cfg, o, s.plane, epochHooks[0])
	if err != nil {
		// Unblock workers still parked in a Recv before draining them.
		for r := 1; r < ranks; r++ {
			_ = comms[r].Close() // best-effort: the master's error is primary
		}
	}

	evicted := map[int]bool{}
	if res != nil {
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
	var werr error
	for r := 1; r < ranks; r++ {
		we := <-workerErrs
		// An evicted worker's exit error is expected — its transport was
		// killed or its master vanished mid-op; the eviction record in
		// res.Fault is the authoritative account.
		if we.err == nil || err != nil || evicted[we.rank] {
			continue
		}
		werr = fmt.Errorf("core: worker %d: %w", we.rank, we.err)
	}
	// Every rank has returned: collect once more for the spans that end
	// after a worker's last reply.
	s.plane.Merger().Collect()
	if err != nil {
		s.plane.Health().SetState("failed")
		if s.plane.Recorder().Last() == nil {
			s.plane.Recorder().Capture(s.plane.Merger(), "master error: "+err.Error())
		}
		return nil, err
	}
	if werr != nil {
		return nil, werr
	}
	return res, nil
}

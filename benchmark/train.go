package main

import (
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/hf"
	"repro/internal/mpi"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/tensor"
)

// trainResult is the outcome of one training stage.
type trainResult struct {
	wall     time.Duration   // hf.Optimize or Session.Run, start to return
	iterWall []time.Duration // gap between iteration reports; the first holds start-up (load_data, initial loss)
	hf       hf.Result
	params   tensor.Vector
	fault    *core.FaultReport
	profile  []mpi.PhaseStat
	proc     procDelta
}

func (r trainResult) iterations() int { return len(r.hf.Iters) }

func (r trainResult) losses() []float64 {
	out := make([]float64, len(r.hf.Iters))
	for i, s := range r.hf.Iters {
		out[i] = s.Loss
	}
	return out
}

func (r trainResult) backtracks() int {
	n := 0
	for _, s := range r.hf.Iters {
		n += s.Backtracks
	}
	return n
}

// iterClock timestamps hf.Config.Log calls.
type iterClock struct {
	last time.Time
	gaps []time.Duration
}

func (c *iterClock) start() { c.last = time.Now() }

func (c *iterClock) log(hf.IterStats) {
	now := time.Now()
	c.gaps = append(c.gaps, now.Sub(c.last))
	c.last = now
}

func sessionOptions(how trainer) []core.Option {
	switch how {
	case trainClassicInproc:
		return []core.Option{core.WithRanks(ranks), core.WithFabric(core.FabricInproc)}
	case trainClassicTCP:
		return []core.Option{core.WithRanks(ranks), core.WithFabric(core.FabricTCP)}
	case trainElasticTCP:
		return []core.Option{core.WithRanks(ranks), core.WithFabric(core.FabricTCP), core.WithFaults(core.FaultPolicy{})}
	}
	panic(fmt.Sprintf("no session for trainer %d", how))
}

// trainSetup is the product of a training workload's set-up: the seeded
// problem plus the objective or session built on it.
type trainSetup struct {
	how  trainer
	kind problemKind
	p    core.Problem
	obj  *core.SerialObjective
	sess *core.Session
}

// setUpTraining is what setup_s times for the training half: generate,
// split, and build the serial objective or the spawn-mode session.
func setUpTraining(w workload, seed int64) (*trainSetup, error) {
	s := &trainSetup{how: w.how, kind: w.prob, p: buildProblem(w.prob, seed)}
	var err error
	if w.how.distributed() {
		s.sess, err = core.NewSession(s.p, sessionOptions(w.how)...)
	} else {
		s.obj, err = core.NewSerialObjective(s.p)
	}
	return s, err
}

// traceSink is the one in-memory instrument set of a traced run.
type traceSink struct {
	tracer *obs.Tracer
	reg    *obs.Registry
	msgs   *msgLog
}

func newTraceSink() *traceSink {
	return &traceSink{tracer: obs.NewTracer(), reg: obs.NewRegistry(), msgs: &msgLog{}}
}

func (t *traceSink) observer() *obs.Observer {
	return &obs.Observer{Metrics: t.reg, Trace: t.tracer}
}

// begin opens a span; a nil sink opens none.
func (t *traceSink) begin(rank int, name string) obs.Span {
	if t == nil {
		return obs.Span{}
	}
	return t.tracer.Begin(rank, name)
}

// run is the training stage. With a nil sink it makes exactly the calls a
// user makes; with a sink it runs the serial objective behind
// tracedObjective, or one attach-mode session per rank over traced
// transports.
func (s *trainSetup) run(iters int, sink *traceSink) (trainResult, error) {
	var clk iterClock
	cfg := hfConfig(s.kind, iters, clk.log)
	before := sampleProc()
	clk.start()
	var res trainResult
	if s.how.distributed() {
		var mr *core.MasterResult
		var err error
		if sink == nil {
			mr, err = s.sess.Run(cfg)
		} else {
			mr, err = runAttached(s.how, s.p, cfg, sink)
		}
		if err != nil {
			return res, err
		}
		res.hf, res.params, res.fault, res.profile = mr.HF, mr.Params, mr.Fault, mr.MPIProfile
	} else {
		var obj hf.Objective = s.obj
		if sink != nil {
			obj = &tracedObjective{obj: s.obj, tr: sink.tracer}
		}
		sp := sink.begin(0, spanOptimize)
		res.hf = hf.Optimize(obj, cfg)
		sp.End()
		res.params = s.obj.Params()
	}
	res.proc = before.until(sampleProc())
	res.wall, res.iterWall = res.proc.wall, clk.gaps
	return res, nil
}

// runAttached launches the ranks itself, as a multi-process deployment
// would: one Session per rank over a communicator whose transport is
// traced. It mirrors what spawn mode does around the sessions (write
// deadlines for the elastic runtime, closing every endpoint, joining the
// workers) and nothing else.
func runAttached(how trainer, p core.Problem, cfg hf.Config, sink *traceSink) (*core.MasterResult, error) {
	var ts []mpi.Transport
	if how == trainClassicInproc {
		fab := mpi.NewInprocFabric(ranks)
		defer fab.Close()
		for r := 0; r < ranks; r++ {
			ts = append(ts, fab.Transport(r))
		}
	} else {
		var err error
		if ts, err = mpi.ConnectTCPLocal(ranks); err != nil {
			return nil, err
		}
	}
	ob := sink.observer()
	sessions := make([]*core.Session, ranks)
	comms := make([]*mpi.Comm, ranks)
	for r := range sessions {
		tt := traced(ts[r], sink.tracer, sink.msgs)
		opts := []core.Option{core.WithObserver(ob)}
		if how == trainElasticTCP {
			pol := core.FaultPolicy{}
			tt.SetWriteDeadline(pol.FaultConfig.Filled().WriteDeadline)
			opts = append(opts, core.WithFaults(pol))
		}
		comms[r] = mpi.NewComm(tt)
		sess, err := core.NewSession(p, append(opts, core.WithComm(comms[r]))...)
		if err != nil {
			for _, c := range comms[:r+1] {
				_ = c.Close() // the session error is the one to report
			}
			return nil, err
		}
		sessions[r] = sess
	}

	workerErrs := make(chan error, ranks-1)
	for r := 1; r < ranks; r++ {
		go func(r int) {
			defer func() { _ = comms[r].Close() }() // the worker's Run error is the one reported
			_, err := sessions[r].Run(cfg)
			if err != nil {
				err = fmt.Errorf("worker %d: %w", r, err)
			}
			workerErrs <- err
		}(r)
	}
	sp := sink.begin(0, spanSessionRun)
	res, err := sessions[0].Run(cfg)
	sp.End()
	if err != nil {
		// Unblock workers parked in a Recv the master will never answer.
		for r := 1; r < ranks; r++ {
			_ = comms[r].Close() // best effort: the master's error is primary
		}
	}
	_ = comms[0].Close() // the run is over; a close error changes nothing
	for r := 1; r < ranks; r++ {
		if werr := <-workerErrs; werr != nil && err == nil {
			err = werr
		}
	}
	return res, err
}

// referenceLosses runs the first iters iterations again, untimed, on the
// reference implementation of the workload's problem: the serial objective
// for serial workloads, the classic protocol on the in-process fabric for
// distributed ones.
func referenceLosses(w workload, seed int64, iters int) ([]float64, error) {
	ref := w
	if w.how.distributed() {
		ref.how = trainClassicInproc
	}
	s, err := setUpTraining(ref, seed)
	if err != nil {
		return nil, err
	}
	res, err := s.run(iters, nil)
	if err != nil {
		return nil, err
	}
	return res.losses(), nil
}

// lossTolerance is how far the elastic protocol's trajectory may sit from
// the classic one (its fold order differs); every other pairing must agree
// to the bit.
const lossTolerance = 1e-5

// heldOutLoss evaluates the mean per-frame cross-entropy of params on the
// held-out set through nn alone, independently of the trainer's engine.
func heldOutLoss(p core.Problem, params tensor.Vector) float64 {
	net := nn.New(p.Topo)
	net.SetParams(params)
	x, y := corpus.SpliceFrames(p.Heldout.Utts, p.Heldout.FeatDim, p.Heldout.Context)
	const batch = 256
	var total float64
	for lo := 0; lo < x.Rows; lo += batch {
		n := min(batch, x.Rows-lo)
		loss, _ := nn.CrossEntropy(net.Forward(x.View(lo, 0, n, x.Cols)).Logits, y[lo:lo+n])
		total += loss
	}
	return total / float64(x.Rows)
}

// checkTraining applies the fail-closed rules to a finished training
// stage and returns one error per violated rule.
func checkTraining(w workload, seed int64, p core.Problem, res trainResult, wantIters int) []error {
	var errs []error
	fail := func(format string, args ...any) { errs = append(errs, fmt.Errorf(w.name+": "+format, args...)) }

	losses := res.losses()
	if len(losses) != wantIters {
		fail("ran %d HF iterations, want %d", len(losses), wantIters)
	}
	for i, l := range losses {
		if math.IsNaN(l) || math.IsInf(l, 0) {
			fail("loss at iteration %d is %v", i+1, l)
		}
	}
	for i := 1; i < len(losses); i++ {
		if losses[i] > losses[i-1] {
			fail("loss rose from %v to %v at iteration %d", losses[i-1], losses[i], i+1)
		}
	}
	// A run never ends above the loss it started from (a rejected step
	// repeats the previous loss), and where the workload demands it, it
	// ends below.
	initial := heldOutLoss(p, initialParams(p))
	slack := lossTolerance * initial // the trainer sums the loss in another order
	if final := res.hf.FinalLoss; final > initial+slack || (w.mustImprove && final >= initial-slack) {
		fail("final loss %v is not below the initial loss %v", final, initial)
	}
	if len(errs) > 0 {
		return errs
	}

	if got := heldOutLoss(p, res.params); relDiff(got, res.hf.FinalLoss) > lossTolerance {
		fail("final loss %v, but the returned parameters score %v on the held-out set", res.hf.FinalLoss, got)
	}
	if n := min(w.refIters, len(losses)); n > 0 {
		ref, err := referenceLosses(w, seed, n)
		if err != nil {
			return append(errs, fmt.Errorf("%s: reference run: %w", w.name, err))
		}
		tol := 0.0
		if w.how == trainElasticTCP {
			tol = lossTolerance
		}
		for i := range ref {
			if relDiff(ref[i], losses[i]) > tol {
				fail("loss at iteration %d is %v, the reference run has %v (tolerance %g)", i+1, losses[i], ref[i], tol)
			}
		}
	}
	return errs
}

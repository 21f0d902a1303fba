package core

import (
	"errors"
	"math"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/mpi"
	"repro/internal/obs"
)

// faultPolicy builds the test fault policy: inject the given schedule,
// keep detection deadlines short so a genuinely stuck run fails the
// test quickly instead of eating the 10s production default.
func faultPolicy(t *testing.T, spec string) FaultPolicy {
	t.Helper()
	sched, err := mpi.ParseFaultSchedule(spec)
	if err != nil {
		t.Fatalf("parse fault schedule %q: %v", spec, err)
	}
	return FaultPolicy{
		FaultConfig: mpi.FaultConfig{OpDeadline: 5 * time.Second},
		Backoff:     time.Millisecond,
		Inject:      sched,
	}
}

// TestElasticKillWorkerMidCG is the acceptance drill: 5 ranks, kill
// worker 2 when it learns training reached iteration 3 (i.e. during
// that iteration's CG phase), on both fabrics. The run must finish with
// exactly one eviction, a resume loss matching the rewound checkpoint,
// and a final loss equivalent to an uninterrupted 3-worker run — with a
// full-data curvature sample every worker count executes the same
// algorithm, so losing a rank may not change the result.
func TestElasticKillWorkerMidCG(t *testing.T) {
	p := testProblem(t, CrossEntropy)
	cfg := fastHF()

	// Uninterrupted baseline at the post-eviction worker count.
	baseSess, err := NewSession(p, WithRanks(4))
	if err != nil {
		t.Fatal(err)
	}
	base, err := baseSess.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	for _, fabric := range []FabricKind{FabricInproc, FabricTCP} {
		t.Run(fabric.String(), func(t *testing.T) {
			ob := &obs.Observer{Metrics: obs.NewRegistry(), Trace: obs.NewTracer()}
			ckPath := filepath.Join(t.TempDir(), "elastic.ck")
			sess, err := NewSession(p,
				WithRanks(5),
				WithFabric(fabric),
				WithObserver(ob),
				WithFaults(faultPolicy(t, "kill:rank=2,epoch=3")),
				WithCheckpoint(CheckpointPolicy{Path: ckPath}),
			)
			if err != nil {
				t.Fatal(err)
			}
			res, err := sess.Run(cfg)
			if err != nil {
				t.Fatalf("elastic run: %v", err)
			}

			// Exactly one eviction, of the killed rank.
			if res.Fault == nil {
				t.Fatal("MasterResult.Fault nil on elastic run")
			}
			if n := len(res.Fault.Evictions); n != 1 {
				t.Fatalf("evictions = %d (%+v), want exactly 1", n, res.Fault.Evictions)
			}
			ev := res.Fault.Evictions[0]
			if ev.Rank != 2 {
				t.Errorf("evicted rank %d, want 2", ev.Rank)
			}
			if res.Fault.Surrendered {
				t.Error("run surrendered despite eviction budget")
			}
			if res.Fault.FinalWorkers != 3 {
				t.Errorf("final workers = %d, want 3", res.Fault.FinalWorkers)
			}

			// The kill landed at iteration 3, so the rewind can be at most
			// to the checkpoint of iteration 3.
			if ev.HFIter < 1 || ev.HFIter > cfg.MaxIterations {
				t.Errorf("eviction at HF iter %d, want within [1,%d]", ev.HFIter, cfg.MaxIterations)
			}
			if ev.RewindIter >= ev.HFIter && ev.HFIter > 0 {
				t.Errorf("rewound to iter %d, at/after the faulted iter %d", ev.RewindIter, ev.HFIter)
			}
			if ev.RewindWall <= 0 {
				t.Error("rewind wall time not recorded")
			}
			if ev.ReshardUtts <= 0 || ev.ReshardFrames <= 0 {
				t.Errorf("re-shard size %d utts/%d frames, want > 0 (the dead worker held data)",
					ev.ReshardUtts, ev.ReshardFrames)
			}

			// The resumed loss must reproduce the checkpointed loss: same θ,
			// same utterances, only the shard grouping (and hence float
			// summation order) changed.
			if math.IsNaN(ev.ResumeLoss) || ev.ResumeLoss <= 0 {
				t.Errorf("resume loss %v, want positive finite", ev.ResumeLoss)
			}
			if ev.RewindIter >= 1 && ev.RewindIter <= len(res.HF.Iters) {
				ckIter := res.HF.Iters[ev.RewindIter-1]
				if ckIter.Accepted {
					if d := math.Abs(ev.ResumeLoss - ckIter.Loss); d > 1e-3 {
						t.Errorf("resume loss %v vs checkpoint loss %v (|Δ|=%v), want ≤ 1e-3",
							ev.ResumeLoss, ckIter.Loss, d)
					}
				}
			}

			// Stitched trace: globally renumbered, contiguous, full length.
			if len(res.HF.Iters) != cfg.MaxIterations {
				t.Fatalf("stitched trace has %d iters, want %d", len(res.HF.Iters), cfg.MaxIterations)
			}
			for i, s := range res.HF.Iters {
				if s.Iter != i+1 {
					t.Fatalf("iters[%d].Iter = %d, want %d (renumbering broke)", i, s.Iter, i+1)
				}
			}

			// Equivalent final loss to the uninterrupted 3-worker baseline.
			if d := math.Abs(res.HF.FinalLoss - base.HF.FinalLoss); d > 0.05 {
				t.Errorf("final loss %v vs uninterrupted 3-worker %v (|Δ|=%v), want ≤ 0.05",
					res.HF.FinalLoss, base.HF.FinalLoss, d)
			}

			// Eviction telemetry: counters, gauges and the rewind histogram.
			reg := ob.Registry()
			if got := reg.Counter("core.elastic.evictions").Value(); got != 1 {
				t.Errorf("core.elastic.evictions = %d, want 1", got)
			}
			if got := reg.Gauge("core.elastic.live_workers").Value(); got != 3 {
				t.Errorf("core.elastic.live_workers = %v, want 3", got)
			}
			if got := reg.Counter("core.elastic.reshard_frames").Value(); got != int64(ev.ReshardFrames) {
				t.Errorf("core.elastic.reshard_frames = %d, want %d", got, ev.ReshardFrames)
			}
			if got := reg.Histogram("core.elastic.rewind_ns").Count(); got != 1 {
				t.Errorf("core.elastic.rewind_ns count = %d, want 1", got)
			}
			if got := reg.Histogram("core.elastic.heartbeat_rtt_ns").Count(); got == 0 {
				t.Error("no heartbeat RTTs recorded")
			}

			// The disk mirror must hold a loadable, resumable checkpoint.
			ck, err := LoadCheckpoint(ckPath)
			if err != nil {
				t.Fatalf("load mirrored checkpoint: %v", err)
			}
			if ck.Iteration < 1 {
				t.Errorf("mirrored checkpoint at iteration %d, want ≥ 1", ck.Iteration)
			}
		})
	}
}

// TestElasticSurrender exhausts a zero-tolerance eviction budget and
// checks the structured report in the returned SurrenderError.
func TestElasticSurrender(t *testing.T) {
	p := testProblem(t, CrossEntropy)
	pol := faultPolicy(t, "kill:rank=1,epoch=2")
	pol.MaxEvictions = -1 // no evictions tolerated
	sess, err := NewSession(p, WithRanks(3), WithFaults(pol))
	if err != nil {
		t.Fatal(err)
	}
	_, err = sess.Run(fastHF())
	var serr *SurrenderError
	if !errors.As(err, &serr) {
		t.Fatalf("err = %v, want *SurrenderError", err)
	}
	if !serr.Report.Surrendered {
		t.Error("surrender report not marked Surrendered")
	}
	if len(serr.Report.Evictions) != 1 || serr.Report.Evictions[0].Rank != 1 {
		t.Errorf("surrender evictions = %+v, want exactly rank 1", serr.Report.Evictions)
	}
}

// TestElasticNoFaultMatchesClassic runs a no-fault session with and
// without WithFaults: both must complete without evictions, the classic
// one under the zero budget, and — the wire and its fold being the same,
// and heartbeats and snapshots touching no number — land on bit-equal
// losses and parameters.
func TestElasticNoFaultMatchesClassic(t *testing.T) {
	p := testProblem(t, CrossEntropy)
	cfg := fastHF()
	classicSess, err := NewSession(p, WithRanks(3))
	if err != nil {
		t.Fatal(err)
	}
	classic, err := classicSess.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	elasticSess, err := NewSession(p, WithRanks(3), WithFaults(FaultPolicy{}))
	if err != nil {
		t.Fatal(err)
	}
	elastic, err := elasticSess.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if classic.Fault == nil || len(classic.Fault.Evictions) != 0 || classic.Fault.MaxEvictions != 0 {
		t.Errorf("fault report %+v on a run without WithFaults, want budget 0 and no eviction", classic.Fault)
	}
	if elastic.Fault == nil || len(elastic.Fault.Evictions) != 0 {
		t.Fatalf("fault report %+v, want empty eviction list", elastic.Fault)
	}
	requireSameRun(t, "with a policy", elastic, "without", classic)
}

// TestDefaultPolicyIsZeroBudget: a run with no fault option is the run
// under WithFaults(FaultPolicy{MaxEvictions: -1}), on both fabrics. The
// master sends the same messages (no heartbeat, no seed snapshot's
// held-out op), the runs agree to the bit, and both report a budget of
// 0 and no eviction.
func TestDefaultPolicyIsZeroBudget(t *testing.T) {
	p := testProblem(t, CrossEntropy)
	cfg := fastHF()
	for _, fabric := range []FabricKind{FabricInproc, FabricTCP} {
		t.Run(fabric.String(), func(t *testing.T) {
			// run trains over attach-mode workers with opts on the master
			// and returns its result and the messages it sent.
			run := func(opts ...Option) (*MasterResult, int64) {
				t.Helper()
				ts := testTransports(t, fabric, 3)
				workers := []<-chan runOut{startAttached(ts[1], Problem{}, cfg), startAttached(ts[2], Problem{}, cfg)}
				ob := &obs.Observer{Metrics: obs.NewRegistry()}
				o := <-startAttached(ts[0], p, cfg, append(opts, WithObserver(ob))...)
				for _, w := range workers {
					if wo := <-w; wo.err != nil {
						t.Errorf("worker exit: %v", wo.err)
					}
				}
				if o.err != nil {
					t.Fatal(o.err)
				}
				if f := o.res.Fault; f == nil || len(f.Evictions) != 0 || f.MaxEvictions != 0 {
					t.Errorf("fault report %+v, want budget 0 and no eviction", f)
				}
				return o.res, ob.Registry().Histogram("mpi.send.latency_ns").Count()
			}
			classic, classicSends := run()
			policed, policedSends := run(WithFaults(FaultPolicy{MaxEvictions: -1}))
			if classicSends != policedSends {
				t.Errorf("master sent %d messages without a fault option, %d with FaultPolicy{MaxEvictions: -1}", classicSends, policedSends)
			}
			requireSameRun(t, "without a fault option", classic, "with MaxEvictions -1", policed)
		})
	}
}

// requireSameRun fails unless two runs agree to the bit on every
// iteration's loss, the final loss and the trained parameters.
func requireSameRun(t *testing.T, aName string, a *MasterResult, bName string, b *MasterResult) {
	t.Helper()
	if len(a.HF.Iters) != len(b.HF.Iters) {
		t.Fatalf("%d iterations %s, %d %s", len(a.HF.Iters), aName, len(b.HF.Iters), bName)
	}
	for i := range a.HF.Iters {
		if x, y := a.HF.Iters[i].Loss, b.HF.Iters[i].Loss; math.Float64bits(x) != math.Float64bits(y) {
			t.Errorf("iteration %d loss %v %s, %v %s", i+1, x, aName, y, bName)
		}
	}
	if x, y := a.HF.FinalLoss, b.HF.FinalLoss; math.Float64bits(x) != math.Float64bits(y) {
		t.Errorf("final loss %v %s, %v %s", x, aName, y, bName)
	}
	for i := range a.Params {
		if math.Float32bits(a.Params[i]) != math.Float32bits(b.Params[i]) {
			t.Fatalf("parameter %d is %v %s, %v %s", i, a.Params[i], aName, b.Params[i], bName)
		}
	}
}

// TestAttachModeWorkerNeedsNoFaultOption runs a master with WithFaults
// over attach-mode workers without it: WithFaults is policy, not wire, so
// the run must train to the same result as when every rank passes it.
func TestAttachModeWorkerNeedsNoFaultOption(t *testing.T) {
	p := testProblem(t, CrossEntropy)
	cfg := fastHF()
	run := func(workerOpts ...Option) *MasterResult {
		t.Helper()
		ts := testTransports(t, FabricInproc, 3)
		workers := []<-chan runOut{startAttached(ts[1], Problem{}, cfg, workerOpts...), startAttached(ts[2], Problem{}, cfg, workerOpts...)}
		select {
		case o := <-startAttached(ts[0], p, cfg, WithFaults(FaultPolicy{})):
			if o.err != nil {
				t.Fatal(o.err)
			}
			for _, w := range workers {
				if wo := <-w; wo.err != nil {
					t.Errorf("worker exit: %v", wo.err)
				}
			}
			return o.res
		case <-time.After(30 * time.Second):
			t.Fatal("master and workers disagree on the wire: still running after 30s")
			return nil
		}
	}
	requireSameRun(t, "workers without WithFaults", run(), "workers with it", run(WithFaults(FaultPolicy{})))
}

// TestSessionOptionValidation pins the documented illegal combinations.
func TestSessionOptionValidation(t *testing.T) {
	p := testProblem(t, CrossEntropy)
	fabric := mpi.NewInprocFabric(2)
	defer fabric.Close()
	comm := mpi.NewComm(fabric.Transport(0))

	cases := []struct {
		name string
		opts []Option
		want string // a substring of the error, when set
	}{
		{"comm+ranks", []Option{WithComm(comm), WithRanks(4)}, ""},
		{"comm+fabric", []Option{WithComm(comm), WithFabric(FabricTCP)}, ""},
		{"checkpoint-without-faults", []Option{WithCheckpoint(CheckpointPolicy{})}, ""},
		{"one-rank", []Option{WithRanks(1)}, ""},
		{"inject-attached", []Option{WithComm(comm), WithFaults(FaultPolicy{Inject: &mpi.FaultSchedule{Events: []mpi.FaultEvent{{Action: mpi.ActKill, Rank: 1}}}})}, ""},
		// The master cannot be evicted, and rank 9 of 4 never fires.
		{"kill-master", []Option{WithRanks(4), WithFaults(faultPolicy(t, "kill:rank=0"))}, `fault event "kill:rank=0" names rank 0`},
		{"kill-absent-rank", []Option{WithRanks(4), WithFaults(faultPolicy(t, "kill:rank=9"))}, `fault event "kill:rank=9" names rank 9`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := NewSession(p, tc.opts...)
			if err == nil {
				t.Fatalf("NewSession(%s) succeeded, want error", tc.name)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("NewSession(%s): %v, want it to contain %q", tc.name, err, tc.want)
			}
		})
	}

	// The zero option set and the attach form are both legal.
	if _, err := NewSession(p); err != nil {
		t.Errorf("NewSession with defaults: %v", err)
	}
	if _, err := NewSession(p, WithComm(comm)); err != nil {
		t.Errorf("NewSession attach: %v", err)
	}
}

// TestSessionAttachMode runs master and worker ranks through the same
// attach-mode Session API over an externally owned fabric.
func TestSessionAttachMode(t *testing.T) {
	p := testProblem(t, CrossEntropy)
	cfg := fastHF()
	fabric := mpi.NewInprocFabric(3)
	defer fabric.Close()

	type out struct {
		res *MasterResult
		err error
	}
	outs := make(chan out, 3)
	for r := 0; r < 3; r++ {
		go func(r int) {
			comm := mpi.NewComm(fabric.Transport(r))
			defer comm.Close()
			sess, err := NewSession(p, WithComm(comm))
			if err != nil {
				outs <- out{nil, err}
				return
			}
			res, err := sess.Run(cfg)
			outs <- out{res, err}
		}(r)
	}
	var master *MasterResult
	for i := 0; i < 3; i++ {
		o := <-outs
		if o.err != nil {
			t.Fatal(o.err)
		}
		if o.res != nil {
			if master != nil {
				t.Fatal("two ranks returned a master result")
			}
			master = o.res
		}
	}
	if master == nil {
		t.Fatal("no rank returned a master result")
	}
	if master.HF.FinalLoss <= 0 || math.IsNaN(master.HF.FinalLoss) {
		t.Errorf("attach-mode final loss %v", master.HF.FinalLoss)
	}
}

// TestElasticHeartbeatNoGoroutineLeak is the regression test for the
// goroutineleak audit of the elastic master: a run with heartbeats on
// every iteration (plus the telemetry plane's in-place collection and
// watchdog machinery) must return the process to its pre-run goroutine
// count.
// The heartbeat is deliberately synchronous — this pins that contract
// so a future "async ping" refactor cannot silently leak.
func TestElasticHeartbeatNoGoroutineLeak(t *testing.T) {
	p := testProblem(t, CrossEntropy)
	before := runtime.NumGoroutine()

	ob := &obs.Observer{Metrics: obs.NewRegistry(), Trace: obs.NewTracer(), Events: obs.NewEventLog(0)}
	sess, err := NewSession(p,
		WithRanks(3),
		WithObserver(ob),
		WithFaults(FaultPolicy{
			FaultConfig: mpi.FaultConfig{OpDeadline: 5 * time.Second},
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Run(fastHF()); err != nil {
		t.Fatalf("run: %v", err)
	}

	// Reported RTTs prove heartbeats actually ran.
	hb := ob.Registry().Histogram("core.elastic.heartbeat_rtt_ns")
	if hb.Count() == 0 {
		t.Fatal("no heartbeat RTTs recorded")
	}

	// Goroutines wind down asynchronously after Run returns; poll until
	// the count settles back to (at or below) the baseline.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if runtime.NumGoroutine() <= before {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before run, %d after settle window — leak",
				before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/hf"
	"repro/internal/mpi"
	"repro/internal/tensor"
)

// rogueWorker impersonates a worker that fails mid-iteration: it
// receives its shard and serves frames like a real worker (sync_weights)
// until the first gradient op. Then a dying one closes its endpoint and
// exits without replying; a silent one stays up, reading frames and
// answering none, until its endpoint is closed.
func rogueWorker(t *testing.T, comm *mpi.Comm, silent bool) {
	eng, shard, err := recvShard(comm, mpi.DefaultOpDeadline)
	if err != nil {
		t.Errorf("rogue worker shard: %v", err)
		return
	}
	w := &worker{comm: comm, rank: comm.Rank(), eng: eng, shard: shard, in: make(tensor.Vector, eng.net.NumParams())}
	mute := false
	for {
		msg, err := comm.RecvBytes(0, mpi.TagStarCmd)
		if err != nil {
			return
		}
		if mute {
			continue
		}
		typ, round, body, err := emDecode(msg.Data)
		if err != nil || typ != emOp || len(body) == 0 {
			t.Errorf("rogue worker: frame type %d, body %d bytes, err %v; want an op frame", typ, len(body), err)
			return
		}
		if body[0] == opGradient {
			if !silent {
				comm.Close()
				return
			}
			mute = true
			continue
		}
		if err := w.starStep(round, body); err != nil {
			t.Errorf("rogue worker: %v", err)
			return
		}
	}
}

// runRogue runs a 3-rank attach-mode job, rank 2 a rogueWorker, and
// returns how the master ended and how long it took. It fails the test
// unless the master returns within limit and the healthy worker then
// stops cleanly.
func runRogue(t *testing.T, fabric FabricKind, silent bool, limit time.Duration, opts ...Option) (runOut, time.Duration) {
	t.Helper()
	p := testProblem(t, CrossEntropy)
	cfg := fastHF()
	ts := testTransports(t, fabric, 3)
	healthy := startAttached(ts[1], Problem{}, cfg)
	rogue := mpi.NewComm(ts[2])
	rogueDone := make(chan struct{})
	go func() {
		defer close(rogueDone)
		rogueWorker(t, rogue, silent)
	}()
	defer func() {
		rogue.Close()
		<-rogueDone
	}()
	start := time.Now()
	done := startAttached(ts[0], p, cfg, opts...)

	var o runOut
	select {
	case o = <-done:
	case <-time.After(limit):
		t.Fatalf("master still blocked %v after the worker failed", limit)
	}
	took := time.Since(start)
	select {
	case h := <-healthy:
		if h.err != nil {
			t.Errorf("healthy worker exit: %v, want a clean stop", h.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("healthy worker still serving after the master failed")
	}
	return o, took
}

// requireSurrenderAtGradient fails unless err is a *SurrenderError that
// records one eviction, of rank 2, and wraps the rankFailure naming the
// gradient op and rank 2.
func requireSurrenderAtGradient(t *testing.T, o runOut) {
	t.Helper()
	var surrender *SurrenderError
	if o.res != nil || !errors.As(o.err, &surrender) {
		t.Fatalf("result %+v, err %v: want a *SurrenderError", o.res, o.err)
	}
	if ev := surrender.Report.Evictions; len(ev) != 1 || ev[0].Rank != 2 || surrender.Report.MaxEvictions != 0 {
		t.Errorf("surrender report %+v, want budget 0 and one eviction of rank 2", surrender.Report)
	}
	var rf *rankFailure
	if !errors.As(o.err, &rf) || rf.op != "gradient" || len(rf.suspects) != 1 || rf.suspects[0].rank != 2 ||
		!strings.Contains(o.err.Error(), "gradient failed on rank 2") {
		t.Fatalf("master err = %v, want a rankFailure naming the gradient op and rank 2", o.err)
	}
}

// TestMasterUnblocksOnWorkerDeath runs a 3-rank job with no fault option
// where one worker dies before its gradient reply, on both fabrics. The
// master must return within 5 s a *SurrenderError that evicts rank 2 and
// wraps the rankFailure naming the rank and the op, and stop the healthy
// worker cleanly.
func TestMasterUnblocksOnWorkerDeath(t *testing.T) {
	for _, fabric := range []FabricKind{FabricInproc, FabricTCP} {
		t.Run(fabric.String(), func(t *testing.T) {
			o, _ := runRogue(t, fabric, false, 5*time.Second)
			requireSurrenderAtGradient(t, o)
		})
	}
}

// TestMasterSurrendersOnSilentWorker runs a 3-rank job under a
// zero-budget policy with a 300 ms op deadline where one worker stays up
// but stops replying at the gradient op, on both fabrics. No master wait
// is unbounded: the run must end within the deadline plus 5 s in a
// *SurrenderError wrapping a rankFailure that names rank 2 and the
// gradient op and unwraps to mpi.ErrTimeout.
func TestMasterSurrendersOnSilentWorker(t *testing.T) {
	const deadline = 300 * time.Millisecond
	pol := FaultPolicy{FaultConfig: mpi.FaultConfig{OpDeadline: deadline}, MaxEvictions: -1}
	for _, fabric := range []FabricKind{FabricInproc, FabricTCP} {
		t.Run(fabric.String(), func(t *testing.T) {
			o, took := runRogue(t, fabric, true, deadline+5*time.Second, WithFaults(pol))
			requireSurrenderAtGradient(t, o)
			if !errors.Is(o.err, mpi.ErrTimeout) {
				t.Errorf("err %v does not wrap mpi.ErrTimeout", o.err)
			}
			if took < deadline {
				t.Errorf("master returned after %v, before the %v op deadline", took, deadline)
			}
		})
	}
}

// TestMasterOwnTransportClosed closes the master's own endpoint after
// its first HF iteration, under the zero-budget default and under an
// elastic budget of 1, on both fabrics. Every worker's next op then
// fails, but because of the master: the run must end within the op
// deadline in the master's own error, wrapping mpi.ErrClosed, and must
// neither evict (no *SurrenderError) nor name a healthy worker.
func TestMasterOwnTransportClosed(t *testing.T) {
	const deadline = 2 * time.Second
	for _, fabric := range []FabricKind{FabricInproc, FabricTCP} {
		for _, budget := range []int{-1, 1} {
			t.Run(fmt.Sprintf("%v/budget=%d", fabric, budget), func(t *testing.T) {
				p := testProblem(t, CrossEntropy)
				cfg := fastHF()
				ts := testTransports(t, fabric, 3)
				workers := []<-chan runOut{startAttached(ts[1], Problem{}, cfg), startAttached(ts[2], Problem{}, cfg)}
				var closedAt time.Time
				cfg.Log = func(s hf.IterStats) {
					if s.Iter == 1 {
						closedAt = time.Now()
						ts[0].Close()
					}
				}
				pol := FaultPolicy{FaultConfig: mpi.FaultConfig{OpDeadline: deadline}, MaxEvictions: budget}
				var o runOut
				select {
				case o = <-startAttached(ts[0], p, cfg, WithFaults(pol)):
				case <-time.After(deadline + 5*time.Second):
					t.Fatal("master still running after its transport closed")
				}
				if took := time.Since(closedAt); closedAt.IsZero() || took > deadline {
					t.Errorf("master returned %v after its transport closed, want under the %v op deadline", took, deadline)
				}
				var surrender *SurrenderError
				var rf *rankFailure
				if o.res != nil || !errors.Is(o.err, mpi.ErrClosed) || errors.As(o.err, &surrender) || errors.As(o.err, &rf) ||
					strings.Contains(o.err.Error(), "rank") {
					t.Fatalf("result %v, err %v: want the master's own mpi.ErrClosed, no eviction and no rank named", o.res != nil, o.err)
				}
				// The workers are parked on a master that is gone.
				for r, w := range workers {
					ts[r+1].Close()
					<-w
				}
			})
		}
	}
}

// TestWorkerShardReceiveIsBounded: a worker whose master never ships a
// shard gives up after the bound with an error naming its rank that
// wraps mpi.ErrTimeout.
func TestWorkerShardReceiveIsBounded(t *testing.T) {
	const bound = 100 * time.Millisecond
	for _, fabric := range []FabricKind{FabricInproc, FabricTCP} {
		t.Run(fabric.String(), func(t *testing.T) {
			ts := testTransports(t, fabric, 2)
			master, comm := mpi.NewComm(ts[0]), mpi.NewComm(ts[1])
			defer master.Close()
			defer comm.Close()
			start := time.Now()
			_, _, err := recvShard(comm, bound)
			if took := time.Since(start); took > bound+2*time.Second {
				t.Errorf("recvShard returned after %v, want about %v", took, bound)
			}
			if !errors.Is(err, mpi.ErrTimeout) || !strings.Contains(err.Error(), "worker 1") {
				t.Errorf("err = %v, want an mpi.ErrTimeout naming worker 1", err)
			}
		})
	}
}

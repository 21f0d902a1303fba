package core

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/tensor"
)

// rogueWorker impersonates a worker that crashes mid-iteration: it
// receives its shard and serves frames like a real worker (sync_weights,
// the initial held_loss) until the first gradient op, then closes its
// endpoint and exits without replying.
func rogueWorker(t *testing.T, comm *mpi.Comm) {
	eng, shard, err := recvShard(comm)
	if err != nil {
		t.Errorf("rogue worker shard: %v", err)
		return
	}
	w := &worker{comm: comm, rank: comm.Rank(), eng: eng, shard: shard, in: make(tensor.Vector, eng.net.NumParams())}
	for {
		msg, err := comm.RecvBytes(0, mpi.TagStarCmd)
		if err != nil {
			return
		}
		typ, round, body, err := emDecode(msg.Data)
		if err != nil || typ != emOp || len(body) == 0 {
			t.Errorf("rogue worker: frame type %d, body %d bytes, err %v; want an op frame", typ, len(body), err)
			return
		}
		if body[0] == opGradient {
			comm.Close()
			return
		}
		if err := w.starStep(round, body); err != nil {
			t.Errorf("rogue worker: %v", err)
			return
		}
	}
}

// TestMasterUnblocksOnWorkerDeath runs a 3-rank job with no FaultPolicy
// where one worker dies before its gradient reply, on both fabrics. The
// master must return within 5 s an error naming the rank and the op,
// evict nobody, and stop the healthy worker cleanly.
func TestMasterUnblocksOnWorkerDeath(t *testing.T) {
	p := testProblem(t, CrossEntropy)
	cfg := fastHF()
	for _, fabric := range []FabricKind{FabricInproc, FabricTCP} {
		t.Run(fabric.String(), func(t *testing.T) {
			ts := testTransports(t, fabric, 3)
			healthy := startAttached(ts[1], Problem{}, cfg)
			go rogueWorker(t, mpi.NewComm(ts[2]))
			ob := &obs.Observer{Metrics: obs.NewRegistry()}
			done := startAttached(ts[0], p, cfg, WithObserver(ob))

			select {
			case o := <-done:
				var rf *rankFailure
				var surrender *SurrenderError
				if !errors.As(o.err, &rf) || rf.op != "gradient" || len(rf.suspects) != 1 || rf.suspects[0].rank != 2 ||
					!strings.Contains(o.err.Error(), "gradient failed on rank 2") {
					t.Fatalf("master err = %v, want a rankFailure naming the gradient op and rank 2", o.err)
				}
				if o.res != nil || errors.As(o.err, &surrender) || ob.Registry().Counter("core.elastic.evictions").Value() != 0 {
					t.Errorf("result %+v, err %v: a run without a policy must not evict, surrender or report", o.res, o.err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("master still blocked 5s after worker death")
			}
			select {
			case o := <-healthy:
				if o.err != nil {
					t.Errorf("healthy worker exit: %v, want a clean stop", o.err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("healthy worker still serving after the master failed")
			}
		})
	}
}

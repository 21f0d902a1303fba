package core

import (
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/mpi"
)

// Full distributed training over the TCP fabric: the multi-process
// transport must give the same result as the in-process one (and hence as
// serial training).
func TestDistributedHFOverTCP(t *testing.T) {
	p := testProblem(t, CrossEntropy)
	cfg := fastHF()
	cfg.MaxIterations = 3

	_, serialRes, err := TrainSerialHF(p, cfg)
	if err != nil {
		t.Fatal(err)
	}

	const ranks = 3
	transports, err := mpi.ConnectTCPLocal(ranks)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	workerErrs := make([]error, ranks)
	for r := 1; r < ranks; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			comm := mpi.NewComm(transports[r])
			defer comm.Close()
			// Worker ranks never touch the corpus: the zero Problem is legal.
			sess, err := NewSession(Problem{}, WithComm(comm))
			if err != nil {
				workerErrs[r] = err
				return
			}
			_, workerErrs[r] = sess.Run(cfg)
		}(r)
	}
	master := mpi.NewComm(transports[0])
	sess, err := NewSession(p, WithComm(master))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	master.Close()
	for r := 1; r < ranks; r++ {
		if workerErrs[r] != nil {
			t.Fatalf("worker %d: %v", r, workerErrs[r])
		}
	}

	if math.Abs(res.HF.FinalLoss-serialRes.FinalLoss) > 2e-3 {
		t.Fatalf("TCP-distributed loss %v vs serial %v", res.HF.FinalLoss, serialRes.FinalLoss)
	}
	// The TCP master must have recorded the same communication phases the
	// paper profiles.
	var sawLoadData, sawSync bool
	for _, s := range master.Profiler().Snapshot() {
		switch s.Phase {
		case "load_data":
			sawLoadData = s.Cat == mpi.CatP2P && s.Stat.Bytes > 0
		case "sync_weights":
			sawSync = s.Cat == mpi.CatP2P && s.Stat.Bytes > 0
		}
	}
	if !sawLoadData || !sawSync {
		t.Fatalf("master profile missing phases: load_data=%v sync=%v", sawLoadData, sawSync)
	}
}

// The worker loop must reject malformed shard payloads instead of
// panicking.
func TestWorkerRejectsMalformedShard(t *testing.T) {
	fabric := mpi.NewInprocFabric(2)
	defer fabric.Close()
	errCh := make(chan error, 1)
	go func() {
		sess, err := NewSession(Problem{}, WithComm(mpi.NewComm(fabric.Transport(1))))
		if err != nil {
			errCh <- err
			return
		}
		_, err = sess.Run(fastHF())
		errCh <- err
	}()
	master := mpi.NewComm(fabric.Transport(0))
	if err := master.SendBytes(1, mpi.TagShard, []byte("garbage payload")); err != nil {
		t.Fatal(err)
	}
	if err := <-errCh; err == nil {
		t.Fatal("worker accepted a malformed shard")
	}
}

// Failure injection: a worker that dies after load_data must surface as a
// master error, not a hang — the fabric's peer-down detection reaching
// the training layer.
func TestMasterDetectsDeadWorker(t *testing.T) {
	transports, err := mpi.ConnectTCPLocal(3)
	if err != nil {
		t.Fatal(err)
	}
	p := testProblem(t, CrossEntropy)
	cfg := fastHF()
	// A failed op must unwind hf.Optimize at once; a master that kept
	// issuing ops would run most of these 50 iterations.
	cfg.MaxIterations = 50

	// Worker 1 behaves; worker 2 dies right after receiving its shard.
	go func() {
		comm := mpi.NewComm(transports[1])
		defer comm.Close()
		if sess, err := NewSession(Problem{}, WithComm(comm)); err == nil {
			sess.Run(cfg) // will error once the job collapses; ignored
		}
	}()
	go func() {
		comm := mpi.NewComm(transports[2])
		comm.RecvBytes(0, mpi.TagShard)
		comm.Close() // die before serving any command
	}()

	master := mpi.NewComm(transports[0])
	defer master.Close()
	done := make(chan error, 1)
	go func() {
		sess, err := NewSession(p, WithComm(master))
		if err != nil {
			done <- err
			return
		}
		_, err = sess.Run(cfg)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("master succeeded despite a dead worker")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("master still running 5s after a worker died")
	}
}

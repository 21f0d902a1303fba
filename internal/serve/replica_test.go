package serve

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/mpi"
	"repro/internal/tensor"
)

// TestReplicaOpcodeWalk walks svNames through the real loops. Every
// request opcode sent on mpi.TagServeReq must reach an arm of
// ServeReplica, every reply opcode sent on mpi.TagServeRes an arm of
// replicaScorer.score, and a byte past the table must end either side
// with an error naming it — so an opcode added without an arm, or an arm
// deleted, fails here by the opcode's name.
func TestReplicaOpcodeWalk(t *testing.T) {
	ck, _ := testCheckpoint(t, 6, 10, 4)
	row := appendBatch(nil, 0, tensor.NewMatrix(1, 6))[1:]    // a one-row request body
	logits := appendBatch(nil, 0, tensor.NewMatrix(1, 4))[1:] // and its reply's
	past := byte(len(svNames))

	// toReplica sends one frame to a real ServeReplica loop, then a
	// stop, and returns the first reply byte (0 if none) and the loop's
	// exit error.
	toReplica := func(t *testing.T, op byte, body []byte) (byte, error) {
		fabric := mpi.NewInprocFabric(2)
		defer fabric.Close()
		rs, err := New(ck, WithReplicas(mpi.NewComm(fabric.Transport(1))), WithMaxBatch(8))
		if err != nil {
			t.Fatal(err)
		}
		exit := make(chan error, 1)
		go func() { exit <- rs.ServeReplica() }()
		master := mpi.NewComm(fabric.Transport(0))
		if err := master.SendBytes(1, mpi.TagServeReq, append([]byte{op}, body...)); err != nil {
			t.Fatal(err)
		}
		if err := master.SendBytes(1, mpi.TagServeReq, []byte{svStop}); err != nil {
			t.Fatal(err)
		}
		select {
		case err := <-exit:
			var reply byte
			if msg, rerr := master.RecvBytesTimeout(1, mpi.TagServeRes, time.Millisecond); rerr == nil && len(msg.Data) > 0 {
				reply = msg.Data[0]
			}
			return reply, err
		case <-time.After(10 * time.Second):
			t.Fatal("replica still serving after the stop")
			return 0, nil
		}
	}
	// fromReplica has a stand-in replica answer one real Score with the
	// given frame and returns Score's error.
	fromReplica := func(t *testing.T, op byte, body []byte) error {
		fabric := mpi.NewInprocFabric(2)
		defer fabric.Close()
		go func() {
			c := mpi.NewComm(fabric.Transport(1))
			if _, err := c.RecvBytes(0, mpi.TagServeReq); err == nil {
				_ = c.SendBytes(0, mpi.TagServeRes, append([]byte{op}, body...)) // best-effort: Score asserts
			}
		}()
		master, err := New(ck, WithReplicas(mpi.NewComm(fabric.Transport(0))), WithMaxBatch(8))
		if err != nil {
			t.Fatal(err)
		}
		defer master.Close()
		return master.Score(make([]float32, 6), make([]float32, 4))
	}

	walk := map[byte]func(t *testing.T){
		svScore: func(t *testing.T) {
			if reply, err := toReplica(t, svScore, row); err != nil || reply != svOK {
				t.Errorf("score request: reply %s, exit %v; want ok and a clean stop", svName(reply), err)
			}
		},
		svStop: func(t *testing.T) {
			if _, err := toReplica(t, svStop, nil); err != nil {
				t.Errorf("stop request: exit %v", err)
			}
		},
		svOK: func(t *testing.T) {
			if err := fromReplica(t, svOK, logits); err != nil {
				t.Errorf("ok reply: Score = %v", err)
			}
		},
		svErr: func(t *testing.T) {
			if err := fromReplica(t, svErr, []byte("replica says no")); err == nil || !strings.Contains(err.Error(), "replica 1: replica says no") {
				t.Errorf("err reply: Score = %v, want the replica's own text", err)
			}
		},
	}
	for op, name := range svNames {
		if name == "" {
			continue
		}
		t.Run(name, func(t *testing.T) {
			if walk[byte(op)] == nil {
				t.Fatalf("no walk for %s in this test: add one", name)
			}
			walk[byte(op)](t)
		})
	}
	t.Run("past the table", func(t *testing.T) {
		want := fmt.Sprintf("unexpected op(%d)", past)
		if _, err := toReplica(t, past, nil); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("replica exit = %v, want %q", err, want)
		}
		if err := fromReplica(t, past, nil); err == nil || !strings.Contains(err.Error(), "replica 1 sent "+want) {
			t.Errorf("Score = %v, want %q", err, want)
		}
	})
}

func TestBatchCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := tensor.RandMatrix(rng, 5, 7, 1)
	wire := appendBatch(nil, svScore, m)
	if wire[0] != svScore {
		t.Fatalf("opcode byte %d, want %d", wire[0], svScore)
	}
	got := tensor.NewMatrix(8, 7)
	if err := decodeBatch(wire[1:], got, 8, 7); err != nil {
		t.Fatal(err)
	}
	if got.Rows != 5 {
		t.Fatalf("decoded %d rows, want 5", got.Rows)
	}
	for i := 0; i < 5; i++ {
		gr, wr := got.Row(i), m.Row(i)
		for j := range wr {
			if gr[j] != wr[j] {
				t.Fatalf("round trip diverges at [%d][%d]: %v vs %v", i, j, gr[j], wr[j])
			}
		}
	}
}

// Hostile frames must be rejected by the header checks before anything
// is copied into the preallocated buffers.
func TestBatchCodecRejectsHostileFrames(t *testing.T) {
	m := tensor.NewMatrix(4, 3)
	good := appendBatch(nil, svScore, m)[1:]
	cases := []struct {
		name string
		body []byte
	}{
		{"truncated header", good[:5]},
		{"wrong columns", appendBatch(nil, svScore, tensor.NewMatrix(4, 2))[1:]},
		{"rows beyond capacity", appendBatch(nil, svScore, tensor.NewMatrix(5, 3))[1:]},
		{"payload shorter than header claims", good[:len(good)-4]},
		{"payload longer than header claims", append(append([]byte(nil), good...), 0, 0, 0, 0)},
	}
	for _, tc := range cases {
		dst := tensor.NewMatrix(4, 3)
		if err := decodeBatch(tc.body, dst, 4, 3); err == nil {
			t.Errorf("%s: decodeBatch accepted the frame", tc.name)
		}
	}
}

// Replica sharding end to end over the in-process fabric: rank 0 fans
// batches of mixed 1- and 8-row requests to two replica ranks, and every
// score is still bit-identical to a local forward pass — the wire hop
// and the offsets must not perturb the floats.
func TestReplicaShardingMatchesLocal(t *testing.T) {
	ck, net := testCheckpoint(t, 6, 10, 4)
	fabric := mpi.NewInprocFabric(3)
	defer fabric.Close()

	repErrs := make(chan error, 2)
	for rank := 1; rank < 3; rank++ {
		comm := mpi.NewComm(fabric.Transport(rank))
		rs, err := New(ck, WithReplicas(comm), WithMaxBatch(8))
		if err != nil {
			t.Fatal(err)
		}
		if err := rs.Score(make([]float32, 6), make([]float32, 4)); err == nil {
			t.Fatal("Score on a replica rank must fail")
		}
		go func() { repErrs <- rs.ServeReplica() }()
	}

	master, err := New(ck, WithReplicas(mpi.NewComm(fabric.Transport(0))), WithMaxBatch(8))
	if err != nil {
		t.Fatal(err)
	}
	if err := master.ServeReplica(); err == nil {
		t.Fatal("ServeReplica on the master rank must fail")
	}

	sizes := []int{1, 8, 1, 1, 8, 1, 1, 1, 8, 1, 1, 1}
	total := 0
	for _, n := range sizes {
		total += n
	}
	rng := rand.New(rand.NewSource(17))
	x := tensor.RandMatrix(rng, total, 6, 1)
	want := net.Forward(x).Logits
	done := make(chan error, len(sizes))
	lo := 0
	for _, n := range sizes {
		go func(lo, n int) {
			out := make([]float32, n*4)
			if err := master.b.score(x.Data[lo*6:(lo+n)*6], out, n); err != nil {
				done <- err
				return
			}
			for i := 0; i < n; i++ {
				for j, w := range want.Row(lo + i) {
					if got := out[i*4+j]; got != w {
						t.Errorf("row %d score[%d] = %v, want %v (bitwise)", lo+i, j, got, w)
					}
				}
			}
			done <- nil
		}(lo, n)
		lo += n
	}
	for range sizes {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}

	// Close drains the master and stops both replica loops cleanly.
	if err := master.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := <-repErrs; err != nil {
			t.Fatalf("ServeReplica: %v", err)
		}
	}
}

// wedge makes rank a replica that accepts one batch and never replies;
// the channel reports the accepted receive.
func wedge(fabric *mpi.InprocFabric, rank int) chan error {
	accepted := make(chan error, 1)
	go func() {
		_, err := mpi.NewComm(fabric.Transport(rank)).RecvBytes(0, mpi.TagServeReq)
		accepted <- err
	}()
	return accepted
}

// A replica that accepts a batch and never replies must fail that
// batch's requests with mpi.ErrTimeout, not hang them, and its worker
// leaves the pool — a late reply would be taken for the next batch's.
// Later batches go to the replicas that still answer; once none is left,
// admission fails fast with ErrWorkerLost.
func TestWedgedReplicaTimesOut(t *testing.T) {
	defer func(d time.Duration) { replyDeadline = d }(replyDeadline)
	replyDeadline = 100 * time.Millisecond
	ck, _ := testCheckpoint(t, 6, 10, 4)

	// scoreWithin runs one Score and fails the test if it is still
	// blocked after 5 s.
	scoreWithin := func(t *testing.T, master *Server) error {
		t.Helper()
		scored := make(chan error, 1)
		go func() { scored <- master.Score(make([]float32, 6), make([]float32, 4)) }()
		select {
		case err := <-scored:
			return err
		case <-time.After(5 * time.Second):
			t.Fatal("Score still blocked on a replica that never replies")
			return nil
		}
	}
	// wantLost checks that err wraps ErrWorkerLost and, for the batch that
	// met the wedged replica, mpi.ErrTimeout with the replica named.
	wantLost := func(t *testing.T, what string, err error, timedOut bool) {
		t.Helper()
		if !errors.Is(err, ErrWorkerLost) || statusFor(err) != 503 {
			t.Errorf("%s: Score = %v, want ErrWorkerLost (503)", what, err)
		}
		if timedOut && (!errors.Is(err, mpi.ErrTimeout) || !strings.Contains(err.Error(), "recv")) {
			t.Errorf("%s: Score = %v, want an error wrapping mpi.ErrTimeout from the replica recv", what, err)
		}
	}

	t.Run("one of one wedged", func(t *testing.T) {
		fabric := mpi.NewInprocFabric(2)
		defer fabric.Close()
		accepted := wedge(fabric, 1)
		master, err := New(ck, WithReplicas(mpi.NewComm(fabric.Transport(0))), WithMaxBatch(8))
		if err != nil {
			t.Fatal(err)
		}
		err = scoreWithin(t, master)
		wantLost(t, "first", err, true)
		if !strings.Contains(err.Error(), "replica 1 recv") {
			t.Errorf("first Score = %v, want replica 1 named", err)
		}
		wantLost(t, "second", scoreWithin(t, master), false)
		if err := <-accepted; err != nil {
			t.Errorf("replica never saw the batch: %v", err)
		}
		if err := master.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	})

	t.Run("one of two wedged", func(t *testing.T) {
		fabric := mpi.NewInprocFabric(3)
		defer fabric.Close()
		accepted := wedge(fabric, 1)
		live, err := New(ck, WithReplicas(mpi.NewComm(fabric.Transport(2))), WithMaxBatch(8))
		if err != nil {
			t.Fatal(err)
		}
		liveErr := make(chan error, 1)
		go func() { liveErr <- live.ServeReplica() }()
		master, err := New(ck, WithReplicas(mpi.NewComm(fabric.Transport(0))), WithMaxBatch(8))
		if err != nil {
			t.Fatal(err)
		}
		// Ready workers take batches in turn, so the wedged replica gets
		// one of the first few; every request after that must succeed.
		failed := 0
		for i := 0; i < 12; i++ {
			if err := scoreWithin(t, master); err != nil {
				wantLost(t, fmt.Sprintf("request %d", i), err, true)
				failed++
			}
		}
		if failed != 1 {
			t.Errorf("%d of 12 requests failed, want exactly the one the wedged replica held", failed)
		}
		if err := <-accepted; err != nil {
			t.Errorf("wedged replica never saw a batch: %v", err)
		}
		if err := master.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
		if err := <-liveErr; err != nil {
			t.Errorf("live replica: %v", err)
		}
	})

	t.Run("every replica wedged", func(t *testing.T) {
		fabric := mpi.NewInprocFabric(3)
		defer fabric.Close()
		wedge(fabric, 1)
		wedge(fabric, 2)
		master, err := New(ck, WithReplicas(mpi.NewComm(fabric.Transport(0))), WithMaxBatch(8))
		if err != nil {
			t.Fatal(err)
		}
		// Concurrent requests: some ride the two doomed batches, the rest
		// are failed by the last worker to leave or refused at admission.
		errs := make(chan error, 6)
		for i := 0; i < cap(errs); i++ {
			go func() { errs <- master.Score(make([]float32, 6), make([]float32, 4)) }()
		}
		deadline := time.After(5 * time.Second)
		for i := 0; i < cap(errs); i++ {
			select {
			case err := <-errs:
				wantLost(t, fmt.Sprintf("request %d", i), err, false)
			case <-deadline:
				t.Fatal("requests still blocked with every replica wedged")
			}
		}
		wantLost(t, "after the pool emptied", scoreWithin(t, master), false)
		if err := master.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
}

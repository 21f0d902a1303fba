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
// batches to two replica ranks, and every score is still bit-identical
// to a local forward pass — the wire hop must not perturb the floats.
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

	master, err := New(ck,
		WithReplicas(mpi.NewComm(fabric.Transport(0))),
		WithMaxBatch(8), WithBatchWindow(300*time.Microsecond))
	if err != nil {
		t.Fatal(err)
	}
	if err := master.ServeReplica(); err == nil {
		t.Fatal("ServeReplica on the master rank must fail")
	}

	rng := rand.New(rand.NewSource(17))
	x := tensor.RandMatrix(rng, 12, 6, 1)
	want := net.Forward(x).Logits
	done := make(chan error, x.Rows)
	for i := 0; i < x.Rows; i++ {
		go func(i int) {
			out := make([]float32, 4)
			if err := master.Score(x.Row(i), out); err != nil {
				done <- err
				return
			}
			for j, w := range want.Row(i) {
				if out[j] != w {
					t.Errorf("row %d score[%d] = %v, want %v (bitwise)", i, j, out[j], w)
				}
			}
			done <- nil
		}(i)
	}
	for i := 0; i < x.Rows; i++ {
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

// A replica that accepts a batch and never replies must fail that
// batch's requests with mpi.ErrTimeout, not hang them — and every later
// batch too, since a late reply would be taken for the next batch's.
func TestWedgedReplicaTimesOut(t *testing.T) {
	defer func(d time.Duration) { replyDeadline = d }(replyDeadline)
	replyDeadline = 100 * time.Millisecond

	ck, _ := testCheckpoint(t, 6, 10, 4)
	fabric := mpi.NewInprocFabric(2)
	defer fabric.Close()
	wedged := mpi.NewComm(fabric.Transport(1))
	accepted := make(chan error, 1)
	go func() {
		_, err := wedged.RecvBytes(0, mpi.TagServeReq)
		accepted <- err
	}()

	master, err := New(ck, WithReplicas(mpi.NewComm(fabric.Transport(0))), WithMaxBatch(8))
	if err != nil {
		t.Fatal(err)
	}
	for _, which := range []string{"first", "second"} {
		scored := make(chan error, 1)
		go func() { scored <- master.Score(make([]float32, 6), make([]float32, 4)) }()
		select {
		case err := <-scored:
			if !errors.Is(err, mpi.ErrTimeout) || !strings.Contains(err.Error(), "replica 1 recv") {
				t.Errorf("%s Score = %v, want an error wrapping mpi.ErrTimeout that names replica 1", which, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s Score still blocked on a replica that never replies", which)
		}
	}
	if err := <-accepted; err != nil {
		t.Errorf("replica never saw the batch: %v", err)
	}
	if err := master.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
}

package serve

import (
	"errors"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/mpi"
	"repro/internal/tensor"
)

// TestServeTagPlan pins the serving plane's reserved tags and opcodes:
// the tag values are part of the fabric-sharing contract with the
// telemetry plane (9600/9601) and the collective blocks at 1<<24, and
// the opcode values must stay distinct across the request/reply const
// blocks so a misrouted frame is diagnosable.
func TestServeTagPlan(t *testing.T) {
	if tagServeReq != 9700 || tagServeRes != 9701 {
		t.Fatalf("serve tags (%d, %d), want (9700, 9701)", tagServeReq, tagServeRes)
	}
	if tagServeReq <= mpi.TagTelemetry || tagServeRes >= 1<<24 {
		t.Fatal("serve tags outside the reserved window (telemetry, collective-base)")
	}
	ops := map[byte]string{svScore: "score", svStop: "stop", svOK: "ok", svErr: "err"}
	if len(ops) != 4 {
		t.Fatal("serve opcodes collide")
	}
	for op, name := range ops {
		if svName(op) != name {
			t.Errorf("svName(%d) = %q, want %q", op, svName(op), name)
		}
	}
	if !strings.HasPrefix(svName(99), "op(") {
		t.Errorf("unknown opcode renders %q", svName(99))
	}
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
		_, err := wedged.RecvBytes(0, tagServeReq)
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

package serve

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/tensor"
)

// testCheckpoint builds a checkpoint around a Glorot-initialized network
// with the given topology, returning both so tests can compare served
// scores against direct forward passes.
func testCheckpoint(t testing.TB, sizes ...int) (*core.Checkpoint, *nn.Network) {
	t.Helper()
	net := nn.New(nn.NewTopology(sizes...))
	net.InitGlorot(rand.New(rand.NewSource(41)))
	ck := &core.Checkpoint{
		Sizes:     append([]int(nil), sizes...),
		Params:    net.Params.Clone(),
		Criterion: core.CrossEntropy,
	}
	return ck, net
}

func TestNewRejectsBadConfigs(t *testing.T) {
	ck, _ := testCheckpoint(t, 4, 6, 3)
	bad := &core.Checkpoint{Sizes: []int{4, 6, 3}, Params: make(tensor.Vector, 5)}
	fabric := mpi.NewInprocFabric(2)
	defer fabric.Close()
	comm := mpi.NewComm(fabric.Transport(0))
	solo := mpi.NewComm(mpi.NewInprocFabric(1).Transport(0))
	cases := []struct {
		name string
		ck   *core.Checkpoint
		opts []Option
	}{
		{"nil checkpoint", nil, nil},
		{"invalid checkpoint", bad, nil},
		{"workers with replicas", ck, []Option{WithReplicas(comm), WithWorkers(3)}},
		{"replica group too small", ck, []Option{WithReplicas(solo)}},
		{"non-positive workers", ck, []Option{WithWorkers(-1)}},
	}
	for _, tc := range cases {
		if _, err := New(tc.ck, tc.opts...); err == nil {
			t.Errorf("%s: New accepted the config", tc.name)
		}
	}
}

// The serving contract: a scored row agrees bit-for-bit with a direct
// forward pass of the reconstructed network — batching, buffer reuse and
// the queue hop must not perturb a single bit.
func TestScoreMatchesForward(t *testing.T) {
	ck, net := testCheckpoint(t, 6, 10, 4)
	srv, err := New(ck, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if srv.InputDim() != 6 || srv.OutputDim() != 4 {
		t.Fatalf("model dims %d→%d, want 6→4", srv.InputDim(), srv.OutputDim())
	}
	rng := rand.New(rand.NewSource(5))
	x := tensor.RandMatrix(rng, 8, 6, 1)
	want := net.Forward(x).Logits
	out := make([]float32, 4)
	for i := 0; i < x.Rows; i++ {
		if err := srv.Score(x.Row(i), out); err != nil {
			t.Fatalf("Score row %d: %v", i, err)
		}
		for j, w := range want.Row(i) {
			if out[j] != w {
				t.Fatalf("row %d score[%d] = %v, want %v (bitwise)", i, j, out[j], w)
			}
		}
	}
}

// WithSoftmax must return the same probabilities SoftmaxInto produces
// over the raw logits.
func TestScoreSoftmax(t *testing.T) {
	ck, net := testCheckpoint(t, 5, 8, 3)
	srv, err := New(ck, WithSoftmax(), WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	rng := rand.New(rand.NewSource(6))
	x := tensor.RandMatrix(rng, 1, 5, 1)
	want := net.Forward(x).Logits
	nn.SoftmaxInto(want, want)
	out := make([]float32, 3)
	if err := srv.Score(x.Row(0), out); err != nil {
		t.Fatal(err)
	}
	for j, w := range want.Row(0) {
		if out[j] != w {
			t.Fatalf("probability[%d] = %v, want %v", j, out[j], w)
		}
	}
}

func TestScoreValidatesDims(t *testing.T) {
	ck, _ := testCheckpoint(t, 4, 6, 3)
	srv, err := New(ck, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if err := srv.Score(make([]float32, 3), make([]float32, 3)); err == nil {
		t.Error("short feature row accepted")
	}
	if err := srv.Score(make([]float32, 4), make([]float32, 2)); err == nil {
		t.Error("short output buffer accepted")
	}
}

// Concurrent clients hammering one server (the -race half of the batcher
// contract): every response must still be bit-identical to the direct
// forward pass of its own row, and the metrics must balance.
func TestConcurrentClientsScoreCorrectly(t *testing.T) {
	ck, net := testCheckpoint(t, 6, 12, 5)
	ob := &obs.Observer{Metrics: obs.NewRegistry()}
	srv, err := New(ck,
		WithWorkers(2), WithMaxBatch(8), WithQueueDepth(64), WithObserver(ob))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const rows = 24
	rng := rand.New(rand.NewSource(12))
	x := tensor.RandMatrix(rng, rows, 6, 1)
	want := net.Forward(x).Logits

	const clients, perClient = 8, 30
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		go func(c int) {
			out := make([]float32, 5)
			crng := rand.New(rand.NewSource(int64(100 + c)))
			for i := 0; i < perClient; i++ {
				row := crng.Intn(rows)
				if err := srv.Score(x.Row(row), out); err != nil {
					errs <- err
					return
				}
				for j, w := range want.Row(row) {
					if out[j] != w {
						errs <- errors.New("score mismatch under concurrency")
						return
					}
				}
			}
			errs <- nil
		}(c)
	}
	for c := 0; c < clients; c++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	reg := ob.Registry()
	if got := reg.Counter("serve.requests").Value(); got != clients*perClient {
		t.Errorf("serve.requests = %d, want %d", got, clients*perClient)
	}
	if reg.Histogram("serve.latency_us").Count() != clients*perClient {
		t.Error("latency histogram misses requests")
	}
	if reg.Counter("serve.batches").Value() == 0 {
		t.Error("no batches recorded")
	}
}

package core

import (
	"math/rand"
	"testing"

	"repro/internal/hf"
	"repro/internal/mpi"
)

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func newTestFabric(n int) *mpi.InprocFabric { return mpi.NewInprocFabric(n) }

func newTestComm(f *mpi.InprocFabric, rank int) *mpi.Comm {
	return mpi.NewComm(f.Transport(rank))
}

// testTransports builds one endpoint per rank of a fresh fabric; an
// inproc fabric is closed with the test.
func testTransports(t *testing.T, fabric FabricKind, ranks int) []mpi.Transport {
	t.Helper()
	if fabric == FabricTCP {
		ts, err := mpi.ConnectTCPLocal(ranks)
		if err != nil {
			t.Fatal(err)
		}
		return ts
	}
	f := mpi.NewInprocFabric(ranks)
	t.Cleanup(func() { f.Close() })
	ts := make([]mpi.Transport, ranks)
	for r := range ts {
		ts[r] = f.Transport(r)
	}
	return ts
}

// runOut is how an attach-mode Session.Run ended.
type runOut struct {
	res *MasterResult
	err error
}

// startAttached runs one rank's attach-mode session over t in its own
// goroutine, closes the endpoint afterwards and delivers the outcome.
func startAttached(t mpi.Transport, p Problem, cfg hf.Config, opts ...Option) <-chan runOut {
	done := make(chan runOut, 1)
	go func() {
		comm := mpi.NewComm(t)
		defer comm.Close()
		sess, err := NewSession(p, append([]Option{WithComm(comm)}, opts...)...)
		if err != nil {
			done <- runOut{nil, err}
			return
		}
		res, err := sess.Run(cfg)
		done <- runOut{res, err}
	}()
	return done
}

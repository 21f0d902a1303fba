// Package clean is the negative lint fixture: it exercises the code
// shapes each analyzer inspects — collectives, float comparisons, lock
// structs, hot-path annotations, observer access — in their sanctioned
// forms, and must produce zero findings.
package clean

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/mpi"
	"repro/internal/obs"
)

type server struct {
	mu    sync.Mutex
	calls int
}

func (s *server) bump() {
	s.mu.Lock()
	s.calls++
	s.mu.Unlock()
}

func reduce(c *mpi.Comm, buf []float32) error {
	if err := c.Reduce(0, mpi.OpSum, buf); err != nil {
		return err
	}
	return c.Barrier()
}

func converged(prev, curr float64, tol float64) bool {
	return math.Abs(curr-prev) < tol
}

//lint:hotpath
func dot(a, b []float32) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("dot: len %d != %d", len(a), len(b)))
	}
	var s float64
	for i := range a {
		s += float64(a[i]) * float64(b[i])
	}
	return s
}

func observe(ob *obs.Observer, c *mpi.Comm, buf []float32) error {
	sp := ob.Span(0, "reduce")
	err := reduce(c, buf)
	sp.End()
	ob.Registry().Counter("reductions").Inc()
	return err
}

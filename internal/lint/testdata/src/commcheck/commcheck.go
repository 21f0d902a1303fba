// Package commcheck is a lint fixture seeding collectives under
// rank-dependent branches, directly and through a same-package call.
package commcheck

import "repro/internal/mpi"

// sync runs two collectives; calling it under a rank branch is as
// divergent as calling them there directly.
func sync(c *mpi.Comm, buf []float32) error {
	if err := c.Bcast(0, buf); err != nil {
		return err
	}
	return c.Reduce(0, mpi.OpSum, buf)
}

// rankCond seeds collectives under rank-dependent conditionals.
func rankCond(c *mpi.Comm, buf []float32) error {
	if c.Rank() == 0 {
		return c.Reduce(0, mpi.OpSum, buf) // want rank-divergent collective
	}
	rank := c.Rank()
	if rank > 1 {
		if err := c.Barrier(); err != nil { // want rank-divergent collective (derived var)
			return err
		}
	}
	if rank != 0 {
		return sync(c, buf) // want rank-divergent call (2 collectives)
	}
	return c.Barrier() // outside the branch: not flagged
}

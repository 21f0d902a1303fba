package mpi

import "testing"

func TestIsendBufferReuse(t *testing.T) {
	runRanks(t, 2, func(c *Comm) {
		if c.Rank() == 0 {
			buf := []byte{42}
			req := c.Isend(1, 1, buf)
			buf[0] = 99 // mutate immediately: Isend must have copied
			if err := req.Wait(); err != nil {
				t.Error(err)
			}
		} else {
			msg, err := c.RecvBytes(0, 1)
			if err != nil || msg.Data[0] != 42 {
				t.Errorf("got %v err %v: Isend did not copy the buffer", msg.Data, err)
			}
		}
	})
}

package mpi

// Nonblocking send in the style of MPI_Isend / MPI_Wait. The paper's
// application is bulk-synchronous, but overlap of computation and
// communication is one of the §V-C levers ("efficiently overlapping
// computation and communication helps"); the async-SGD worker pushes a
// gradient while it computes the next one.

// Request is a handle to a pending nonblocking operation.
type Request struct {
	done chan struct{}
	err  error
}

// Wait blocks until the operation completes and returns its error.
func (r *Request) Wait() error {
	<-r.done
	return r.err
}

// Isend starts a nonblocking send. The data is copied before Isend
// returns, so the caller may immediately reuse the buffer.
func (c *Comm) Isend(dst, tag int, data []byte) *Request {
	cp := make([]byte, len(data))
	copy(cp, data)
	r := &Request{done: make(chan struct{})}
	go func() {
		r.err = c.SendBytes(dst, tag, cp)
		close(r.done)
	}()
	return r
}

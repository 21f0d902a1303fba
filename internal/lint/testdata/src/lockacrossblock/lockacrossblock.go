// Package lockacrossblock is the seeded-bad fixture for the
// lockacrossblock analyzer: mutexes held across blocking collectives,
// channel operations and network calls.
package lockacrossblock

import (
	"net"
	"sync"

	"repro/internal/mpi"
)

type master struct {
	mu    sync.Mutex
	rw    sync.RWMutex
	state int
}

// sendUnderLock blocks on a channel send while holding the state lock.
func (m *master) sendUnderLock(ch chan int) {
	m.mu.Lock()
	ch <- m.state
	m.mu.Unlock()
}

// recvUnderLock blocks on a receive while holding a read lock.
func (m *master) recvUnderLock(ch chan int) {
	m.rw.RLock()
	m.state = <-ch
	m.rw.RUnlock()
}

// collectiveUnderDeferredLock is the eviction deadlock shape: the
// deferred unlock keeps the mutex held across the whole collective.
func (m *master) collectiveUnderDeferredLock(c *mpi.Comm, buf []float32) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return c.Reduce(0, mpi.OpSum, buf)
}

// selectUnderLock parks on a no-default select with the lock held.
func (m *master) selectUnderLock(a, b chan int) {
	m.mu.Lock()
	select {
	case v := <-a:
		m.state = v
	case v := <-b:
		m.state = v
	}
	m.mu.Unlock()
}

// writeUnderLock holds the lock across a network write.
func (m *master) writeUnderLock(c net.Conn, frame []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	_, err := c.Write(frame)
	return err
}

// --- sanctioned forms: none of these may fire ---

// unlockFirst releases before blocking.
func (m *master) unlockFirst(ch chan int) {
	m.mu.Lock()
	v := m.state
	m.mu.Unlock()
	ch <- v
}

// tryNotify uses a default arm: the select cannot block.
func (m *master) tryNotify(ch chan int) {
	m.mu.Lock()
	select {
	case ch <- m.state:
	default:
	}
	m.mu.Unlock()
}

// condWait is exempt by design: Cond.Wait releases the lock while
// blocked.
func condWait(c *sync.Cond, ready *bool) {
	c.L.Lock()
	for !*ready {
		c.Wait()
	}
	c.L.Unlock()
}

// deferredWork only captures the send in a literal that runs after the
// critical section as far as lexical analysis can tell.
func (m *master) deferredWork(ch chan int) func() {
	m.mu.Lock()
	f := func() { ch <- 1 }
	m.mu.Unlock()
	return f
}

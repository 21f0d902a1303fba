package mpi

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// ErrPeerDown is returned by Recv when the awaited peer's connection has
// failed and no matching message is queued.
var ErrPeerDown = errors.New("mpi: peer down")

// mailbox is an unbounded, tag-matched message queue shared by both
// transports. Recv performs MPI-style matching on an exact (src, tag):
// the oldest queued message from src with that tag is delivered, so
// out-of-order tags do not deadlock. There are no wildcards.
//
// A peer is marked down when its connection fails (TCP) or its endpoint
// closes (in-proc); a Recv that can only be satisfied by a down peer
// fails with ErrPeerDown instead of blocking forever. Messages already
// queued from a down peer are still deliverable.
type mailbox struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queue  []Message
	closed bool
	down   map[int]bool
}

func newMailbox() *mailbox {
	m := &mailbox{down: make(map[int]bool)}
	m.cond = sync.NewCond(&m.mu)
	return m
}

func (m *mailbox) put(msg Message) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	m.queue = append(m.queue, msg)
	m.cond.Broadcast()
	return nil
}

// markDown records that src's connection failed and wakes blocked
// receivers so they can observe the failure.
func (m *mailbox) markDown(src int) {
	m.mu.Lock()
	m.down[src] = true
	m.cond.Broadcast()
	m.mu.Unlock()
}

// matchLocked delivers the oldest queued message from src with tag.
// Caller holds m.mu.
func (m *mailbox) matchLocked(src, tag int) (Message, bool) {
	for i, msg := range m.queue {
		if msg.Src == src && msg.Tag == tag {
			m.queue = append(m.queue[:i], m.queue[i+1:]...)
			return msg, true
		}
	}
	return Message{}, false
}

// failureLocked reports the terminal condition, if any, for a receive
// from src that found no queued match. Caller holds m.mu.
func (m *mailbox) failureLocked(src int) error {
	if m.closed {
		return ErrClosed
	}
	if m.down[src] {
		return fmt.Errorf("%w: rank %d", ErrPeerDown, src)
	}
	return nil
}

// getTimeout blocks until a message from src with tag is queued and
// returns it. It fails with ErrClosed once the mailbox closes, with
// ErrPeerDown once src is down and nothing from it matches, and with an
// error wrapping ErrTimeout if d elapses first. d <= 0 arms no timer and
// waits without a bound; the flag is then nil, so an unbounded receive
// allocates nothing. The expiry timer broadcasts on the condition so
// blocked waiters re-check promptly; the flag is written and read under
// m.mu, keeping the race detector quiet.
func (m *mailbox) getTimeout(src, tag int, d time.Duration) (Message, error) {
	var timedOut *bool
	if d > 0 {
		fired := new(bool)
		timer := time.AfterFunc(d, func() {
			m.mu.Lock()
			*fired = true
			m.cond.Broadcast()
			m.mu.Unlock()
		})
		defer timer.Stop()
		timedOut = fired
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for {
		if msg, ok := m.matchLocked(src, tag); ok {
			return msg, nil
		}
		if err := m.failureLocked(src); err != nil {
			return Message{}, err
		}
		if timedOut != nil && *timedOut {
			return Message{}, fmt.Errorf("%w: no message from rank %d tag %d within %v", ErrTimeout, src, tag, d)
		}
		m.cond.Wait()
	}
}

// isClosed reports whether close has run.
func (m *mailbox) isClosed() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.closed
}

func (m *mailbox) close() {
	m.mu.Lock()
	m.closed = true
	m.cond.Broadcast()
	m.mu.Unlock()
}

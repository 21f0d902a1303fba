package mpi

import (
	"fmt"
	"time"
)

// InprocFabric connects n ranks living as goroutines in one process. It is
// the deterministic transport used by tests, examples and the
// single-binary distributed trainer.
type InprocFabric struct {
	boxes []*mailbox
}

// NewInprocFabric creates a fabric with n ranks.
func NewInprocFabric(n int) *InprocFabric {
	if n <= 0 {
		panic(fmt.Sprintf("mpi: fabric size %d", n))
	}
	f := &InprocFabric{boxes: make([]*mailbox, n)}
	for i := range f.boxes {
		f.boxes[i] = newMailbox()
	}
	return f
}

// Transport returns the endpoint for the given rank.
func (f *InprocFabric) Transport(rank int) Transport {
	mustRank("inproc transport", rank, len(f.boxes))
	return &inprocTransport{fabric: f, rank: rank}
}

// Close shuts down all endpoints.
func (f *InprocFabric) Close() {
	for _, b := range f.boxes {
		b.close()
	}
}

type inprocTransport struct {
	fabric *InprocFabric
	rank   int
}

func (t *inprocTransport) Rank() int { return t.rank }
func (t *inprocTransport) Size() int { return len(t.fabric.boxes) }

func (t *inprocTransport) Send(dst, tag int, data []byte) error {
	if err := checkRank("send destination", dst, t.Size()); err != nil {
		return err
	}
	// Copy so the sender can immediately reuse its buffer, matching the
	// blocking-send semantics the trainer relies on.
	cp := make([]byte, len(data))
	copy(cp, data)
	return t.fabric.boxes[dst].put(Message{Src: t.rank, Tag: tag, Data: cp})
}

func (t *inprocTransport) Recv(src, tag int) (Message, error) {
	return t.RecvTimeout(src, tag, 0)
}

// RecvTimeout implements DeadlineRecver.
func (t *inprocTransport) RecvTimeout(src, tag int, d time.Duration) (Message, error) {
	if err := checkRank("recv source", src, t.Size()); err != nil {
		return Message{}, err
	}
	return t.fabric.boxes[t.rank].getTimeout(src, tag, d)
}

// Closed implements ClosedReporter.
func (t *inprocTransport) Closed() bool { return t.fabric.boxes[t.rank].isClosed() }

func (t *inprocTransport) Close() error {
	t.fabric.boxes[t.rank].close()
	// Mirror TCP death semantics: peers blocked on a Recv from this rank
	// observe ErrPeerDown instead of hanging until their own deadline.
	// Messages this rank already delivered remain consumable.
	for peer, box := range t.fabric.boxes {
		if peer != t.rank {
			box.markDown(t.rank)
		}
	}
	return nil
}

package mpi

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Wire format: every frame is [tag int32][length uint32][payload]. The
// sender's rank is established once per connection by a handshake frame
// carrying the dialer's rank, so per-message overhead stays at 8 bytes.

// maxFrameSize bounds a single message; larger frames indicate corruption
// and fail the connection rather than attempting a huge allocation.
const maxFrameSize = 1 << 30

// tcpTransport is a full-mesh TCP endpoint. Rank i listens on addrs[i];
// during setup it accepts connections from all lower ranks and dials all
// higher ranks. Incoming frames from all peers are funneled into one
// tag-matched mailbox by per-connection reader goroutines.
type tcpTransport struct {
	rank  int
	size  int
	box   *mailbox
	conns []*tcpConn // indexed by peer rank; conns[rank] == nil
	ln    net.Listener

	// writeDeadlineNs bounds each frame write so a wedged peer (socket
	// buffers full, reader stopped) surfaces as a send error instead of
	// blocking Send forever. Recv paths have always had failure
	// detection via markDown; this is the symmetric send-side bound.
	writeDeadlineNs atomic.Int64

	closeOnce sync.Once
	closeErr  error
}

// SetWriteDeadline implements WriteDeadliner: each subsequent frame
// write must complete within d of starting. d <= 0 restores
// DefaultTCPWriteDeadline.
func (t *tcpTransport) SetWriteDeadline(d time.Duration) {
	if d <= 0 {
		d = DefaultTCPWriteDeadline
	}
	t.writeDeadlineNs.Store(int64(d))
}

type tcpConn struct {
	mu sync.Mutex // serializes writers
	c  net.Conn
}

// ConnectTCPLocal creates a size-rank fabric on ephemeral localhost ports
// and returns all endpoints, one per rank, for use inside this process.
func ConnectTCPLocal(size int) ([]Transport, error) {
	lns := make([]net.Listener, size)
	addrs := make([]string, size)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	transports := make([]Transport, size)
	errs := make([]error, size)
	var wg sync.WaitGroup
	for i := 0; i < size; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			transports[i], errs[i] = connectTCPWithListener(i, addrs, lns[i])
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return transports, nil
}

func connectTCPWithListener(rank int, addrs []string, ln net.Listener) (Transport, error) {
	size := len(addrs)
	t := &tcpTransport{
		rank:  rank,
		size:  size,
		box:   newMailbox(),
		conns: make([]*tcpConn, size),
		ln:    ln,
	}
	t.writeDeadlineNs.Store(int64(DefaultTCPWriteDeadline))

	type accepted struct {
		peer int
		conn net.Conn
		err  error
	}
	acceptCh := make(chan accepted, rank)
	// Accept one connection from each lower rank; the handshake frame
	// identifies the peer.
	go func() {
		for i := 0; i < rank; i++ {
			conn, err := ln.Accept()
			if err != nil {
				acceptCh <- accepted{err: err}
				return
			}
			var hdr [4]byte
			if _, err := io.ReadFull(conn, hdr[:]); err != nil {
				acceptCh <- accepted{err: fmt.Errorf("mpi: handshake read: %w", err)}
				return
			}
			peer := int(int32(binary.LittleEndian.Uint32(hdr[:])))
			if peer < 0 || peer >= size || peer == rank {
				acceptCh <- accepted{err: fmt.Errorf("mpi: handshake from invalid rank %d", peer)}
				return
			}
			acceptCh <- accepted{peer: peer, conn: conn}
		}
	}()

	// Dial every higher rank, announcing our rank.
	for peer := rank + 1; peer < size; peer++ {
		conn, err := net.Dial("tcp", addrs[peer])
		if err != nil {
			_ = t.Close() // best-effort teardown; the dial error is primary
			return nil, fmt.Errorf("mpi: rank %d dial rank %d: %w", rank, peer, err)
		}
		var hdr [4]byte
		binary.LittleEndian.PutUint32(hdr[:], uint32(int32(rank)))
		if _, err := conn.Write(hdr[:]); err != nil {
			_ = t.Close()
			return nil, fmt.Errorf("mpi: rank %d handshake to %d: %w", rank, peer, err)
		}
		t.conns[peer] = &tcpConn{c: conn}
	}
	for i := 0; i < rank; i++ {
		a := <-acceptCh
		if a.err != nil {
			_ = t.Close()
			return nil, a.err
		}
		if t.conns[a.peer] != nil {
			_ = t.Close()
			return nil, fmt.Errorf("mpi: duplicate connection from rank %d", a.peer)
		}
		t.conns[a.peer] = &tcpConn{c: a.conn}
	}

	for peer, tc := range t.conns {
		if tc != nil {
			go t.readLoop(peer, tc.c)
		}
	}
	return t, nil
}

// readLoop parses frames from one peer into the mailbox until the
// connection fails or the transport closes.
func (t *tcpTransport) readLoop(peer int, conn net.Conn) {
	for {
		tag, data, err := readFrame(conn)
		if err != nil {
			// Peer death, a malformed frame, or local close: mark this
			// peer down so a Recv waiting on it observes the failure
			// instead of hanging. Queued messages from the peer remain
			// deliverable.
			t.box.markDown(peer)
			return
		}
		if t.box.put(Message{Src: peer, Tag: tag, Data: data}) != nil {
			return
		}
	}
}

func (t *tcpTransport) Rank() int { return t.rank }
func (t *tcpTransport) Size() int { return t.size }

func (t *tcpTransport) Send(dst, tag int, data []byte) error {
	if err := checkRank("send destination", dst, t.size); err != nil {
		return err
	}
	if dst == t.rank {
		cp := make([]byte, len(data))
		copy(cp, data)
		return t.box.put(Message{Src: t.rank, Tag: tag, Data: cp})
	}
	tc := t.conns[dst]
	if tc == nil {
		return ErrClosed
	}
	frame := appendFrame(make([]byte, 0, frameHeaderSize+len(data)), tag, data)
	tc.mu.Lock()
	if d := time.Duration(t.writeDeadlineNs.Load()); d > 0 {
		// Arm per write: the deadline bounds this frame, not the
		// connection's lifetime.
		_ = tc.c.SetWriteDeadline(time.Now().Add(d))
	}
	//lint:ignore lockacrossblock the write is deadline-bounded when shaping is on, and tc.mu serializes frame writes only — no collective or eviction path takes it
	_, err := tc.c.Write(frame)
	tc.mu.Unlock()
	if err != nil {
		// The frame may be partially written, so the stream to dst is
		// poisoned: close the connection and mark the peer down so
		// later ops fail fast instead of corrupting framing.
		_ = tc.c.Close()
		t.box.markDown(dst)
		return fmt.Errorf("mpi: send to rank %d: %w", dst, err)
	}
	return nil
}

func (t *tcpTransport) Recv(src, tag int) (Message, error) {
	return t.RecvTimeout(src, tag, 0)
}

// RecvTimeout implements DeadlineRecver.
func (t *tcpTransport) RecvTimeout(src, tag int, d time.Duration) (Message, error) {
	if err := checkRank("recv source", src, t.size); err != nil {
		return Message{}, err
	}
	return t.box.getTimeout(src, tag, d)
}

// Closed implements ClosedReporter.
func (t *tcpTransport) Closed() bool { return t.box.isClosed() }

func (t *tcpTransport) Close() error {
	t.closeOnce.Do(func() {
		t.box.close()
		if t.ln != nil {
			t.closeErr = t.ln.Close()
		}
		for _, tc := range t.conns {
			if tc != nil {
				tc.c.Close()
			}
		}
	})
	return t.closeErr
}

package mpi

import (
	"sync"
	"testing"
	"time"
)

// runTCPRanks runs fn once per rank over a localhost TCP fabric.
func runTCPRanks(t *testing.T, n int, fn func(c *Comm)) {
	t.Helper()
	transports, err := ConnectTCPLocal(n)
	if err != nil {
		t.Fatalf("ConnectTCPLocal: %v", err)
	}
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			c := NewComm(transports[r])
			defer c.Close()
			fn(c)
		}(r)
	}
	wg.Wait()
}

func TestTCPSendRecv(t *testing.T) {
	runTCPRanks(t, 3, func(c *Comm) {
		switch c.Rank() {
		case 0:
			if err := c.SendF32(2, 9, []float32{1.5, -2.5}); err != nil {
				t.Error(err)
			}
		case 2:
			buf := make([]float32, 2)
			src, err := c.RecvF32(0, 9, buf)
			if err != nil || src != 0 || buf[0] != 1.5 || buf[1] != -2.5 {
				t.Errorf("src=%d buf=%v err=%v", src, buf, err)
			}
		}
	})
}

func TestTCPSendToSelf(t *testing.T) {
	runTCPRanks(t, 2, func(c *Comm) {
		if c.Rank() == 0 {
			if err := c.SendBytes(0, 1, []byte{42}); err != nil {
				t.Error(err)
				return
			}
			m, err := c.RecvBytes(0, 1)
			if err != nil || m.Data[0] != 42 {
				t.Errorf("self message: %v %v", m, err)
			}
		}
	})
}

func TestTCPCollectivesMatchInproc(t *testing.T) {
	const n = 4
	const dim = 33
	inprocResult := make([]float32, dim)
	runRanks(t, n, func(c *Comm) {
		buf := make([]float32, dim)
		for i := range buf {
			buf[i] = float32(c.Rank()*dim + i)
		}
		if err := c.Reduce(0, OpSum, buf); err != nil {
			t.Error(err)
			return
		}
		if err := c.Bcast(0, buf); err != nil {
			t.Error(err)
			return
		}
		if c.Rank() == n-1 {
			copy(inprocResult, buf)
		}
	})
	tcpResult := make([]float32, dim)
	runTCPRanks(t, n, func(c *Comm) {
		buf := make([]float32, dim)
		for i := range buf {
			buf[i] = float32(c.Rank()*dim + i)
		}
		if err := c.Reduce(0, OpSum, buf); err != nil {
			t.Error(err)
			return
		}
		if err := c.Bcast(0, buf); err != nil {
			t.Error(err)
			return
		}
		if c.Rank() == n-1 {
			copy(tcpResult, buf)
		}
	})
	for i := range inprocResult {
		if inprocResult[i] != tcpResult[i] {
			t.Fatalf("elem %d: inproc %v != tcp %v", i, inprocResult[i], tcpResult[i])
		}
	}
}

func TestTCPBcastLargePayload(t *testing.T) {
	const n = 3
	const dim = 1 << 16 // 256 KiB payload exercises framing across packets
	runTCPRanks(t, n, func(c *Comm) {
		buf := make([]float32, dim)
		if c.Rank() == 0 {
			for i := range buf {
				buf[i] = float32(i % 251)
			}
		}
		if err := c.Bcast(0, buf); err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < dim; i += 997 {
			if buf[i] != float32(i%251) {
				t.Errorf("rank %d elem %d = %v", c.Rank(), i, buf[i])
				return
			}
		}
	})
}

// Failure injection: when a peer dies, a blocked Recv must observe an
// error instead of hanging — the worker-death detection path.
func TestTCPPeerDeathUnblocksRecv(t *testing.T) {
	transports, err := ConnectTCPLocal(2)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := transports[0].Recv(1, 5)
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	transports[1].Close()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("Recv returned nil error after peer death")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Recv still blocked 5s after peer death")
	}
	transports[0].Close()
}

func TestTCPSendAfterCloseErrors(t *testing.T) {
	transports, err := ConnectTCPLocal(2)
	if err != nil {
		t.Fatal(err)
	}
	transports[0].Close()
	if err := transports[0].Send(1, 0, []byte{1}); err == nil {
		t.Fatal("Send after close must error")
	}
	transports[1].Close()
}

func TestTCPLoadDataPattern(t *testing.T) {
	// The master's load_data pattern: p2p sends of different sizes to each
	// worker, then a weight Bcast. Exercises mixed traffic on one fabric.
	const n = 4
	runTCPRanks(t, n, func(c *Comm) {
		if c.Rank() == 0 {
			for w := 1; w < n; w++ {
				payload := make([]float32, w*10)
				for i := range payload {
					payload[i] = float32(w)
				}
				if err := c.SendF32(w, 100, payload); err != nil {
					t.Error(err)
					return
				}
			}
		} else {
			buf := make([]float32, c.Rank()*10)
			if _, err := c.RecvF32(0, 100, buf); err != nil {
				t.Error(err)
				return
			}
			if buf[0] != float32(c.Rank()) {
				t.Errorf("rank %d payload %v", c.Rank(), buf[0])
			}
		}
		weights := make([]float32, 50)
		if c.Rank() == 0 {
			weights[49] = 7
		}
		if err := c.Bcast(0, weights); err != nil {
			t.Error(err)
			return
		}
		if weights[49] != 7 {
			t.Errorf("rank %d weights not synced", c.Rank())
		}
	})
}

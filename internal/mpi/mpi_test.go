package mpi

import (
	"math"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

// runRanks runs fn once per rank over a fresh in-process fabric and waits
// for all ranks to finish.
func runRanks(t *testing.T, n int, fn func(c *Comm)) {
	t.Helper()
	f := NewInprocFabric(n)
	defer f.Close()
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			fn(NewComm(f.Transport(r)))
		}(r)
	}
	wg.Wait()
}

func TestSendRecvRoundTrip(t *testing.T) {
	runRanks(t, 2, func(c *Comm) {
		if c.Rank() == 0 {
			if err := c.SendBytes(1, 7, encodeF32([]float32{1, 2, 3})); err != nil {
				t.Error(err)
			}
		} else {
			buf := make([]float32, 3)
			msg, err := c.RecvBytes(0, 7)
			if err == nil {
				err = decodeF32Into(msg.Data, buf)
			}
			if err != nil || msg.Src != 0 {
				t.Errorf("recv: src=%d err=%v", msg.Src, err)
			}
			if buf[0] != 1 || buf[2] != 3 {
				t.Errorf("payload %v", buf)
			}
		}
	})
}

func TestTagMatchingOutOfOrder(t *testing.T) {
	runRanks(t, 2, func(c *Comm) {
		if c.Rank() == 0 {
			c.SendBytes(1, 1, []byte{1})
			c.SendBytes(1, 2, []byte{2})
		} else {
			// Receive tag 2 first even though tag 1 arrived first.
			m2, err := c.RecvBytes(0, 2)
			if err != nil || m2.Data[0] != 2 {
				t.Errorf("tag 2: %v %v", m2, err)
			}
			m1, err := c.RecvBytes(0, 1)
			if err != nil || m1.Data[0] != 1 {
				t.Errorf("tag 1: %v %v", m1, err)
			}
		}
	})
}

// TestSendBufferReuse pins the Transport.Send contract on both fabrics:
// once SendBytes returns, the caller owns its buffer again, and a
// mutation made right away never reaches the receiver.
func TestSendBufferReuse(t *testing.T) {
	check := func(c *Comm) {
		if c.Rank() == 0 {
			buf := []byte{42, 43}
			if err := c.SendBytes(1, 1, buf); err != nil {
				t.Error(err)
			}
			buf[0], buf[1] = 99, 99
		} else {
			msg, err := c.RecvBytes(0, 1)
			if err != nil || len(msg.Data) != 2 || msg.Data[0] != 42 || msg.Data[1] != 43 {
				t.Errorf("got %v err %v: Send did not copy the buffer", msg.Data, err)
			}
		}
	}
	t.Run("inproc", func(t *testing.T) { runRanks(t, 2, check) })
	t.Run("tcp", func(t *testing.T) { runTCPRanks(t, 2, check) })
}

// TestSendInvalidRankErrors checks that every rank argument outside
// [0, size) is an error on both fabrics, -1 included: a receive names
// its source, and there is no wildcard.
func TestSendInvalidRankErrors(t *testing.T) {
	check := func(t *testing.T, tr Transport) {
		c := NewComm(tr)
		if err := c.SendBytes(5, 0, nil); err == nil {
			t.Fatal("expected error for invalid destination")
		}
		if _, err := c.RecvBytes(5, 0); err == nil {
			t.Fatal("expected error for invalid source")
		}
		_, err := c.RecvBytesTimeout(-1, 0, 50*time.Millisecond)
		if err == nil || !strings.Contains(err.Error(), "recv source rank -1 out of range") {
			t.Fatalf("recv from rank -1: err = %v, want the out-of-range error", err)
		}
		if err := c.Bcast(5, make([]float32, 1)); err == nil {
			t.Fatal("expected error for invalid bcast root")
		}
	}
	t.Run("inproc", func(t *testing.T) {
		f := NewInprocFabric(2)
		defer f.Close()
		check(t, f.Transport(0))
	})
	t.Run("tcp", func(t *testing.T) {
		ts, err := ConnectTCPLocal(2)
		if err != nil {
			t.Fatalf("ConnectTCPLocal: %v", err)
		}
		defer func() {
			for _, tr := range ts {
				tr.Close()
			}
		}()
		check(t, ts[0])
	})
}

func TestRecvAfterCloseErrors(t *testing.T) {
	f := NewInprocFabric(2)
	c := NewComm(f.Transport(0))
	f.Close()
	if _, err := c.RecvBytes(1, 0); err != ErrClosed {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

// TestClosedReportsOwnEndpoint: Comm.Closed is true once this rank's own
// endpoint closes, and a peer's closure (a dead peer) does not set it,
// on both fabrics and through a fault-injecting wrapper.
func TestClosedReportsOwnEndpoint(t *testing.T) {
	check := func(t *testing.T, ts []Transport) {
		t.Helper()
		c0 := NewComm(InjectFaults(ts[0], &FaultSchedule{}))
		c1 := NewComm(ts[1])
		if c0.Closed() || c1.Closed() {
			t.Fatal("a fresh endpoint reports closed")
		}
		c1.Close()
		if c0.Closed() || !c1.Closed() {
			t.Fatalf("after rank 1 closes: rank 0 closed=%v, rank 1 closed=%v; want false, true", c0.Closed(), c1.Closed())
		}
		c0.Close()
		if !c0.Closed() {
			t.Fatal("rank 0 closed its endpoint but does not report closed")
		}
	}
	t.Run("inproc", func(t *testing.T) {
		f := NewInprocFabric(2)
		check(t, []Transport{f.Transport(0), f.Transport(1)})
	})
	t.Run("tcp", func(t *testing.T) {
		ts, err := ConnectTCPLocal(2)
		if err != nil {
			t.Fatalf("ConnectTCPLocal: %v", err)
		}
		check(t, ts)
	})
}

func TestBcastAllSizesAllRoots(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 9} {
		for root := 0; root < n; root++ {
			want := []float32{float32(root), 2, 3, 4}
			runRanks(t, n, func(c *Comm) {
				buf := make([]float32, 4)
				if c.Rank() == root {
					copy(buf, want)
				}
				if err := c.Bcast(root, buf); err != nil {
					t.Errorf("n=%d root=%d rank=%d: %v", n, root, c.Rank(), err)
					return
				}
				for i := range want {
					if buf[i] != want[i] {
						t.Errorf("n=%d root=%d rank=%d: got %v", n, root, c.Rank(), buf)
						return
					}
				}
			})
		}
	}
}

func TestReduceSumMatchesSerial(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 8} {
		for root := 0; root < n; root += 2 {
			const dim = 17
			rng := rand.New(rand.NewSource(int64(n*100 + root)))
			inputs := make([][]float32, n)
			want := make([]float64, dim)
			for r := range inputs {
				inputs[r] = make([]float32, dim)
				for i := range inputs[r] {
					inputs[r][i] = rng.Float32()
					want[i] += float64(inputs[r][i])
				}
			}
			runRanks(t, n, func(c *Comm) {
				buf := append([]float32(nil), inputs[c.Rank()]...)
				if err := c.Reduce(root, OpSum, buf); err != nil {
					t.Error(err)
					return
				}
				if c.Rank() == root {
					for i := range buf {
						if math.Abs(float64(buf[i])-want[i]) > 1e-4 {
							t.Errorf("n=%d root=%d elem %d: %v want %v", n, root, i, buf[i], want[i])
							return
						}
					}
				}
			})
		}
	}
}

func TestReduceMaxMin(t *testing.T) {
	runRanks(t, 4, func(c *Comm) {
		buf := []float32{float32(c.Rank()), float32(-c.Rank())}
		if err := c.Reduce(0, OpMax, buf); err != nil {
			t.Error(err)
			return
		}
		if c.Rank() == 0 && (buf[0] != 3 || buf[1] != 0) {
			t.Errorf("max: %v", buf)
		}
	})
	runRanks(t, 4, func(c *Comm) {
		buf := []float32{float32(c.Rank())}
		if err := c.Reduce(0, OpMin, buf); err != nil {
			t.Error(err)
			return
		}
		if c.Rank() == 0 && buf[0] != 0 {
			t.Errorf("min: %v", buf)
		}
	})
}

// Property (quick): tree Reduce equals a serial left fold for random
// vectors and communicator sizes.
func TestReduceEqualsSerialFoldProperty(t *testing.T) {
	f := func(sizeSeed uint8, dimSeed uint8, valSeed int64) bool {
		n := int(sizeSeed%8) + 1
		dim := int(dimSeed%16) + 1
		rng := rand.New(rand.NewSource(valSeed))
		inputs := make([][]float32, n)
		want := make([]float64, dim)
		for r := range inputs {
			inputs[r] = make([]float32, dim)
			for i := range inputs[r] {
				inputs[r][i] = rng.Float32()*2 - 1
				want[i] += float64(inputs[r][i])
			}
		}
		ok := true
		runRanks(t, n, func(c *Comm) {
			buf := append([]float32(nil), inputs[c.Rank()]...)
			if err := c.Reduce(0, OpSum, buf); err != nil {
				ok = false
				return
			}
			if c.Rank() == 0 {
				for i := range buf {
					if math.Abs(float64(buf[i])-want[i]) > 1e-4 {
						ok = false
					}
				}
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestBarrierOrdering(t *testing.T) {
	const n = 6
	var before, after int32
	runRanks(t, n, func(c *Comm) {
		atomic.AddInt32(&before, 1)
		if err := c.Barrier(); err != nil {
			t.Error(err)
			return
		}
		// Every rank must have entered before any rank exits.
		if got := atomic.LoadInt32(&before); got != n {
			t.Errorf("rank %d exited barrier with only %d/%d entered", c.Rank(), got, n)
		}
		atomic.AddInt32(&after, 1)
	})
	if after != n {
		t.Fatalf("only %d ranks exited", after)
	}
}

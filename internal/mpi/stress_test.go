package mpi

import (
	"math/rand"
	"sync"
	"testing"
)

// Stress: many ranks exchanging many random tagged messages — every
// message must be delivered exactly once with intact payload, regardless
// of ordering.
func TestMessageStormExactlyOnce(t *testing.T) {
	const (
		ranks   = 6
		perPair = 40
	)
	f := NewInprocFabric(ranks)
	defer f.Close()

	var wg sync.WaitGroup
	errs := make(chan string, ranks*ranks*perPair)
	for r := 0; r < ranks; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			c := NewComm(f.Transport(r))
			rng := rand.New(rand.NewSource(int64(r)))
			// Send perPair messages to every other rank with payload
			// encoding (src, dst, seq).
			var sendWG sync.WaitGroup
			sendWG.Add(1)
			go func() {
				defer sendWG.Done()
				// The sender runs concurrently with the receive loop below,
				// so it needs its own RNG: *rand.Rand is not goroutine-safe.
				sendRng := rand.New(rand.NewSource(int64(r) + 1000))
				for dst := 0; dst < ranks; dst++ {
					if dst == r {
						continue
					}
					for seq := 0; seq < perPair; seq++ {
						payload := []byte{byte(r), byte(dst), byte(seq), byte(sendRng.Intn(256))}
						if err := c.SendBytes(dst, 100+seq, payload); err != nil {
							errs <- err.Error()
							return
						}
					}
				}
			}()
			// Receive perPair messages from every other rank, in a
			// shuffled tag order to exercise out-of-order matching.
			seen := make(map[[3]byte]bool)
			for src := 0; src < ranks; src++ {
				if src == r {
					continue
				}
				for _, seq := range rng.Perm(perPair) {
					msg, err := c.RecvBytes(src, 100+seq)
					if err != nil {
						errs <- err.Error()
						return
					}
					if int(msg.Data[0]) != src || int(msg.Data[1]) != r || int(msg.Data[2]) != seq {
						errs <- "payload corrupted"
						return
					}
					key := [3]byte{msg.Data[0], msg.Data[1], msg.Data[2]}
					if seen[key] {
						errs <- "duplicate delivery"
						return
					}
					seen[key] = true
				}
			}
			sendWG.Wait()
			if len(seen) != (ranks-1)*perPair {
				errs <- "missing messages"
			}
		}(r)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// Stress the collectives: interleave different collective types
// back-to-back on the same communicator set; any tag leakage between them
// would corrupt results.
func TestInterleavedCollectives(t *testing.T) {
	const n = 5
	runRanks(t, n, func(c *Comm) {
		for round := 0; round < 10; round++ {
			buf := []float32{float32(c.Rank() + round)}
			if err := c.Reduce(round%n, OpSum, buf); err != nil {
				t.Error(err)
				return
			}
			want := float32(n*(n-1)/2 + n*round)
			if c.Rank() == round%n && buf[0] != want {
				t.Errorf("round %d: reduce %v, want %v", round, buf[0], want)
				return
			}
			if err := c.Barrier(); err != nil {
				t.Error(err)
				return
			}
			b := []float32{0}
			if c.Rank() == round%n {
				b[0] = float32(round + 1)
			}
			if err := c.Bcast(round%n, b); err != nil {
				t.Error(err)
				return
			}
			if b[0] != float32(round+1) {
				t.Errorf("round %d: bcast got %v", round, b[0])
				return
			}
		}
	})
}

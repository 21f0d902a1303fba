package serve

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// TestZeroAllocScore is the runtime allocation gate for the serving hot
// path (the escape gate is the compiler half): a worker's steady-state
// batch scoring — stage each request's rows, forward pass, read logits —
// must not touch the allocator. Queue and completion plumbing allocate
// per request by design; the per-batch numeric work must not. The batch
// mixes 1- and multi-row requests, 16 rows in all.
func TestZeroAllocScore(t *testing.T) {
	const in, out, total = 10, 8, 16
	_, net := testCheckpoint(t, in, 16, out)
	sc := newLocalScorer(net, total)
	rng := rand.New(rand.NewSource(13))
	var batch []*request
	for _, n := range []int{1, 8, 3, 1, 3} {
		rows := make([]float32, n*in)
		for j := range rows {
			rows[j] = rng.Float32()
		}
		batch = append(batch, &request{rows: rows, out: make([]float32, n*out), n: n})
	}
	sc.score(batch) // warm up
	n := testing.AllocsPerRun(20, func() {
		if logits := sc.score(batch); logits.Rows != total {
			t.Fatal("score failed inside the allocation probe")
		}
	})
	if n != 0 {
		t.Errorf("localScorer.score: %.0f allocs per batch, want 0", n)
	}
	// The scored logits must still be right: each request's rows map to
	// the logits rows at its offset through the staging copy.
	x := tensor.NewMatrix(total, in)
	off := 0
	for _, r := range batch {
		off += copy(x.Data[off:], r.rows)
	}
	want := net.Forward(x).Logits
	got := sc.score(batch)
	for i := 0; i < total; i++ {
		gr, wr := got.Row(i), want.Row(i)
		for j := range wr {
			if gr[j] != wr[j] {
				t.Fatalf("logits[%d][%d] = %v, want %v", i, j, gr[j], wr[j])
			}
		}
	}
}

// randomRequest is one queued request of n random rows.
func randomRequest(rng *rand.Rand, n, in, out int) *request {
	rows := make([]float32, n*in)
	for j := range rows {
		rows[j] = rng.Float32()
	}
	return &request{rows: rows, out: make([]float32, n*out), n: n}
}

// A scorer packs the served weights on its first batch and multiplies by
// those panels on every later one. Its logits must equal ForwardInto's,
// which packs on every call, and the training path's Forward, which
// packs per GEMM call, bit for bit: on the first batch (the one that
// packs) at every size 1…maxBatch, and on the later batches of every
// size that follow it. The first layer's Wᵀ (300×523) crosses both the
// KC and the NC block limits, and its last column block is not a whole
// number of 8-wide panels.
func TestScorePackedMatchesForwardInto(t *testing.T) {
	const in, hidden, out, maxBatch = 300, 523, 12, 9
	_, net := testCheckpoint(t, in, hidden, out)
	ref := net.Topo.NewInferBuffers(maxBatch)
	x := tensor.NewMatrix(maxBatch, in)
	rng := rand.New(rand.NewSource(14))
	for first := 1; first <= maxBatch; first++ {
		sc := newLocalScorer(net, maxBatch)
		for i, rows := range append([]int{first}, 1, 2, 3, 4, 5, 6, 7, 8, 9) {
			batch := []*request{randomRequest(rng, rows, in, out)}
			got := sc.score(batch)
			stage(x, batch)
			for name, want := range map[string]*tensor.Matrix{
				"ForwardInto": net.ForwardInto(ref, x),
				"Forward":     net.Forward(x).Logits,
			} {
				if got.Rows != want.Rows {
					t.Fatalf("first=%d batch %d: %d logits rows, %s %d", first, i, got.Rows, name, want.Rows)
				}
				for r := 0; r < rows; r++ {
					gr, wr := got.Row(r), want.Row(r)
					for j := range wr {
						if math.Float32bits(gr[j]) != math.Float32bits(wr[j]) {
							t.Fatalf("first=%d batch %d (%d rows): logits[%d][%d] = %v, %s %v",
								first, i, rows, r, j, gr[j], name, wr[j])
						}
					}
				}
			}
		}
	}
}

// BenchmarkScore times one worker's score of a 1- and an 8-row batch on
// the benchmark's wide (100-384-384-384-32) and served (100-256-256-32)
// models, without the HTTP stack or the batcher: staging plus the
// forward pass over the packed weights.
func BenchmarkScore(b *testing.B) {
	models := []struct {
		name  string
		sizes []int
	}{
		{"wide", []int{100, 384, 384, 384, 32}},
		{"serve", []int{100, 256, 256, 32}},
	}
	for _, m := range models {
		_, net := testCheckpoint(b, m.sizes...)
		for _, rows := range []int{1, 8} {
			b.Run(fmt.Sprintf("%s/rows=%d", m.name, rows), func(b *testing.B) {
				sc := newLocalScorer(net, DefaultMaxBatch)
				batch := []*request{randomRequest(rand.New(rand.NewSource(15)), rows, net.Topo.InputDim(), net.Topo.OutputDim())}
				sc.score(batch) // packs the weights
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					sc.score(batch)
				}
			})
		}
	}
}

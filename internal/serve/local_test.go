package serve

import (
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
	if _, err := sc.score(batch); err != nil { // warm up
		t.Fatal(err)
	}
	n := testing.AllocsPerRun(20, func() {
		logits, err := sc.score(batch)
		if err != nil || logits.Rows != total {
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
	got, err := sc.score(batch)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < total; i++ {
		gr, wr := got.Row(i), want.Row(i)
		for j := range wr {
			if gr[j] != wr[j] {
				t.Fatalf("logits[%d][%d] = %v, want %v", i, j, gr[j], wr[j])
			}
		}
	}
}

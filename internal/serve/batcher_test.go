package serve

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/tensor"
)

// gateScorer is a controllable scorer for batcher tests: every score
// call parks on the gate until the test releases it (close the gate to
// release everything), records the rows of each batch it served, and
// scores row i of a batch as [float32(i)] so tests can verify the
// row→output mapping survives coalescing.
type gateScorer struct {
	gate    chan struct{}
	started chan struct{} // one tick per score call, sent before parking

	mu      sync.Mutex
	batches []int
	out     *tensor.Matrix
}

func newGateScorer(maxBatch int) *gateScorer {
	return &gateScorer{
		gate:    make(chan struct{}),
		started: make(chan struct{}, 64),
		out:     tensor.NewMatrix(maxBatch, 1),
	}
}

func (g *gateScorer) score(batch []*request) (*tensor.Matrix, error) {
	g.started <- struct{}{}
	<-g.gate
	rows := 0
	for _, r := range batch {
		rows += r.n
	}
	g.mu.Lock()
	g.batches = append(g.batches, rows)
	g.mu.Unlock()
	g.out.Rows = rows
	for i := 0; i < rows; i++ {
		g.out.Row(i)[0] = float32(i)
	}
	return g.out, nil
}

func (g *gateScorer) stop() error { return nil }

func (g *gateScorer) batchSizes() []int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]int(nil), g.batches...)
}

// newTestBatcher builds a pipeline around the given scorers without a
// model: batcher tests drive b.score directly, so no network is needed.
func newTestBatcher(o options, scorers ...scorer) (*Server, *obs.Registry) {
	reg := obs.NewRegistry()
	s := &Server{opt: o, met: newMetrics(reg)}
	s.b = newBatcher(s, scorers)
	return s, reg
}

// waitFor polls until cond holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// scoreAsync launches one score call of n one-feature rows and returns
// its error channel and output buffer (read it after the error arrives).
func scoreAsync(s *Server, n int) (chan error, []float32) {
	ch, out := make(chan error, 1), make([]float32, n)
	go func() { ch <- s.b.score(make([]float32, n), out, n) }()
	return ch, out
}

// scoreNow runs one one-row score call on the caller's goroutine.
func scoreNow(s *Server) error {
	return s.b.score([]float32{1}, make([]float32, 1), 1)
}

// heldByCollector reports whether all n admitted requests have left the
// queue: with the worker parked, the collector holds the rest.
func heldByCollector(s *Server, n int64) func() bool {
	return func() bool { return len(s.b.queue) == 0 && s.b.pending.Load() == n }
}

func counter(reg *obs.Registry, name string) int64 { return reg.Counter(name).Value() }

// An idle worker takes a lone request at once: no batch-mates to wait
// for and no timer to wait out.
func TestBatcherIdleWorkerTakesLoneRequest(t *testing.T) {
	sc := newGateScorer(32)
	close(sc.gate)
	s, reg := newTestBatcher(options{maxBatch: 32, queueDepth: 16, drainTimeout: time.Second}, sc)
	if err := scoreNow(s); err != nil {
		t.Fatal(err)
	}
	if got := counter(reg, "serve.batches"); got != 1 {
		t.Errorf("serve.batches = %d, want 1", got)
	}
	if got := counter(reg, "serve.flush_full"); got != 0 {
		t.Errorf("flush_full = %d, want 0", got)
	}
	if sizes := sc.batchSizes(); len(sizes) != 1 || sizes[0] != 1 {
		t.Errorf("batch sizes %v, want [1]", sizes)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// While the only worker is busy, arrivals coalesce: N queued requests
// ride out as one batch of N rows once the worker is ready, and each
// caller reads its own row back from its offset.
func TestBatcherCoalescesWhileWorkerBusy(t *testing.T) {
	const n = 5
	sc := newGateScorer(32)
	s, reg := newTestBatcher(options{maxBatch: 32, queueDepth: 16, drainTimeout: time.Second}, sc)
	r0, _ := scoreAsync(s, 1)
	waitFor(t, "worker to start batch 0", func() bool { return len(sc.started) == 1 })
	var chans []chan error
	var outs [][]float32
	for i := 0; i < n; i++ {
		ch, out := scoreAsync(s, 1)
		chans, outs = append(chans, ch), append(outs, out)
	}
	waitFor(t, "collector to hold every request", heldByCollector(s, n+1))

	close(sc.gate)
	if err := <-r0; err != nil {
		t.Fatal(err)
	}
	seen := map[float32]bool{}
	for i, ch := range chans {
		if err := <-ch; err != nil {
			t.Fatal(err)
		}
		seen[outs[i][0]] = true
	}
	if len(seen) != n {
		t.Errorf("callers read rows %v back, want %d distinct offsets", seen, n)
	}
	if sizes := sc.batchSizes(); len(sizes) != 2 || sizes[0] != 1 || sizes[1] != n {
		t.Errorf("batch sizes %v, want [1 %d]", sizes, n)
	}
	if got := counter(reg, "serve.flush_full"); got != 0 {
		t.Errorf("flush_full = %d, want 0", got)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// A batch that cannot take the next request is full: it counts
// flush_full and blocks the collector until a worker takes it. Requests
// are packed whole, so a 3-row batch does not take a 2-row request under
// MaxBatch 4.
func TestBatcherFlushOnBatchFull(t *testing.T) {
	sc := newGateScorer(4)
	s, reg := newTestBatcher(options{maxBatch: 4, queueDepth: 16, drainTimeout: time.Second}, sc)
	r0, _ := scoreAsync(s, 1)
	waitFor(t, "worker to start batch 0", func() bool { return len(sc.started) == 1 })
	r1, _ := scoreAsync(s, 3)
	waitFor(t, "collector to hold the 3-row request", heldByCollector(s, 2))
	r2, _ := scoreAsync(s, 2)
	waitFor(t, "collector to hold the 2-row request", heldByCollector(s, 3))
	if got := counter(reg, "serve.flush_full"); got != 1 {
		t.Errorf("flush_full = %d, want 1 (3+2 rows exceed MaxBatch 4)", got)
	}

	close(sc.gate)
	for i, ch := range []chan error{r0, r1, r2} {
		if err := <-ch; err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	if sizes := sc.batchSizes(); len(sizes) != 3 || sizes[0] != 1 || sizes[1] != 3 || sizes[2] != 2 {
		t.Errorf("batch sizes %v, want [1 3 2]", sizes)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// A request larger than MaxBatch is one queue entry and one batch; its
// worker scores it in MaxBatch-row slices and each slice's rows land at
// the slice's offset in the caller's buffer.
func TestBatcherSlicesOversizeRequest(t *testing.T) {
	sc := newGateScorer(4)
	close(sc.gate)
	s, reg := newTestBatcher(options{maxBatch: 4, queueDepth: 16, drainTimeout: time.Second}, sc)
	ch, out := scoreAsync(s, 9)
	if err := <-ch; err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != float32(i%4) {
			t.Fatalf("row %d scored %v, want %v (slice offset)", i, v, float32(i%4))
		}
	}
	if sizes := sc.batchSizes(); len(sizes) != 3 || sizes[0] != 4 || sizes[1] != 4 || sizes[2] != 1 {
		t.Errorf("slice sizes %v, want [4 4 1]", sizes)
	}
	if got := counter(reg, "serve.requests"); got != 1 {
		t.Errorf("serve.requests = %d, want 1", got)
	}
	if got := counter(reg, "serve.batches"); got != 1 {
		t.Errorf("serve.batches = %d, want 1", got)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// saturate fills every stage of a MaxBatch-1, queue-depth-1 pipeline:
// r0 at the worker (parked on the gate), r1 at the collector's blocking
// hand-off, r2 in the queue.
func saturate(t *testing.T, s *Server, sc *gateScorer) [3]chan error {
	t.Helper()
	var rs [3]chan error
	rs[0], _ = scoreAsync(s, 1)
	waitFor(t, "worker to start batch 0", func() bool { return len(sc.started) == 1 })
	rs[1], _ = scoreAsync(s, 1)
	waitFor(t, "collector to block on the hand-off", heldByCollector(s, 2))
	rs[2], _ = scoreAsync(s, 1)
	waitFor(t, "request 2 to park in the queue", func() bool { return len(s.b.queue) == 1 })
	return rs
}

// Admission control: a request arriving at a full queue is shed with
// ErrQueueFull synchronously, before anything is enqueued — and the
// requests already admitted still complete once the worker unblocks.
func TestBatcherShedsBeforeEnqueue(t *testing.T) {
	sc := newGateScorer(1)
	s, reg := newTestBatcher(options{maxBatch: 1, queueDepth: 1, drainTimeout: time.Second}, sc)
	rs := saturate(t, s, sc)

	// The pipeline is saturated: the next request must shed immediately.
	start := time.Now()
	if err := scoreNow(s); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("saturated pipeline returned %v, want ErrQueueFull", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("shed took %v, want immediate rejection", d)
	}
	if got := counter(reg, "serve.shed"); got != 1 {
		t.Errorf("serve.shed = %d, want 1", got)
	}
	if got := counter(reg, "serve.requests"); got != 3 {
		t.Errorf("serve.requests = %d, want 3 (shed request must not count)", got)
	}

	close(sc.gate)
	for i, ch := range rs {
		if err := <-ch; err != nil {
			t.Fatalf("admitted request %d failed: %v", i, err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// WithMaxWait sheds on the load estimate: once the observed service time
// says queued work exceeds the bound, requests are rejected even though
// the queue has room.
func TestBatcherLoadAwareShedding(t *testing.T) {
	sc := newGateScorer(1)
	close(sc.gate)
	s, reg := newTestBatcher(options{
		maxBatch: 1, queueDepth: 64, maxWait: time.Nanosecond, drainTimeout: time.Second,
	}, sc)
	// First request trains the EWMA (no estimate yet, so it is admitted).
	if err := scoreNow(s); err != nil {
		t.Fatalf("first request: %v", err)
	}
	waitFor(t, "service-time estimate", func() bool { return s.b.ewmaNs.Load() > 0 })
	// Any real service time exceeds a 1ns bound: shed on the estimate.
	if err := scoreNow(s); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("loaded server returned %v, want ErrQueueFull", err)
	}
	if got := reg.Counter("serve.shed").Value(); got != 1 {
		t.Errorf("serve.shed = %d, want 1", got)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// Graceful drain: Close stops admission immediately (ErrDraining) but
// in-flight requests complete normally before Close returns.
func TestBatcherGracefulDrain(t *testing.T) {
	sc := newGateScorer(2)
	s, _ := newTestBatcher(options{maxBatch: 2, queueDepth: 8, drainTimeout: 10 * time.Second}, sc)
	r0, _ := scoreAsync(s, 1)
	r1, _ := scoreAsync(s, 1)
	waitFor(t, "worker to start the in-flight batch", func() bool { return len(sc.started) >= 1 })

	closed := make(chan error, 1)
	go func() { closed <- s.Close() }()
	waitFor(t, "draining to flip", func() bool { return s.Draining() })

	// New admissions are refused while the drain holds the in-flight work.
	if err := scoreNow(s); !errors.Is(err, ErrDraining) {
		t.Fatalf("draining server returned %v, want ErrDraining", err)
	}
	select {
	case err := <-closed:
		t.Fatalf("Close returned %v with requests in flight", err)
	default:
	}

	close(sc.gate)
	for i, ch := range []chan error{r0, r1} {
		if err := <-ch; err != nil {
			t.Fatalf("in-flight request %d failed during drain: %v", i, err)
		}
	}
	if err := <-closed; err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Close is idempotent.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// Requests still parked past the drain timeout fail with ErrDraining
// through their own score calls, while requests the workers already
// hold complete normally.
func TestBatcherDrainTimeoutFailsQueued(t *testing.T) {
	sc := newGateScorer(1)
	s, _ := newTestBatcher(options{maxBatch: 1, queueDepth: 1, drainTimeout: 5 * time.Millisecond}, sc)
	rs := saturate(t, s, sc)

	closed := make(chan error, 1)
	go func() { closed <- s.Close() }()
	// The drain times out against the parked worker; the batch blocked
	// at the hand-off and the queued request must fail, not hang.
	for i, ch := range rs[1:] {
		if err := <-ch; !errors.Is(err, ErrDraining) {
			t.Fatalf("parked request %d returned %v, want ErrDraining", i+1, err)
		}
	}
	close(sc.gate)
	if err := <-rs[0]; err != nil {
		t.Fatalf("dispatched request failed: %v", err)
	}
	if err := <-closed; err != nil {
		t.Fatalf("Close: %v", err)
	}
}

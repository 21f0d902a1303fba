package serve

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// request is one admitted scoring request parked in the queue: the
// caller's n feature rows (row-major, n×InputDim), the caller-owned
// output buffer (n×OutputDim) the scores land in, and the completion
// signal its score call blocks on.
type request struct {
	rows  []float32
	out   []float32
	n     int
	start time.Time
	err   error
	done  chan struct{}
}

// scorer runs one batch of requests, at most MaxBatch rows in total,
// through the model. Implementations are single-goroutine (each scoring
// worker owns one): localScorer runs the forward pass in-process over
// preallocated nn.InferBuffers; replicaScorer ships the batch to a
// replica rank over the mpi fabric. The returned logits matrix is
// compact (each request's rows follow the previous one's), owned by the
// scorer and valid until its next score call.
type scorer interface {
	score(batch []*request) (*tensor.Matrix, error)
	// stop releases the scorer at drain time (replica shutdown; no-op
	// locally).
	stop() error
}

// batcher is the serving pipeline: bounded admission queue → collector
// goroutine → scoring workers, joined by the unbuffered batches channel.
// It is work-conserving: no request waits while a worker is idle, and
// requests coalesce only while every worker is busy.
//
// Shutdown protocol (close): draining flips first, so admission stops;
// the closer then waits for the pending count to hit zero (every
// admitted request completed) before closing stop — the collector exits
// idle, workers exit on the closed batches channel. The pending counter
// uses the double-check idiom on the admission side so a racing score
// can never slip an uncounted request past the drain: it increments
// pending, re-checks draining, and backs out if the drain has begun.
type batcher struct {
	s       *Server
	scorers []scorer

	queue   chan *request
	batches chan []*request // unbuffered: a batch moves only to a ready worker
	stop    chan struct{}   // closed after drain: collector exits
	colDone chan struct{}   // closed when the collector has returned
	wg      sync.WaitGroup

	draining atomic.Bool
	pending  atomic.Int64 // admitted, not yet completed
	live     atomic.Int64 // workers still in the pool
	ewmaNs   atomic.Int64 // smoothed per-request service time estimate

	closeOnce sync.Once
}

// newBatcher wires the pipeline and starts the collector and one worker
// per scorer.
func newBatcher(s *Server, scorers []scorer) *batcher {
	b := &batcher{
		s:       s,
		scorers: scorers,
		queue:   make(chan *request, s.opt.queueDepth),
		batches: make(chan []*request),
		stop:    make(chan struct{}),
		colDone: make(chan struct{}),
	}
	b.live.Store(int64(len(scorers)))
	go b.collect()
	b.wg.Add(len(scorers))
	for _, sc := range scorers {
		go b.worker(sc)
	}
	return b
}

// score admits n row-major rows (rows and out hold n×InputDim and
// n×OutputDim values) as one request and blocks until it completes.
// Shedding happens strictly before enqueue: a full queue (or a
// load-aware wait estimate beyond WithMaxWait) returns ErrQueueFull
// without the request ever entering the pipeline. A replica rank's
// Server has no batcher and admits nothing.
func (b *batcher) score(rows, out []float32, n int) error {
	if b == nil {
		return errors.New("serve: Score on a replica rank (only rank 0 admits requests)")
	}
	met := &b.s.met
	if b.draining.Load() {
		met.drained.Inc()
		return ErrDraining
	}
	if b.live.Load() == 0 {
		return ErrWorkerLost
	}
	if mw := b.s.opt.maxWait; mw > 0 {
		if e := b.ewmaNs.Load(); e > 0 {
			est := time.Duration((int64(len(b.queue))+1) * e / int64(len(b.scorers)))
			if est > mw {
				met.shed.Inc()
				return ErrQueueFull
			}
		}
	}
	r := &request{rows: rows, out: out, n: n, start: time.Now(), done: make(chan struct{})}
	b.pending.Add(1)
	if b.draining.Load() {
		// Double-check after the increment: if the closer's drain wait is
		// already polling pending, the increment above is visible to it,
		// so backing out here keeps the count exact.
		b.pending.Add(-1)
		met.drained.Inc()
		return ErrDraining
	}
	select {
	case b.queue <- r:
		met.requests.Inc()
		met.queueDepth.Set(float64(len(b.queue)))
	default:
		b.pending.Add(-1)
		met.shed.Inc()
		return ErrQueueFull
	}
	<-r.done
	met.latencyUS.Observe(time.Since(r.start).Microseconds())
	return r.err
}

// collect moves queued requests to the workers: it offers a pending
// batch to them while still taking arrivals, packing whole requests
// while their rows fit in MaxBatch. A request larger than MaxBatch
// travels alone.
func (b *batcher) collect() {
	defer close(b.colDone)
	maxBatch := b.s.opt.maxBatch
	var pending []*request
	rows := 0
	for {
		offer := b.batches
		if len(pending) == 0 {
			offer = nil // nothing to offer: wait for an arrival
		}
		var r *request
		select {
		case offer <- pending:
			pending, rows = nil, 0
			continue
		case r = <-b.queue:
		case <-b.stop:
			// Forced stop (drain timeout): every worker is still busy.
			b.complete(ErrDraining, pending...)
			b.failQueued()
			return
		}
		b.s.met.queueDepth.Set(float64(len(b.queue)))
		if len(pending) > 0 && rows+r.n > maxBatch {
			if !b.dispatchFull(pending, r) {
				return
			}
			pending, rows = nil, 0
		}
		pending, rows = append(pending, r), rows+r.n
		if rows >= maxBatch {
			if !b.dispatchFull(pending) {
				return
			}
			pending, rows = nil, 0
		}
	}
}

// dispatchFull hands a batch that can take no more rows to the next
// ready worker, blocking the collector for backpressure. It returns
// false when the stop signal preempted the hand-off: the batch, the
// collector's held request if any, and everything queued are failed
// with ErrDraining and the collector must exit.
func (b *batcher) dispatchFull(batch []*request, held ...*request) bool {
	b.s.met.flushFull.Inc()
	select {
	case b.batches <- batch:
		return true
	case <-b.stop:
		b.complete(ErrDraining, append(batch, held...)...)
		b.failQueued()
		return false
	}
}

// failQueued drains the admission queue, failing every parked request
// with ErrDraining; only the forced-stop path reaches it with requests
// still queued.
func (b *batcher) failQueued() {
	for {
		select {
		case r := <-b.queue:
			b.complete(ErrDraining, r)
		default:
			return
		}
	}
}

// complete finishes requests with err (nil: scored).
func (b *batcher) complete(err error, batch ...*request) {
	for _, r := range batch {
		r.err = err
		close(r.done)
		b.pending.Add(-1)
	}
}

// worker scores batches until the batches channel closes. A worker
// whose scorer reports ErrWorkerLost leaves the pool; the last one to
// leave stays only to fail what was already handed to it, since
// admission refuses new requests from then on.
func (b *batcher) worker(sc scorer) {
	defer b.wg.Done()
	part := []*request{new(request)}
	for batch := range b.batches {
		if !errors.Is(b.runBatch(sc, batch, part), ErrWorkerLost) {
			continue
		}
		if b.live.Add(-1) > 0 {
			return
		}
		for batch := range b.batches {
			b.complete(ErrWorkerLost, batch...)
		}
	}
}

// runBatch scores one batch, completes its requests with the outcome,
// and folds the batch's per-request service time into the load estimate
// WithMaxWait sheds on. A request larger than MaxBatch travels alone and
// is scored through part, the worker's one-entry scratch batch, in
// MaxBatch-row slices.
func (b *batcher) runBatch(sc scorer, batch, part []*request) error {
	start := time.Now()
	rows, step := 0, b.s.opt.maxBatch
	for _, r := range batch {
		rows += r.n
	}
	b.s.met.batches.Inc()
	b.s.met.batchRows.Observe(int64(rows))
	var err error
	if r := batch[0]; r.n > step {
		in, out := len(r.rows)/r.n, len(r.out)/r.n
		for lo := 0; lo < r.n && err == nil; lo += step {
			hi := min(lo+step, r.n)
			*part[0] = request{rows: r.rows[lo*in : hi*in], out: r.out[lo*out : hi*out], n: hi - lo}
			err = b.scoreInto(sc, part)
		}
	} else {
		err = b.scoreInto(sc, batch)
	}
	b.complete(err, batch...)
	perReq := time.Since(start).Nanoseconds() / int64(len(batch))
	old := b.ewmaNs.Load()
	if old == 0 {
		b.ewmaNs.Store(perReq)
	} else {
		// 4:1 exponential smoothing in integer nanoseconds.
		b.ewmaNs.Store((old*4 + perReq) / 5)
	}
	return err
}

// scoreInto scores a batch of at most MaxBatch rows and copies each
// caller's scores (after the optional softmax) back from its offset.
func (b *batcher) scoreInto(sc scorer, batch []*request) error {
	logits, err := sc.score(batch)
	if err != nil {
		return err
	}
	if b.s.opt.softmax {
		nn.SoftmaxInto(logits, logits)
	}
	src := logits.Data
	for _, r := range batch {
		src = src[copy(r.out, src):]
	}
	return nil
}

// close drains and stops the pipeline; see the batcher doc comment for
// the protocol. Requests still queued when the drain timeout expires
// fail with ErrDraining through their own Score calls.
func (b *batcher) close(timeout time.Duration) error {
	var errOut error
	b.closeOnce.Do(func() {
		b.draining.Store(true)
		deadline := time.Now().Add(timeout)
		for b.pending.Load() > 0 && time.Now().Before(deadline) {
			time.Sleep(200 * time.Microsecond)
		}
		close(b.stop)
		<-b.colDone
		close(b.batches)
		b.wg.Wait()
		for _, sc := range b.scorers {
			if err := sc.stop(); err != nil && errOut == nil {
				errOut = err
			}
		}
	})
	return errOut
}

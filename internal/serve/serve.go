// Package serve is the inference serving runtime: it loads a trained
// core.Checkpoint, reconstructs the internal/nn network, and scores
// feature vectors behind a work-conserving, request-coalescing batcher
// with admission control — the checkpoint-to-traffic path of the
// production arc (ROADMAP item 1).
//
// The public surface is one options-based constructor, mirroring
// core.NewSession:
//
//	srv, err := serve.New(ck,
//		serve.WithMaxBatch(32),
//		serve.WithQueueDepth(256),
//		serve.WithWorkers(2),
//		serve.WithObserver(ob),
//	)
//	defer srv.Close()
//	http.ListenAndServe(addr, srv.Handler())
//
// A request of n rows (one Score call, or one POST /score of n
// instances) is one admission into a bounded queue (full queue →
// immediate ErrQueueFull, HTTP 429, before anything is enqueued). A
// collector goroutine hands its pending batch to the first ready scoring
// worker; while every worker is busy, arrivals coalesce up to MaxBatch
// rows. Workers run batched forward passes in this process over
// preallocated nn.InferBuffers (zero allocations on the score path).
// Each worker packs the model's weights into its own GEMM panels on its
// first batch and multiplies by them from then on; the served weights
// never change after New, so the panels never go stale. Close drains:
// admission stops (ErrDraining → 503), in-flight requests complete, then
// the pipeline shuts down.
//
// New refuses a max batch, queue depth or worker count below 1 and a
// drain timeout that is not positive, rather than silently substituting
// a default.
package serve

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/nn"
	"repro/internal/obs"
)

// Defaults for the options New is not given.
const (
	// DefaultMaxBatch bounds the rows of one batch.
	DefaultMaxBatch = 32
	// DefaultQueueDepth bounds the admission queue.
	DefaultQueueDepth = 256
	// DefaultWorkers is the scoring-worker count (per-worker buffers are
	// preallocated, so workers cost memory proportional to MaxBatch).
	DefaultWorkers = 2
	// DefaultDrainTimeout bounds Close's graceful drain; requests still
	// queued past it fail with ErrDraining.
	DefaultDrainTimeout = 5 * time.Second
)

// Admission errors. The HTTP handler maps ErrQueueFull to 429 and
// ErrDraining to 503.
var (
	// ErrQueueFull is returned (before anything is enqueued) when the
	// admission queue is full or the load-aware wait estimate exceeds
	// the configured bound — shed now, fast, rather than time out later.
	ErrQueueFull = errors.New("serve: queue full, request shed")
	// ErrDraining is returned once Close has begun: the server finishes
	// in-flight work but admits nothing new.
	ErrDraining = errors.New("serve: server draining")
)

// options accumulates Option state before validation.
type options struct {
	maxBatch     int
	queueDepth   int
	workers      int
	maxWait      time.Duration
	drainTimeout time.Duration
	softmax      bool
	ob           *obs.Observer
}

// Option configures a Server.
type Option func(*options)

// WithMaxBatch bounds the rows of one batch (default 32) and sizes every
// preallocated buffer; a larger request is scored alone, in slices.
func WithMaxBatch(n int) Option {
	return func(o *options) { o.maxBatch = n }
}

// WithQueueDepth bounds the admission queue (default 256). A request
// arriving at a full queue is shed with ErrQueueFull before enqueue.
func WithQueueDepth(n int) Option {
	return func(o *options) { o.queueDepth = n }
}

// WithWorkers sets the scoring-worker count (default 2).
func WithWorkers(n int) Option {
	return func(o *options) { o.workers = n }
}

// WithMaxWait arms load-aware admission control: beyond the queue bound,
// a request is shed when queued-work × the observed per-request service
// time estimates a wait longer than d. Zero (the default) disables the
// estimate and sheds on queue depth alone.
func WithMaxWait(d time.Duration) Option {
	return func(o *options) { o.maxWait = d }
}

// WithDrainTimeout bounds Close's graceful drain (default 5s). Requests
// still queued when it expires fail with ErrDraining.
func WithDrainTimeout(d time.Duration) Option {
	return func(o *options) { o.drainTimeout = d }
}

// WithSoftmax makes the server return row-wise softmax probabilities
// instead of raw logits.
func WithSoftmax() Option {
	return func(o *options) { o.softmax = true }
}

// WithObserver wires the server's metrics (request/shed counters, queue
// depth, batch-size and latency histograms) into ob's registry, from
// which the telemetry plane's /metrics endpoint exposes them.
func WithObserver(ob *obs.Observer) Option {
	return func(o *options) { o.ob = ob }
}

// metrics bundles the server's instruments. All obs instruments are
// nil-safe, so a Server without WithObserver records into no-ops.
type metrics struct {
	requests     *obs.Counter   // admitted requests
	shed         *obs.Counter   // queue-full/load-shed rejections
	drained      *obs.Counter   // rejections while draining
	batches      *obs.Counter   // dispatched batches
	flushFull    *obs.Counter   // batches dispatched full (blocking hand-off)
	encodeErrors *obs.Counter   // /score replies that failed to encode
	queueDepth   *obs.Gauge     // live queue length
	batchRows    *obs.Histogram // rows per dispatched batch
	latencyUS    *obs.Histogram // enqueue→completion latency, µs
}

func newMetrics(reg *obs.Registry) metrics {
	return metrics{
		requests:     reg.Counter("serve.requests"),
		shed:         reg.Counter("serve.shed"),
		drained:      reg.Counter("serve.rejected_draining"),
		batches:      reg.Counter("serve.batches"),
		flushFull:    reg.Counter("serve.flush_full"),
		encodeErrors: reg.Counter("serve.encode_errors"),
		queueDepth:   reg.Gauge("serve.queue_depth"),
		batchRows:    reg.Histogram("serve.batch_rows"),
		latencyUS:    reg.Histogram("serve.latency_us"),
	}
}

// Server scores feature vectors against one checkpointed network. Safe
// for concurrent use; create with New, stop with Close.
type Server struct {
	net  *nn.Network
	topo nn.Topology
	opt  options
	met  metrics

	b *batcher
}

// New builds a serving runtime for the trained model in ck. The
// checkpoint is validated against its own topology (as ReadCheckpoint
// does) before the network is reconstructed.
func New(ck *core.Checkpoint, opts ...Option) (*Server, error) {
	o := options{
		maxBatch:     DefaultMaxBatch,
		queueDepth:   DefaultQueueDepth,
		workers:      DefaultWorkers,
		drainTimeout: DefaultDrainTimeout,
	}
	for _, opt := range opts {
		opt(&o)
	}
	switch {
	case o.maxBatch < 1:
		return nil, fmt.Errorf("serve: max batch %d, want ≥ 1", o.maxBatch)
	case o.queueDepth < 1:
		return nil, fmt.Errorf("serve: queue depth %d, want ≥ 1", o.queueDepth)
	case o.workers < 1:
		return nil, fmt.Errorf("serve: %d workers, want ≥ 1", o.workers)
	case o.drainTimeout <= 0:
		return nil, fmt.Errorf("serve: drain timeout %v, want > 0", o.drainTimeout)
	}
	if ck == nil {
		return nil, errors.New("serve: nil checkpoint")
	}
	if err := ck.Validate(); err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	s := &Server{
		net:  core.NetworkFromCheckpoint(ck),
		topo: nn.NewTopology(ck.Sizes...),
		opt:  o,
		met:  newMetrics(o.ob.Registry()),
	}
	scorers := make([]scorer, o.workers)
	for i := range scorers {
		scorers[i] = newLocalScorer(s.net, o.maxBatch)
	}
	s.b = newBatcher(s, scorers)
	return s, nil
}

// InputDim returns the model's feature dimension.
func (s *Server) InputDim() int { return s.topo.InputDim() }

// OutputDim returns the model's score dimension (class count).
func (s *Server) OutputDim() int { return s.topo.OutputDim() }

// Score runs one feature vector through the batcher and writes the
// model's scores (logits, or probabilities under WithSoftmax) into out.
// It blocks until the request is scored, shed (ErrQueueFull) or refused
// (ErrDraining); concurrent callers coalesce into shared batches. It is
// the one-row case of the path a POST /score takes.
func (s *Server) Score(row, out []float32) error {
	if len(row) != s.topo.InputDim() {
		return fmt.Errorf("serve: instance has %d features, model wants %d", len(row), s.topo.InputDim())
	}
	if len(out) != s.topo.OutputDim() {
		return fmt.Errorf("serve: output buffer has %d slots, model emits %d", len(out), s.topo.OutputDim())
	}
	return s.b.score(row, out, 1)
}

// QueueDepth returns the number of requests currently queued.
func (s *Server) QueueDepth() int { return len(s.b.queue) }

// Draining reports whether Close has begun.
func (s *Server) Draining() bool { return s.b.draining.Load() }

// Close drains the server: admission stops immediately, queued and
// in-flight requests complete (bounded by the drain timeout), then the
// collector and workers exit. Close is idempotent and returns nil; a
// request abandoned at the drain timeout fails with ErrDraining through
// its own Score call, never through Close.
func (s *Server) Close() error {
	s.b.close(s.opt.drainTimeout)
	return nil
}

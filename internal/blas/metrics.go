package blas

import (
	"sync/atomic"

	"repro/internal/obs"
)

// ShapeClass buckets GEMM problems the way the paper's §V-A tuning
// discussion does: tiny problems that do not amortize packing, skinny
// problems ("dimensions that do not lend themselves to full
// SIMDization"), and large well-formed problems.
type ShapeClass int

const (
	// ShapeSmall is under 2·64³ flops, where packing is a visible share
	// of the call.
	ShapeSmall ShapeClass = iota
	// ShapeSkinny has at least one dimension under two register tiles.
	ShapeSkinny
	// ShapeLarge is everything else: the packed/parallel sweet spot.
	ShapeLarge
	numShapeClasses
)

// String returns the class label used in metric names and reports.
func (s ShapeClass) String() string {
	switch s {
	case ShapeSmall:
		return "small"
	case ShapeSkinny:
		return "skinny"
	case ShapeLarge:
		return "large"
	default:
		return "shape(?)"
	}
}

// ClassifyShape assigns an M×N×K GEMM to its shape class.
func ClassifyShape(m, n, k int) ShapeClass {
	flops := 2 * float64(m) * float64(n) * float64(k)
	if flops < 64*64*64*2 {
		return ShapeSmall
	}
	if m < 2*mr || n < 2*mr || k < 2*mr {
		return ShapeSkinny
	}
	return ShapeLarge
}

// gemmMetrics holds the pre-resolved instruments so the per-call cost
// when enabled is a few atomic adds, and when disabled a single atomic
// pointer load.
type gemmMetrics struct {
	calls *obs.Counter
	flops [numShapeClasses]*obs.Counter
	sizes *obs.Histogram
}

var metrics atomic.Pointer[gemmMetrics]

// EnableMetrics routes GEMM call counts and flop totals by shape class
// into the registry as "blas.gemm.calls", "blas.gemm.flops.<class>" and
// the per-call flop histogram "blas.gemm.flops_per_call". Instruments
// are resolved once here, so the Gemm hot path never touches the
// registry's lock.
func EnableMetrics(r *obs.Registry) {
	if r == nil {
		DisableMetrics()
		return
	}
	m := &gemmMetrics{
		calls: r.Counter("blas.gemm.calls"),
		sizes: r.Histogram("blas.gemm.flops_per_call"),
	}
	for c := ShapeClass(0); c < numShapeClasses; c++ {
		m.flops[c] = r.Counter("blas.gemm.flops." + c.String())
	}
	metrics.Store(m)
}

// DisableMetrics detaches GEMM instrumentation; subsequent calls pay
// only the nil pointer check.
func DisableMetrics() { metrics.Store(nil) }

// recordGemm notes one GEMM call; the caller has already checked that
// metrics are enabled.
func (gm *gemmMetrics) recordGemm(m, n, k int) {
	flops := 2 * int64(m) * int64(n) * int64(k)
	gm.calls.Inc()
	gm.flops[ClassifyShape(m, n, k)].Add(flops)
	gm.sizes.Observe(flops)
}

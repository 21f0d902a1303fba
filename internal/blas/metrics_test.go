package blas

import (
	"testing"

	"repro/internal/obs"
	"repro/internal/tensor"
)

func TestClassifyShape(t *testing.T) {
	cases := []struct {
		m, n, k int
		want    ShapeClass
	}{
		{8, 8, 8, ShapeSmall},
		{63, 63, 63, ShapeSmall},
		{128, 128, 8, ShapeSmall}, // skinny dims but too few flops: small wins
		{1024, 1024, 8, ShapeSkinny},
		{8, 1024, 1024, ShapeSkinny},
		{128, 128, 128, ShapeLarge},
	}
	for _, c := range cases {
		if got := ClassifyShape(c.m, c.n, c.k); got != c.want {
			t.Errorf("ClassifyShape(%d,%d,%d) = %v, want %v", c.m, c.n, c.k, got, c.want)
		}
	}
	for s := ShapeClass(0); s < numShapeClasses; s++ {
		if s.String() == "shape(?)" {
			t.Fatalf("class %d has no label", s)
		}
	}
}

func TestGemmMetricsRecorded(t *testing.T) {
	reg := obs.NewRegistry()
	EnableMetrics(reg)
	defer DisableMetrics()

	a := tensor.NewMatrix(16, 16)
	b := tensor.NewMatrix(16, 16)
	c := tensor.NewMatrix(16, 16)
	Gemm(NoTrans, NoTrans, 1, a, b, 0, c)
	Gemm(NoTrans, NoTrans, 1, a, b, 0, c)

	if got := reg.Counter("blas.gemm.calls").Value(); got != 2 {
		t.Fatalf("gemm calls = %d, want 2", got)
	}
	wantFlops := int64(2 * 2 * 16 * 16 * 16)
	if got := reg.Counter("blas.gemm.flops.small").Value(); got != wantFlops {
		t.Fatalf("small flops = %d, want %d", got, wantFlops)
	}
	if got := reg.Histogram("blas.gemm.flops_per_call").Count(); got != 2 {
		t.Fatalf("flop histogram count = %d, want 2", got)
	}

	DisableMetrics()
	Gemm(NoTrans, NoTrans, 1, a, b, 0, c)
	if got := reg.Counter("blas.gemm.calls").Value(); got != 2 {
		t.Fatalf("disabled metrics still recorded: calls = %d", got)
	}
}

// TestGemmMetricsDisabledNoExtraAllocs: with metrics disabled the
// instrumentation must add zero allocations to the GEMM path (the
// blocked kernel itself allocates its packing buffers; compare against
// that baseline by measuring the identical call).
func TestGemmMetricsDisabledNoExtraAllocs(t *testing.T) {
	DisableMetrics()
	a := tensor.NewMatrix(32, 32)
	b := tensor.NewMatrix(32, 32)
	c := tensor.NewMatrix(32, 32)
	cfg := Config{Impl: Naive}
	baseline := testing.AllocsPerRun(20, func() {
		gemmNaive(NoTrans, NoTrans, 1, a, b, 0, c)
	})
	instrumented := testing.AllocsPerRun(20, func() {
		GemmWith(cfg, NoTrans, NoTrans, 1, a, b, 0, c)
	})
	if instrumented > baseline {
		t.Fatalf("disabled metrics path allocates: %v > baseline %v", instrumented, baseline)
	}
}

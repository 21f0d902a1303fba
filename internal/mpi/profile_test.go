package mpi

import (
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

func TestProfilerRecordsCategories(t *testing.T) {
	runRanks(t, 2, func(c *Comm) {
		c.SetPhase("load_data")
		if c.Rank() == 0 {
			c.SendBytes(1, 1, encodeF32(make([]float32, 10)))
		} else {
			c.RecvBytes(0, 1)
		}
		c.SetPhase("sync_weights")
		c.Bcast(0, make([]float32, 20))

		snap := c.Profiler().Snapshot()
		var sawP2P, sawColl bool
		for _, s := range snap {
			switch {
			case s.Phase == "load_data" && s.Cat == CatP2P:
				sawP2P = true
				if s.Stat.Bytes != 40 || s.Stat.Calls != 1 {
					t.Errorf("rank %d load_data stat: %+v", c.Rank(), s.Stat)
				}
			case s.Phase == "sync_weights" && s.Cat == CatCollective:
				sawColl = true
				if s.Stat.Bytes != 80 {
					t.Errorf("rank %d sync_weights bytes = %d", c.Rank(), s.Stat.Bytes)
				}
			}
		}
		if !sawP2P || !sawColl {
			t.Errorf("rank %d: p2p=%v collective=%v", c.Rank(), sawP2P, sawColl)
		}
	})
}

func TestProfilerSnapshotSorted(t *testing.T) {
	p := NewProfiler()
	p.SetPhase("z")
	p.addOp(CatCollective, "bcast", time.Millisecond, 1)
	p.SetPhase("a")
	p.addOp(CatCollective, "bcast", time.Millisecond, 1)
	p.addOp(CatP2P, "send", time.Millisecond, 1)
	snap := p.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("len %d", len(snap))
	}
	if snap[0].Phase != "a" || snap[0].Cat != CatP2P {
		t.Fatalf("snapshot order: %+v", snap)
	}
	if snap[2].Phase != "z" {
		t.Fatalf("snapshot order: %+v", snap)
	}
}

func TestCategoryString(t *testing.T) {
	if CatP2P.String() != "point-to-point" || CatCollective.String() != "collective" {
		t.Fatal("category labels wrong")
	}
	// Future categories must render distinctly, not collapse into one
	// shared "unknown" label.
	if got := Category(99).String(); got != "category(99)" {
		t.Fatalf("future category label = %q, want category(99)", got)
	}
	if Category(99).String() == Category(98).String() {
		t.Fatal("two unlabeled categories rendered identically")
	}
	// Every defined category has a real label.
	for c := Category(0); c < numCategories; c++ {
		if strings.HasPrefix(c.String(), "category(") {
			t.Fatalf("defined category %d has no label", c)
		}
	}
}

func TestStatMinMaxMean(t *testing.T) {
	p := NewProfiler()
	p.SetPhase("x")
	p.addOp(CatP2P, "send", 4*time.Millisecond, 10)
	p.addOp(CatP2P, "send", 2*time.Millisecond, 10)
	p.addOp(CatP2P, "send", 6*time.Millisecond, 10)
	s := p.Snapshot()[0].Stat
	if s.Min != 2*time.Millisecond || s.Max != 6*time.Millisecond {
		t.Fatalf("min=%v max=%v", s.Min, s.Max)
	}
	if s.MeanLatency() != 4*time.Millisecond {
		t.Fatalf("mean=%v", s.MeanLatency())
	}
	if (Stat{}).MeanLatency() != 0 {
		t.Fatal("empty stat mean must be 0")
	}
}

func TestWeightedMeanLatency(t *testing.T) {
	stats := []PhaseStat{
		{Stat: Stat{Time: 10 * time.Millisecond, Calls: 10}}, // mean 1ms
		{Stat: Stat{Time: 10 * time.Millisecond, Calls: 1}},  // mean 10ms
	}
	// Calls-weighted: 20ms / 11 calls, not the 5.5ms cell-mean average.
	want := 20 * time.Millisecond / 11
	if got := WeightedMeanLatency(stats); got != want {
		t.Fatalf("weighted mean = %v, want %v", got, want)
	}
	if WeightedMeanLatency(nil) != 0 {
		t.Fatal("empty snapshot weighted mean must be 0")
	}
}

func TestProfilerRoutesIntoRegistry(t *testing.T) {
	reg := obs.NewRegistry()
	runRanks(t, 4, func(c *Comm) {
		c.SetMetrics(reg)
		c.SetPhase("sync_weights")
		if err := c.Bcast(0, make([]float32, 16)); err != nil {
			t.Error(err)
		}
		buf := []float32{1}
		if err := c.Reduce(0, OpSum, buf); err != nil {
			t.Error(err)
		}
	})
	lat := reg.Histogram("mpi.bcast.latency_ns")
	if lat.Count() != 4 {
		t.Fatalf("bcast latency observations = %d, want 4 (one per rank)", lat.Count())
	}
	bytes := reg.Histogram("mpi.bcast.bytes")
	if bytes.Sum() != 4*64 {
		t.Fatalf("bcast bytes sum = %d, want %d", bytes.Sum(), 4*64)
	}
	if reg.Histogram("mpi.reduce.latency_ns").Count() != 4 {
		t.Fatal("reduce not routed into registry")
	}
}

func TestCodecRoundTrips(t *testing.T) {
	f32 := []float32{0, -1.5, 3.25e10}
	buf := encodeF32(f32)
	out := make([]float32, 3)
	if err := decodeF32Into(buf, out); err != nil {
		t.Fatal(err)
	}
	for i := range f32 {
		if out[i] != f32[i] {
			t.Fatalf("f32 roundtrip: %v != %v", out, f32)
		}
	}
	if err := decodeF32Into(buf[:8], out); err == nil {
		t.Fatal("expected length error")
	}
}

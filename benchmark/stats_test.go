package main

import "testing"

func TestPercentileNearestRank(t *testing.T) {
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	cases := []struct {
		p    float64
		want float64
	}{
		{50, 5}, {90, 9}, {91, 10}, {95, 10}, {100, 10}, {10, 1}, {0.1, 1},
	}
	for _, c := range cases {
		if got := percentile(ten, c.p); got != c.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of no samples = %v, want 0", got)
	}
	if got := percentile([]float64{7}, 99); got != 7 {
		t.Errorf("percentile of one sample = %v, want 7", got)
	}
}

func TestHighestSupportedPercentile(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		ok   bool
	}{
		{1000, 99, true}, // rank 990 leaves exactly 10 beyond; p99.9 leaves 1
		{999, 95, true},  // rank 990 of 999 leaves 9
		{10000, 99.9, true},
		{300, 95, true}, // the training workloads' open phase: 15 beyond p95
		{200, 95, true}, // rank 190 leaves exactly 10
		{199, 90, true}, // rank 190 leaves 9; p90's rank 180 leaves 19
		{20, 50, true},
		{19, 0, false},
	}
	for _, c := range cases {
		got, ok := highestSupported(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("highestSupported(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
}

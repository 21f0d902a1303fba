package main

import (
	"errors"
	"testing"
	"time"
)

// fakeClock is a manual clock: Sleep advances it, nothing else does.
type fakeClock struct {
	now    time.Time
	sleeps []time.Duration
}

func (c *fakeClock) Now() time.Time { return c.now }
func (c *fakeClock) Sleep(d time.Duration) {
	c.sleeps = append(c.sleeps, d)
	c.now = c.now.Add(d)
}

func TestOpenLoopDueTimesAndLateness(t *testing.T) {
	start := time.Unix(1000, 0)
	clk := &fakeClock{now: start}
	sched := &openSchedule{start: start, interval: 10 * ms, n: 5}

	// Service times: request 1 stalls for 25 ms, which makes requests 2
	// and 3 leave late; request 4 is back on schedule.
	service := []time.Duration{2 * ms, 25 * ms, 2 * ms, 2 * ms, 2 * ms}
	boom := errors.New("shed")
	var sentAt []time.Duration
	samples := openWorker(clk, sched, func(i int) error {
		sentAt = append(sentAt, clk.now.Sub(start))
		clk.now = clk.now.Add(service[i])
		if i == 3 {
			return boom
		}
		return nil
	})

	if len(samples) != 5 {
		t.Fatalf("%d samples, want 5", len(samples))
	}
	// Due times are 0, 10, 20, 30, 40 ms whatever the service times were.
	wantSent := []time.Duration{0, 10 * ms, 35 * ms, 37 * ms, 40 * ms}
	wantLate := []time.Duration{0, 0, 15 * ms, 7 * ms, 0}
	wantLat := []time.Duration{2 * ms, 25 * ms, 17 * ms, 9 * ms, 2 * ms} // from the due time
	for i, s := range samples {
		if s.index != i {
			t.Errorf("sample %d has index %d", i, s.index)
		}
		if sentAt[i] != wantSent[i] {
			t.Errorf("request %d sent at %v, want %v", i, sentAt[i], wantSent[i])
		}
		if s.late != wantLate[i] {
			t.Errorf("request %d late by %v, want %v", i, s.late, wantLate[i])
		}
		if s.lat != wantLat[i] {
			t.Errorf("request %d latency %v, want %v", i, s.lat, wantLat[i])
		}
	}
	if samples[3].err != boom || samples[2].err != nil {
		t.Errorf("errors not kept with their requests: %v, %v", samples[2].err, samples[3].err)
	}
	// The worker slept only when it was ahead of the schedule.
	wantSleeps := []time.Duration{8 * ms, 1 * ms}
	if len(clk.sleeps) != len(wantSleeps) {
		t.Fatalf("sleeps = %v, want %v", clk.sleeps, wantSleeps)
	}
	for i, d := range wantSleeps {
		if clk.sleeps[i] != d {
			t.Errorf("sleep %d = %v, want %v", i, clk.sleeps[i], d)
		}
	}
	if _, _, ok := sched.take(); ok {
		t.Error("schedule handed out a sixth request")
	}
}

func TestRequestMix(t *testing.T) {
	pool := &requestPool{single: make([]request, 4), multi: make([]request, 2)}
	multis := 0
	for i := 0; i < 64; i++ {
		req := pool.pick(i)
		fromMulti := req == &pool.multi[0] || req == &pool.multi[1]
		if fromMulti != isMulti(i) || isMulti(i) != (i%8 == 7) {
			t.Errorf("request %d: multi=%v, want %v", i, fromMulti, i%8 == 7)
		}
		if fromMulti {
			multis++
		}
	}
	if multis != 8 {
		t.Errorf("%d multi-instance requests in 64, want 8", multis)
	}
	// Some verified request is a multi-instance one.
	found := false
	for i := verifyPhase; i < 1000; i += verifyEvery {
		found = found || isMulti(i)
	}
	if !found {
		t.Error("no sampled request carries several instances")
	}
}

func TestRequestCheck(t *testing.T) {
	req := request{scores: [][]float32{{1, 3, 2}}, classes: []int{1}}
	cases := []struct {
		name, body string
		ok         bool
	}{
		{"exact", `{"scores":[[1,3,2]],"classes":[1]}`, true},
		{"within tolerance", `{"scores":[[1.00001,3,2]],"classes":[1]}`, true},
		{"wrong score", `{"scores":[[1.01,3,2]],"classes":[1]}`, false},
		{"wrong class", `{"scores":[[1,3,2]],"classes":[2]}`, false},
		{"missing instance", `{"scores":[],"classes":[]}`, false},
		{"short row", `{"scores":[[1,3]],"classes":[1]}`, false},
		{"not json", `oops`, false},
	}
	for _, c := range cases {
		if err := req.check([]byte(c.body)); (err == nil) != c.ok {
			t.Errorf("%s: check = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

func TestWindowedPercentileShrugsOffOneStall(t *testing.T) {
	// 5 windows of 100 requests: 1-instance requests take 3 ms, every
	// eighth (8 instances) 20 ms. A stall delays requests 230–289.
	var clean, stalled phaseResult
	for i := 0; i < 5*windowRequests; i++ {
		lat := 3 * ms
		if isMulti(i) {
			lat = 20 * ms
		}
		clean.samples = append(clean.samples, sample{index: i, lat: lat})
		if i >= 230 && i < 290 {
			lat += time.Duration(290-i) * 10 * ms
		}
		stalled.samples = append(stalled.samples, sample{index: i, lat: lat})
	}
	for _, pct := range []float64{50, 95} {
		want := windowedPercentile(clean, pct)
		if got := windowedPercentile(stalled, pct); got != want {
			t.Errorf("p%g with a stall in one window = %v ms, without = %v ms", pct, got, want)
		}
	}
	if got := windowedPercentile(clean, 95); got != 20 {
		t.Errorf("p95 = %v ms, want 20: the 6th slowest of 100 is an 8-instance request", got)
	}
	whole := sortedCopy(stalled.latencies(anyRequest))
	if got := percentile(whole, 95); got <= 20 {
		t.Errorf("whole-phase p95 = %v ms: the test's stall is too small to matter", got)
	}

	// Failed requests are left out; a short tail window is dropped.
	tail := clean
	tail.samples = append(append([]sample(nil), clean.samples...), sample{index: 500, lat: time.Second}, sample{index: 501, lat: time.Second})
	tail.samples[3].err = errors.New("shed")
	if got := windowedPercentile(tail, 95); got != 20 {
		t.Errorf("p95 with a 2-request tail window = %v ms, want 20", got)
	}
}

package obs

import (
	"io"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestTracerRingCap proves the tracer's storage is bounded: past the
// configured capacity the oldest spans are overwritten and counted.
func TestTracerRingCap(t *testing.T) {
	tr := NewTracerSize(4)
	tr.now = fakeClock(tr.epoch, time.Millisecond)
	for i := 0; i < 10; i++ {
		tr.Begin(0, "work").End()
	}
	evs := tr.Events()
	if len(evs) != 4 {
		t.Fatalf("retained %d events, want 4", len(evs))
	}
	if tr.Dropped() != 6 {
		t.Fatalf("dropped = %d, want 6", tr.Dropped())
	}
	// The survivors must be the newest four (each span consumes two
	// clock ticks: Begin and End).
	if evs[0].Start != 12*time.Millisecond {
		t.Fatalf("oldest retained start = %v, want 12ms", evs[0].Start)
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Start < evs[i-1].Start {
			t.Fatalf("ring snapshot out of order: %+v", evs)
		}
	}
}

// TestTracerDrain proves Drain hands each span to the caller exactly
// once and resets the drop counter — the contract the telemetry
// shipper's incremental flushes rely on.
func TestTracerDrain(t *testing.T) {
	tr := NewTracerSize(2)
	for i := 0; i < 3; i++ {
		tr.Begin(1, "a").End()
	}
	evs, dropped := tr.Drain()
	if len(evs) != 2 || dropped != 1 {
		t.Fatalf("drain = %d events, %d dropped; want 2, 1", len(evs), dropped)
	}
	if got := tr.Events(); len(got) != 0 {
		t.Fatalf("ring not cleared: %d events remain", len(got))
	}
	if tr.Dropped() != 0 {
		t.Fatalf("dropped counter not reset: %d", tr.Dropped())
	}
	tr.Begin(1, "b").End()
	evs, dropped = tr.Drain()
	if len(evs) != 1 || evs[0].Name != "b" || dropped != 0 {
		t.Fatalf("second drain = %+v, %d dropped", evs, dropped)
	}
	// Nil tracer drains empty.
	var nilT *Tracer
	if evs, dropped := nilT.Drain(); evs != nil || dropped != 0 {
		t.Fatal("nil tracer drain not empty")
	}
}

// mkEvent builds an event for lane-assignment tests.
func mkEvent(rank int, name string, start, dur time.Duration) Event {
	return Event{Name: name, Rank: rank, Start: start, Dur: dur}
}

// TestAssignLanes checks the lane rules: nested spans share the parent's
// lane, genuinely concurrent (partially overlapping) spans get distinct
// lanes, and sequential spans reuse lane 0.
func TestAssignLanes(t *testing.T) {
	ms := time.Millisecond
	events := []Event{
		mkEvent(0, "outer", 0, 10*ms),      // lane 0
		mkEvent(0, "inner", 2*ms, 3*ms),    // nested in outer → lane 0
		mkEvent(0, "overlap", 5*ms, 10*ms), // overlaps outer's tail → lane 1
		mkEvent(0, "later", 20*ms, ms),     // everything closed → lane 0
		mkEvent(1, "other", 0, ms),         // separate rank → its own lane 0
	}
	SortEvents(events)
	lanes := assignLanes(events)
	got := map[string]int{}
	for i, ev := range events {
		got[ev.Name] = lanes[i]
	}
	want := map[string]int{"outer": 0, "inner": 0, "overlap": 1, "later": 0, "other": 0}
	for name, lane := range want {
		if got[name] != lane {
			t.Errorf("%s on lane %d, want %d (all: %v)", name, got[name], lane, got)
		}
	}
}

// TestChromeTraceConcurrentLanes locks the satellite fix: concurrent
// spans within one rank must render on distinct tids with thread_name
// metadata, not collapse onto one track.
func TestChromeTraceConcurrentLanes(t *testing.T) {
	tr := NewTracer()
	tr.now = fakeClock(tr.epoch, time.Millisecond)
	a := tr.Begin(0, "cg_lane_a") // t=0
	b := tr.Begin(0, "cg_lane_b") // t=1, ends after a → partial overlap
	a.End()                       // t=2
	b.End()                       // t=3
	var sb strings.Builder
	if err := tr.WriteChromeTrace(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, `"tid": 1`) {
		t.Fatalf("concurrent spans share one tid:\n%s", out)
	}
	if !strings.Contains(out, `"name": "lane 1"`) {
		t.Fatalf("missing thread_name metadata for lane 1:\n%s", out)
	}
}

// TestTracerSnapshotMidFlight hammers Begin/End from many goroutines
// while Events and WriteChromeTrace snapshot concurrently; with -race
// this proves readers never tear the ring.
func TestTracerSnapshotMidFlight(t *testing.T) {
	tr := NewTracerSize(512)
	stop := make(chan struct{})
	var writers sync.WaitGroup
	for rk := 0; rk < 4; rk++ {
		writers.Add(1)
		go func(rk int) {
			defer writers.Done()
			for i := 0; i < 500; i++ {
				sp := tr.Begin(rk, "work")
				sp.End()
			}
		}(rk)
	}
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = tr.Events()
				_ = tr.WriteChromeTrace(io.Discard)
				_, _ = tr.Drain()
			}
		}
	}()
	writers.Wait()
	close(stop)
	readers.Wait()
}

// TestEventLogSince checks the cursor API: Seq advances with appends and
// EntriesSince returns exactly the new tail, tolerating ring overwrite.
func TestEventLogSince(t *testing.T) {
	l := NewEventLog(4)
	if l.Seq() != 0 {
		t.Fatalf("fresh seq = %d", l.Seq())
	}
	l.Addf(0, "e%d", 1)
	l.Addf(0, "e%d", 2)
	got, cur := l.EntriesSince(0)
	if len(got) != 2 || cur != 2 || got[0].Text != "e1" {
		t.Fatalf("since(0) = %d entries, cur %d: %+v", len(got), cur, got)
	}
	l.Addf(1, "e3")
	got, cur = l.EntriesSince(cur)
	if len(got) != 1 || got[0].Text != "e3" || cur != 3 {
		t.Fatalf("incremental read wrong: %+v cur=%d", got, cur)
	}
	// No new entries → empty, same cursor.
	if got, cur2 := l.EntriesSince(cur); len(got) != 0 || cur2 != cur {
		t.Fatalf("idle read returned %d entries", len(got))
	}
	// Overflow the ring: entries beyond capacity are silently missing.
	for i := 4; i <= 10; i++ {
		l.Addf(0, "e%d", i)
	}
	got, cur = l.EntriesSince(cur)
	if len(got) != 4 || got[0].Text != "e7" || got[3].Text != "e10" || cur != 10 {
		t.Fatalf("overflow read = %+v cur=%d", got, cur)
	}
	// Nil log: always empty, cursor 0.
	var nilL *EventLog
	if got, cur := nilL.EntriesSince(5); got != nil || cur != 0 {
		t.Fatal("nil log EntriesSince not empty")
	}
}

// TestEventLogConcurrent appends from many goroutines while readers
// drain via Entries and EntriesSince; with -race this proves the log is
// safe for the telemetry plane's concurrent shipper + HTTP readers.
func TestEventLogConcurrent(t *testing.T) {
	l := NewEventLog(64)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				l.Addf(w, "msg %d", i)
			}
		}(w)
	}
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		var cursor int64
		for {
			select {
			case <-stop:
				return
			default:
				_ = l.Entries()
				_, cursor = l.EntriesSince(cursor)
				_ = l.Len()
			}
		}
	}()
	wg.Wait()
	close(stop)
	readers.Wait()
	if l.Seq() != 4*300 {
		t.Fatalf("seq = %d, want %d", l.Seq(), 4*300)
	}
	if l.Len() != 64 {
		t.Fatalf("len = %d, want 64", l.Len())
	}
}

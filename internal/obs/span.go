package obs

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Event is one completed span: a named interval on a rank's track.
// Start is relative to the tracer's epoch.
type Event struct {
	Name  string
	Rank  int
	Start time.Duration
	Dur   time.Duration
}

// DefaultTracerCap bounds the spans a NewTracer retains. At ~48 bytes
// per Event the default ring tops out around 12 MiB per rank, after
// which the oldest spans are overwritten (and counted by Dropped) —
// long elastic runs must never OOM the tracer.
const DefaultTracerCap = 1 << 18

// Tracer collects spans from any number of goroutines ("ranks" of the
// in-process fabric or threads of one real rank) and exports them as
// Chrome trace-event JSON. Storage is a bounded ring: when the capacity
// is reached the oldest span is dropped and the Dropped counter
// incremented, so tracing a long run costs bounded memory. The nil
// Tracer is a valid, disabled tracer: Begin returns a no-op Span
// without reading the clock or allocating.
type Tracer struct {
	now   func() time.Time // clock; replaceable by tests
	epoch time.Time
	cap   int

	mu      sync.Mutex
	events  []Event // ring storage, len <= cap
	start   int     // index of the oldest event when the ring is full
	dropped atomic.Int64
}

// NewTracer returns a tracer with the default span capacity whose epoch
// (trace time zero) is now.
func NewTracer() *Tracer { return NewTracerSize(0) }

// NewTracerSize returns a tracer retaining at most size spans
// (DefaultTracerCap when size <= 0); the oldest spans are dropped —
// and counted — once the ring fills.
func NewTracerSize(size int) *Tracer {
	if size <= 0 {
		size = DefaultTracerCap
	}
	t := &Tracer{now: time.Now, cap: size}
	t.epoch = t.now()
	return t
}

// Epoch returns the tracer's trace-time zero in wall-clock terms — the
// reference the telemetry plane rebases each rank's spans by; nil-safe
// (returns the zero time).
func (t *Tracer) Epoch() time.Time {
	if t == nil {
		return time.Time{}
	}
	return t.epoch
}

// Dropped returns the number of spans overwritten by the ring's drop
// policy since construction (or the last Drain); nil-safe.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	return t.dropped.Load()
}

// Span is an open interval returned by Begin; call End exactly once.
// The zero Span (from a nil tracer) is a valid no-op.
type Span struct {
	t     *Tracer
	name  string
	rank  int
	start time.Time
}

// Begin opens a span named name on the given rank's track; nil-safe.
func (t *Tracer) Begin(rank int, name string) Span {
	if t == nil {
		return Span{}
	}
	return Span{t: t, name: name, rank: rank, start: t.now()}
}

// End closes the span and records it; no-op on a zero Span.
func (s Span) End() {
	if s.t == nil {
		return
	}
	end := s.t.now()
	ev := Event{
		Name:  s.name,
		Rank:  s.rank,
		Start: s.start.Sub(s.t.epoch),
		Dur:   end.Sub(s.start),
	}
	t := s.t
	t.mu.Lock()
	if len(t.events) < t.cap {
		t.events = append(t.events, ev)
	} else {
		t.events[t.start] = ev
		t.start = (t.start + 1) % t.cap
		t.dropped.Add(1)
	}
	t.mu.Unlock()
}

// snapshotLocked copies the retained events oldest-first; callers hold mu.
func (t *Tracer) snapshotLocked() []Event {
	out := make([]Event, 0, len(t.events))
	out = append(out, t.events[t.start:]...)
	out = append(out, t.events[:t.start]...)
	return out
}

// Events returns a copy of the recorded spans sorted by start time then
// rank; nil-safe (returns nil).
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := t.snapshotLocked()
	t.mu.Unlock()
	SortEvents(out)
	return out
}

// Drain returns the retained spans (sorted like Events) and clears the
// ring, so the caller — the telemetry merger's per-iteration Collect —
// receives each span exactly once. The dropped counter is reset too and
// its pre-drain value returned; nil-safe.
func (t *Tracer) Drain() ([]Event, int64) {
	if t == nil {
		return nil, 0
	}
	t.mu.Lock()
	out := t.snapshotLocked()
	t.events = t.events[:0]
	t.start = 0
	dropped := t.dropped.Swap(0)
	t.mu.Unlock()
	SortEvents(out)
	return out, dropped
}

// SortEvents orders events by start time, then longer-first (so a parent
// span precedes children opening at the same instant), then rank.
func SortEvents(out []Event) {
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		if out[i].Dur != out[j].Dur {
			return out[i].Dur > out[j].Dur
		}
		return out[i].Rank < out[j].Rank
	})
}

// Ranks returns the distinct ranks that recorded at least one span, in
// ascending order; nil-safe.
func (t *Tracer) Ranks() []int {
	seen := map[int]bool{}
	for _, ev := range t.Events() {
		seen[ev.Rank] = true
	}
	ranks := make([]int, 0, len(seen))
	for r := range seen {
		ranks = append(ranks, r)
	}
	sort.Ints(ranks)
	return ranks
}

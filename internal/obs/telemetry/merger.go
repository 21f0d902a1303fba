package telemetry

import (
	"io"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
)

// Merger is the master-side aggregation point. Every rank's observer
// is bound into it (Bind) before the rank starts, and Collect drains
// each bound observer in place: spans are rebased onto the master's
// timebase by the difference of the two tracer epochs — exact, since
// every rank shares the master's process and clock. It serves the
// merged result — a single Chrome/Perfetto trace, per-rank metric
// snapshots, and a merged event log. Safe for concurrent use (the HTTP
// endpoint scrapes it while the training loop collects). The nil Merger
// is a valid no-op.
type Merger struct {
	epoch time.Time // timebase zero: the master tracer's epoch
	cap   int

	mu       sync.Mutex
	events   []obs.Event // merged span ring, len <= cap
	start    int
	dropped  int64                // spans overwritten by the merged ring
	latest   map[int]obs.Snapshot // rank → newest metrics snapshot
	prev     map[int]obs.Snapshot // rank → snapshot before latest (for deltas)
	rankDrop map[int]int64        // rank → spans dropped at the source tracer
	entries  []obs.LogEntry       // merged event-log ring
	entStart int
	bound    map[int]*boundRank // rank → its observer, read in place
}

// boundRank is one bound observer and how far into its event log the
// merger has read.
type boundRank struct {
	ob     *obs.Observer
	cursor int64
}

// NewMerger builds a merger whose merged timebase is zero at epoch,
// retaining at most cap merged spans (DefaultMergedCap when cap <= 0).
func NewMerger(epoch time.Time, cap int) *Merger {
	if cap <= 0 {
		cap = DefaultMergedCap
	}
	return &Merger{
		epoch:    epoch,
		cap:      cap,
		latest:   map[int]obs.Snapshot{},
		prev:     map[int]obs.Snapshot{},
		rankDrop: map[int]int64{},
		bound:    map[int]*boundRank{},
	}
}

// Bind attaches rank's observer: every Collect drains its tracer and
// event log, and Snapshots (and therefore /metrics) re-snapshots its
// registry at read time; nil-safe.
func (m *Merger) Bind(rank int, ob *obs.Observer) {
	if m == nil || ob == nil {
		return
	}
	m.mu.Lock()
	m.bound[rank] = &boundRank{ob: ob}
	m.mu.Unlock()
}

// Collect drains every bound rank in rank order — the spans its tracer
// recorded and the event-log lines appended since the previous Collect,
// plus a cumulative registry snapshot — into the merged state; nil-safe.
func (m *Merger) Collect() {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	ranks := make([]int, 0, len(m.bound))
	for r := range m.bound {
		ranks = append(ranks, r)
	}
	sort.Ints(ranks)
	for _, r := range ranks {
		br := m.bound[r]
		b := bundle{Rank: r, Epoch: br.ob.Tracer().Epoch(), Metrics: br.ob.Registry().Snapshot()}
		b.Spans, b.Dropped = br.ob.Tracer().Drain()
		b.Events, br.cursor = br.ob.EventLog().EntriesSince(br.cursor)
		m.ingestLocked(b)
	}
}

// appendEventLocked pushes one merged span, overwriting the oldest at
// capacity; callers hold mu.
func (m *Merger) appendEventLocked(ev obs.Event) {
	if len(m.events) < m.cap {
		m.events = append(m.events, ev)
		return
	}
	m.events[m.start] = ev
	m.start = (m.start + 1) % m.cap
	m.dropped++
}

// appendEntryLocked pushes one merged log entry, ring-capped at
// DefaultEntryCap; callers hold mu.
func (m *Merger) appendEntryLocked(e obs.LogEntry) {
	if len(m.entries) < DefaultEntryCap {
		m.entries = append(m.entries, e)
		return
	}
	m.entries[m.entStart] = e
	m.entStart = (m.entStart + 1) % DefaultEntryCap
}

// ingest merges one bundle under the lock; Collect's test seam.
func (m *Merger) ingest(b bundle) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.ingestLocked(b)
}

// ingestLocked merges one rank's bundle: spans are rebased from the
// rank's epoch onto the master timebase, the rank's metrics snapshot
// replaces the previous one (which is kept for flight-recorder deltas),
// and event-log lines join the merged log as stamped; callers hold mu.
func (m *Merger) ingestLocked(b bundle) {
	rebase := b.Epoch.Sub(m.epoch)
	for _, ev := range b.Spans {
		ev.Start += rebase
		m.appendEventLocked(ev)
	}
	if b.Dropped > 0 {
		m.rankDrop[b.Rank] += b.Dropped
	}
	if prev, ok := m.latest[b.Rank]; ok {
		m.prev[b.Rank] = prev
	}
	m.latest[b.Rank] = b.Metrics
	for _, e := range b.Events {
		m.appendEntryLocked(e)
	}
}

// Events returns the merged spans sorted by start time; nil-safe.
func (m *Merger) Events() []obs.Event {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	out := make([]obs.Event, 0, len(m.events))
	out = append(out, m.events[m.start:]...)
	out = append(out, m.events[:m.start]...)
	m.mu.Unlock()
	obs.SortEvents(out)
	return out
}

// WriteChromeTrace writes the merged timeline as Chrome trace-event
// JSON with one process track per rank; nil-safe (empty trace).
func (m *Merger) WriteChromeTrace(w io.Writer) error {
	return obs.WriteChromeEvents(w, m.Events())
}

// Ranks returns the ranks that are bound or have been collected,
// ascending; nil-safe.
func (m *Merger) Ranks() []int {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	seen := map[int]bool{}
	for r := range m.latest {
		seen[r] = true
	}
	for r := range m.bound {
		seen[r] = true
	}
	m.mu.Unlock()
	ranks := make([]int, 0, len(seen))
	for r := range seen {
		ranks = append(ranks, r)
	}
	sort.Ints(ranks)
	return ranks
}

// Snapshots returns the newest metrics snapshot per rank. Bound ranks
// are re-snapshot live at call time; others return their last collected
// snapshot; nil-safe.
func (m *Merger) Snapshots() map[int]obs.Snapshot {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	out := make(map[int]obs.Snapshot, len(m.latest))
	for r, s := range m.latest {
		out[r] = s
	}
	live := make(map[int]*obs.Registry, len(m.bound))
	for r, br := range m.bound {
		live[r] = br.ob.Registry()
	}
	m.mu.Unlock()
	// Snapshot live registries outside the merger lock: Registry has its
	// own lock and scrapes must not block collection.
	for r, reg := range live {
		out[r] = reg.Snapshot()
	}
	return out
}

// Entries returns the merged event-log lines sorted by time; nil-safe.
func (m *Merger) Entries() []obs.LogEntry {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	out := make([]obs.LogEntry, 0, len(m.entries))
	out = append(out, m.entries[m.entStart:]...)
	out = append(out, m.entries[:m.entStart]...)
	m.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool { return out[i].Time.Before(out[j].Time) })
	return out
}

// RankDelta is one rank's metric movement between its last two collected
// snapshots — what the flight recorder reports as "what was this rank
// doing right before the fault".
type RankDelta struct {
	// Rank is the reporting rank.
	Rank int `json:"rank"`
	// Counters holds counter increments since the previous snapshot.
	Counters []obs.CounterSnap `json:"counters,omitempty"`
	// Gauges holds the latest gauge values.
	Gauges []obs.GaugeSnap `json:"gauges,omitempty"`
}

// Deltas computes every collected rank's counter movement between its
// two most recent snapshots (the full latest value when only one
// snapshot has been taken) plus its latest gauges, sorted by rank; nil-safe.
func (m *Merger) Deltas() []RankDelta {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	ranks := make([]int, 0, len(m.latest))
	for r := range m.latest {
		ranks = append(ranks, r)
	}
	sort.Ints(ranks)
	out := make([]RankDelta, 0, len(ranks))
	for _, r := range ranks {
		cur, was := m.latest[r], m.prev[r]
		prevVal := map[string]int64{}
		for _, c := range was.Counters {
			prevVal[c.Name] = c.Value
		}
		d := RankDelta{Rank: r, Gauges: cur.Gauges}
		for _, c := range cur.Counters {
			if delta := c.Value - prevVal[c.Name]; delta != 0 {
				d.Counters = append(d.Counters, obs.CounterSnap{Name: c.Name, Value: delta})
			}
		}
		out = append(out, d)
	}
	return out
}

// Dropped returns spans lost to the merged ring plus spans dropped at
// the source tracers, as (merged, perRank); nil-safe.
func (m *Merger) Dropped() (merged int64, perRank map[int]int64) {
	if m == nil {
		return 0, nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	perRank = make(map[int]int64, len(m.rankDrop))
	for r, n := range m.rankDrop {
		perRank[r] = n
	}
	return m.dropped, perRank
}

// Epoch returns the merged timebase's zero point; nil-safe.
func (m *Merger) Epoch() time.Time {
	if m == nil {
		return time.Time{}
	}
	return m.epoch
}

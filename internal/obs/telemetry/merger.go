package telemetry

import (
	"io"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
)

// Merger is the master-side aggregation point: it ingests WorkerBundles
// (and the master's own drained observer), rebases every span onto the
// master's timebase by the difference of the two tracer epochs — exact,
// since every rank shares the master's process and clock — and serves
// the merged result — a single Chrome/Perfetto trace, per-rank metric
// snapshots, and a merged event log. Safe for concurrent use (the HTTP
// endpoint scrapes it while the training loop ingests). The nil Merger
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
	local    map[int]*obs.Registry // live local registries (BindLocal)
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
		local:    map[int]*obs.Registry{},
	}
}

// BindLocal attaches a live registry for rank: Snapshots (and therefore
// /metrics) re-snapshot it at read time instead of waiting for the next
// ingested bundle; nil-safe.
func (m *Merger) BindLocal(rank int, r *obs.Registry) {
	if m == nil || r == nil {
		return
	}
	m.mu.Lock()
	m.local[rank] = r
	m.mu.Unlock()
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

// Ingest merges one shipped bundle: spans are rebased from the
// shipper's epoch onto the master timebase, the rank's metrics snapshot
// replaces the previous one (which is kept for flight-recorder deltas),
// and event-log lines join the merged log as stamped; nil-safe.
func (m *Merger) Ingest(b WorkerBundle) {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
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

// Ranks returns the ranks that have shipped at least one bundle (or are
// locally bound), ascending; nil-safe.
func (m *Merger) Ranks() []int {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	seen := map[int]bool{}
	for r := range m.latest {
		seen[r] = true
	}
	for r := range m.local {
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

// Snapshots returns the newest metrics snapshot per rank. Ranks bound
// with BindLocal are re-snapshot live at call time; shipped ranks
// return their last ingested snapshot; nil-safe.
func (m *Merger) Snapshots() map[int]obs.Snapshot {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	out := make(map[int]obs.Snapshot, len(m.latest))
	for r, s := range m.latest {
		out[r] = s
	}
	live := make(map[int]*obs.Registry, len(m.local))
	for r, reg := range m.local {
		live[r] = reg
	}
	m.mu.Unlock()
	// Snapshot live registries outside the merger lock: Registry has its
	// own lock and scrapes must not block ingestion.
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

// RankDelta is one rank's metric movement between its last two shipped
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

// Deltas computes every shipped rank's counter movement between its two
// most recent snapshots (the full latest value when only one snapshot
// has arrived) plus its latest gauges, sorted by rank; nil-safe.
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

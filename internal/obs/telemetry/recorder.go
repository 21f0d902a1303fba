package telemetry

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
)

// FlightBundle is the flight recorder's post-mortem artifact: the last
// window of merged spans and event-log lines plus every rank's metric
// movement, frozen at the moment of a fault. It is attached to the
// run's FaultReport and rendered by report.FaultTable.
type FlightBundle struct {
	// Reason names the trigger: "eviction rank 2", "watchdog",
	// "surrender", "master error: ...".
	Reason string `json:"reason"`
	// CapturedAt is the master wall-clock capture time.
	CapturedAt time.Time `json:"captured_at"`
	// Window is the lookback the spans/events were filtered with.
	Window time.Duration `json:"window_ns"`
	// Ranks lists every rank with data in the bundle.
	Ranks []int `json:"ranks"`
	// Spans are the merged-timebase spans whose intervals end inside
	// the window (so pre-eviction spans from a dead rank survive).
	Spans []obs.Event `json:"spans"`
	// Events are the merged event-log lines inside the window.
	Events []obs.LogEntry `json:"events"`
	// Deltas is each rank's metric movement between its last two
	// collected snapshots.
	Deltas []RankDelta `json:"metric_deltas"`
	// DroppedSpans counts spans lost to ring overwrites anywhere in the
	// pipeline — a non-zero value flags an incomplete picture.
	DroppedSpans int64 `json:"dropped_spans"`
}

// WriteJSON writes the bundle as indented JSON; nil-safe (writes null).
func (b *FlightBundle) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(b)
}

// Recorder is the fault flight recorder: Capture freezes the merger's
// recent state into a FlightBundle when something goes wrong. The nil
// Recorder is a valid no-op (Capture returns nil).
type Recorder struct {
	window time.Duration

	mu   sync.Mutex
	last *FlightBundle
}

// NewRecorder builds a recorder with the given lookback window
// (DefaultWindow when w <= 0).
func NewRecorder(w time.Duration) *Recorder {
	if w <= 0 {
		w = DefaultWindow
	}
	return &Recorder{window: w}
}

// Capture freezes the merger's last window into a FlightBundle tagged
// with reason, stores it as Last, and returns it; nil-safe (returns
// nil when either receiver or merger is nil). The span filter keeps
// every span whose interval ends inside the window measured back from
// the newest merged span — so a rank evicted moments ago contributes
// the spans it recorded before dying.
func (r *Recorder) Capture(m *Merger, reason string) *FlightBundle {
	if r == nil || m == nil {
		return nil
	}
	all := m.Events()
	var latest time.Duration
	for _, ev := range all {
		if end := ev.Start + ev.Dur; end > latest {
			latest = end
		}
	}
	cutoff := latest - r.window
	b := &FlightBundle{
		Reason:     reason,
		CapturedAt: time.Now(),
		Window:     r.window,
		Deltas:     m.Deltas(),
	}
	seen := map[int]bool{}
	for _, ev := range all {
		if ev.Start+ev.Dur >= cutoff {
			b.Spans = append(b.Spans, ev)
			seen[ev.Rank] = true
		}
	}
	wallCutoff := m.Epoch().Add(cutoff)
	for _, e := range m.Entries() {
		if !e.Time.Before(wallCutoff) {
			b.Events = append(b.Events, e)
			if e.Rank >= 0 {
				seen[e.Rank] = true
			}
		}
	}
	for _, d := range b.Deltas {
		seen[d.Rank] = true
	}
	for rank := range seen {
		b.Ranks = append(b.Ranks, rank)
	}
	sort.Ints(b.Ranks)
	merged, perRank := m.Dropped()
	b.DroppedSpans = merged
	for _, n := range perRank {
		b.DroppedSpans += n
	}
	r.mu.Lock()
	r.last = b
	r.mu.Unlock()
	return b
}

// Last returns the most recent captured bundle, or nil; nil-safe.
func (r *Recorder) Last() *FlightBundle {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.last
}

// Package telemetry is the distributed half of the observability layer:
// it reads every rank's spans, metrics and event-log lines in place and
// turns them into one timeline, a live monitoring endpoint, and a
// post-mortem flight recorder.
//
// Every rank runs in the master's process (the in-process fabric or
// localhost TCP), so all ranks read one clock and the timeline needs
// no clock-offset estimate: a rank's spans move onto the master's
// timebase by the exact difference of the two tracer epochs.
//
// Three pillars:
//
//   - cross-rank trace aggregation: each rank's observer is bound into
//     a master-side Merger before the rank starts, and the master
//     drains every bound observer with Merger.Collect at iteration
//     boundaries — a function call, off the collective critical path,
//     with no message — into one Chrome/Perfetto trace with per-rank
//     process tracks on the master's timebase;
//   - a live monitoring endpoint (Server): Prometheus text exposition at
//     /metrics, the merged trace so far at /trace, elastic worker state
//     at /healthz, and net/http/pprof;
//   - a fault flight recorder (Recorder): on eviction, watchdog trip or
//     surrender, the last window of spans, event-log lines and metric
//     deltas from every bound rank — an evicted one included — is
//     frozen into a FlightBundle attached to the run's FaultReport.
//
// Like package obs, everything is nil-safe: a nil *Plane, *Merger,
// *Recorder or *Health turns every method into a no-op, so the runtime
// threads one pointer around and pays nothing when the plane is
// disabled. Plane's fields are unexported, so code outside this package
// reaches its components only through the nil-safe accessors.
package telemetry

import (
	"time"

	"repro/internal/obs"
)

// The plane's fixed sizes and bounds. Every rank runs in one process,
// so nothing here varies by deployment.
const (
	// DefaultWindow is the flight recorder's lookback.
	DefaultWindow = 10 * time.Second
	// DefaultMergedCap bounds the master's merged span ring.
	DefaultMergedCap = 1 << 19
	// DefaultEntryCap bounds the master's merged event-log ring.
	DefaultEntryCap = 1024
)

// Plane bundles the master-side telemetry components the runtime
// threads through a session. The nil Plane is a valid, disabled plane.
type Plane struct {
	traces *Merger   // every rank's observer, merged onto one timebase
	flight *Recorder // post-mortem bundles
	status *Health   // live state surfaced at /healthz
}

// NewPlane builds a telemetry plane whose merged timebase is zero at
// epoch (pass the master tracer's Epoch so local spans need no rebase).
func NewPlane(epoch time.Time) *Plane {
	return &Plane{
		traces: NewMerger(epoch, DefaultMergedCap),
		flight: NewRecorder(DefaultWindow),
		status: NewHealth(),
	}
}

// Merger returns the trace/metric merger, or nil when the plane is
// disabled; nil-safe.
func (p *Plane) Merger() *Merger {
	if p == nil {
		return nil
	}
	return p.traces
}

// Recorder returns the fault flight recorder, or nil; nil-safe.
func (p *Plane) Recorder() *Recorder {
	if p == nil {
		return nil
	}
	return p.flight
}

// Health returns the live status tracker, or nil; nil-safe.
func (p *Plane) Health() *Health {
	if p == nil {
		return nil
	}
	return p.status
}

// bundle is what one collection reads off one rank: everything it
// recorded since the previous collection.
type bundle struct {
	// Rank is the bound rank.
	Rank int
	// Epoch is the rank tracer's trace-time zero. Every rank shares the
	// master's clock, so the merger rebases Spans by the difference of
	// the two epochs alone.
	Epoch time.Time
	// Spans are the drained spans, Start relative to Epoch.
	Spans []obs.Event
	// Dropped counts spans the rank's tracer ring overwrote since the
	// previous collection.
	Dropped int64
	// Metrics is a full registry snapshot (cumulative, not a delta).
	Metrics obs.Snapshot
	// Events are the event-log lines appended since the previous
	// collection.
	Events []obs.LogEntry
}

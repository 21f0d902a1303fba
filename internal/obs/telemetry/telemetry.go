// Package telemetry is the distributed half of the observability layer:
// it moves per-rank spans, metrics and event-log lines to the master and
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
//   - cross-rank trace aggregation: workers ship span/metric/event
//     bundles to the master on mpi.TagTelemetry at every iteration
//     boundary — off the collective critical path — and a master-side
//     Merger emits one Chrome/Perfetto trace with per-rank process
//     tracks on the master's timebase;
//   - a live monitoring endpoint (Server): Prometheus text exposition at
//     /metrics, the merged trace so far at /trace, elastic worker state
//     at /healthz, and net/http/pprof;
//   - a fault flight recorder (Recorder): on eviction, watchdog trip or
//     surrender, the last window of spans, event-log lines and metric
//     deltas from every reachable rank is frozen into a FlightBundle
//     attached to the run's FaultReport.
//
// Like package obs, everything is nil-safe: a nil *Plane, *Merger,
// *Recorder, *Shipper or *Health turns every method into a no-op, so
// the runtime threads one pointer around and pays nothing when the
// plane is disabled. The obsnilguard analyzer enforces that code
// outside the obs tree reaches Plane components through the nil-safe
// accessors rather than the struct fields.
package telemetry

import (
	"bytes"
	"encoding/gob"
	"time"

	"repro/internal/mpi"
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
	// DefaultDeadline bounds each per-worker telemetry receive.
	DefaultDeadline = 5 * time.Second
)

// Plane bundles the master-side telemetry components the runtime
// threads through a session. The nil Plane is a valid, disabled plane.
type Plane struct {
	// Traces merges shipped span bundles onto one timebase; reach it
	// through Merger outside the obs tree.
	Traces *Merger
	// Flight captures post-mortem bundles; reach it through Recorder.
	Flight *Recorder
	// Status is the live state surfaced at /healthz; reach it through
	// Health.
	Status *Health
}

// NewPlane builds a telemetry plane whose merged timebase is zero at
// epoch (pass the master tracer's Epoch so local spans need no rebase).
func NewPlane(epoch time.Time) *Plane {
	return &Plane{
		Traces: NewMerger(epoch, DefaultMergedCap),
		Flight: NewRecorder(DefaultWindow),
		Status: NewHealth(),
	}
}

// Merger returns the trace/metric merger, or nil when the plane is
// disabled; nil-safe.
func (p *Plane) Merger() *Merger {
	if p == nil {
		return nil
	}
	return p.Traces
}

// Recorder returns the fault flight recorder, or nil; nil-safe.
func (p *Plane) Recorder() *Recorder {
	if p == nil {
		return nil
	}
	return p.Flight
}

// Health returns the live status tracker, or nil; nil-safe.
func (p *Plane) Health() *Health {
	if p == nil {
		return nil
	}
	return p.Status
}

// WorkerBundle is one telemetry shipment: everything a rank drained
// since its previous flush. It crosses the wire gob-encoded on
// mpi.TagTelemetry.
type WorkerBundle struct {
	// Rank is the shipping rank.
	Rank int
	// Epoch is the shipper tracer's trace-time zero. Every rank shares
	// the master's clock, so the merger rebases Spans by the difference
	// of the two epochs alone.
	Epoch time.Time
	// Spans are the drained spans, Start relative to Epoch.
	Spans []obs.Event
	// Dropped counts spans the rank's tracer ring overwrote since the
	// previous flush.
	Dropped int64
	// Metrics is a full registry snapshot (cumulative, not a delta).
	Metrics obs.Snapshot
	// Events are the event-log lines appended since the previous flush,
	// stamped with the shipper's wall clock.
	Events []obs.LogEntry
}

// Shipper is the worker-side half of the plane: it drains a rank's
// Observer into WorkerBundles. The nil Shipper encodes empty bundles.
type Shipper struct {
	rank      int
	ob        *obs.Observer
	logCursor int64
}

// NewShipper wraps rank's observer for telemetry shipping.
func NewShipper(rank int, ob *obs.Observer) *Shipper {
	return &Shipper{rank: rank, ob: ob}
}

// Bundle drains the observer into a WorkerBundle: spans recorded and
// event-log lines appended since the previous Bundle, plus a cumulative
// metrics snapshot; nil-safe (returns an empty bundle).
func (s *Shipper) Bundle() WorkerBundle {
	if s == nil {
		return WorkerBundle{Rank: -1}
	}
	b := WorkerBundle{Rank: s.rank, Epoch: s.ob.Tracer().Epoch()}
	b.Spans, b.Dropped = s.ob.Tracer().Drain()
	b.Metrics = s.ob.Registry().Snapshot()
	b.Events, s.logCursor = s.ob.EventLog().EntriesSince(s.logCursor)
	return b
}

// Encode drains the observer (see Bundle) and gob-encodes the result
// for the wire; nil-safe.
func (s *Shipper) Encode() ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(s.Bundle()); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Ship drains the observer and sends the encoded bundle to dst on
// mpi.TagTelemetry; nil-safe (a nil Shipper still sends an empty
// bundle, keeping the master's per-worker receive matched).
func (s *Shipper) Ship(c *mpi.Comm, dst int) error {
	payload, err := s.Encode()
	if err != nil {
		return err
	}
	return c.SendBytes(dst, mpi.TagTelemetry, payload)
}

// DecodeBundle decodes one wire shipment.
func DecodeBundle(data []byte) (WorkerBundle, error) {
	var b WorkerBundle
	err := gob.NewDecoder(bytes.NewReader(data)).Decode(&b)
	return b, err
}

// Package obsnilguard is a lint fixture seeding unguarded
// Metrics/Trace/Events field access on a possibly-nil *obs.Observer,
// beside the guarded forms and accessors the analyzer accepts.
package obsnilguard

import (
	"repro/internal/obs"
)

func unguarded(ob *obs.Observer) {
	ob.Metrics.Counter("steps").Inc() // want: unguarded Metrics access
	_ = ob.Trace                      // want: unguarded Trace access
}

func guardedInline(ob *obs.Observer) {
	if ob != nil {
		ob.Metrics.Counter("steps").Inc() // guarded: not flagged
	}
	if ob != nil && ob.Metrics != nil { // && chain still guards: not flagged
		ob.Metrics.Counter("steps").Inc()
	}
}

func disabled(ob *obs.Observer) bool {
	return ob == nil || ob.Metrics == nil // short-circuit ||: not flagged
}

func guardedEarlyExit(ob *obs.Observer) {
	if ob == nil {
		return
	}
	ob.Trace.Begin(0, "cg").End() // early exit above: not flagged
}

func guardedElse(ob *obs.Observer) {
	if ob == nil {
		noop()
	} else {
		_ = ob.Metrics // else branch of == nil: not flagged
	}
}

// accessor uses the sanctioned nil-safe surface.
func accessor(ob *obs.Observer) {
	ob.Registry().Counter("steps").Inc()
	ob.Span(0, "cg").End()
	if t := ob.Tracer(); t != nil {
		t.Begin(0, "cg").End()
	}
}

// byValue cannot be nil, so field access is safe.
func byValue(ob obs.Observer) {
	_ = ob.Metrics
}

func noop() {}

// events exercises the Events field added with the protocol event log:
// unguarded access is flagged like Metrics/Trace, guarded access and the
// Eventf/EventLog accessors are sanctioned.
func events(ob *obs.Observer) {
	ob.Events.Addf(0, "boom") // want: unguarded Events access
	if ob != nil {
		ob.Events.Addf(0, "ok") // guarded: not flagged
	}
	ob.Eventf(0, "ok")              // nil-safe accessor: not flagged
	_ = ob.EventLog()               // nil-safe accessor: not flagged
	_ = ob == nil || ob.Events == nil // short-circuit ||: not flagged
}

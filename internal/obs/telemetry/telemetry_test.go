package telemetry

import (
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestNilPlaneIsNoop proves the whole plane is nil-safe: every accessor
// and component method on a nil receiver is a working no-op.
func TestNilPlaneIsNoop(t *testing.T) {
	var p *Plane
	if p.Merger() != nil || p.Recorder() != nil || p.Health() != nil {
		t.Fatal("nil plane handed out non-nil components")
	}
	var m *Merger
	m.Bind(1, &obs.Observer{Trace: obs.NewTracer()})
	m.Collect()
	if m.Events() != nil || m.Ranks() != nil || m.Snapshots() != nil {
		t.Fatal("nil merger returned data")
	}
	if err := m.WriteChromeTrace(&strings.Builder{}); err != nil {
		t.Fatal(err)
	}
	if err := m.WritePrometheus(&strings.Builder{}); err != nil {
		t.Fatal(err)
	}
	var r *Recorder
	if r.Capture(nil, "x") != nil || r.Last() != nil {
		t.Fatal("nil recorder captured")
	}
	var h *Health
	h.SetState("training")
	h.SetWorker(1, WorkerEvicted)
	h.SetProgress(5, 0.5)
	if !h.Healthy() {
		t.Fatal("nil health not healthy")
	}
	if err := h.WriteJSON(&strings.Builder{}); err != nil {
		t.Fatal(err)
	}
	var srv *Server
	if srv.Addr() != "" || srv.Close() != nil {
		t.Fatal("nil server misbehaved")
	}
}

// TestShipperMergerRoundTrip binds a worker's observer (the in-process
// successor of shipping its bundle) and checks that Collect rebases its
// spans onto the master timebase, keeps its metrics and events, and
// reports counter deltas between collections.
func TestShipperMergerRoundTrip(t *testing.T) {
	wOb := &obs.Observer{
		Metrics: obs.NewRegistry(),
		Trace:   obs.NewTracer(),
		Events:  obs.NewEventLog(0),
	}
	wOb.Registry().Counter("iter.count").Add(7)
	wOb.Span(1, "gradient_loss").End()
	wOb.Eventf(1, "hello from worker")

	m := NewMerger(wOb.Tracer().Epoch().Add(-time.Second), 0)
	m.Bind(1, wOb)
	m.Collect()
	evs := m.Events()
	if len(evs) != 1 || evs[0].Name != "gradient_loss" || evs[0].Rank != 1 {
		t.Fatalf("merged events = %+v", evs)
	}
	// Worker epoch is 1s after the merger timebase zero, so the span
	// must land at >= 1s on the merged timeline.
	if evs[0].Start < time.Second {
		t.Fatalf("span not rebased: start %v", evs[0].Start)
	}
	if snaps := m.Snapshots(); snaps[1].Counters[0].Value != 7 {
		t.Fatalf("snapshot lost: %+v", snaps)
	}
	if entries := m.Entries(); len(entries) != 1 || entries[0].Text != "hello from worker" {
		t.Fatalf("entries = %+v", entries)
	}

	// A second collection after more activity adds only the new span,
	// and Deltas reports the counter movement between the two snapshots.
	wOb.Registry().Counter("iter.count").Add(3)
	wOb.Span(1, "sync_weights").End()
	m.Collect()
	if evs := m.Events(); len(evs) != 2 {
		t.Fatalf("merged %d events after second collection, want 2", len(evs))
	}
	ds := m.Deltas()
	if len(ds) != 1 || len(ds[0].Counters) != 1 || ds[0].Counters[0].Value != 3 {
		t.Fatalf("deltas = %+v", ds)
	}
}

// TestMergerCapBounds proves the merged ring drops oldest at capacity
// and counts drops.
func TestMergerCapBounds(t *testing.T) {
	epoch := time.Now()
	m := NewMerger(epoch, 3)
	spans := make([]obs.Event, 5)
	for i := range spans {
		spans[i] = obs.Event{Name: "s", Rank: 1, Start: time.Duration(i), Dur: 1}
	}
	m.ingest(bundle{Rank: 1, Epoch: epoch, Spans: spans, Dropped: 2})
	if got := len(m.Events()); got != 3 {
		t.Fatalf("retained %d, want 3", got)
	}
	merged, perRank := m.Dropped()
	if merged != 2 || perRank[1] != 2 {
		t.Fatalf("dropped = %d, %v", merged, perRank)
	}
}

// TestPrometheusGolden locks the text exposition format byte-for-byte.
func TestPrometheusGolden(t *testing.T) {
	snaps := map[int]obs.Snapshot{
		1: {
			Counters: []obs.CounterSnap{{Name: "iter.count", Value: 3}},
			Gauges:   []obs.GaugeSnap{{Name: "loss", Value: 0.5}},
			Histograms: []obs.HistSnap{{
				Name: "mpi.allreduce.ns", Count: 3, Sum: 9,
				Buckets: []obs.BucketSnap{{Le: 1, Count: 1}, {Le: 7, Count: 2}},
			}},
		},
		0: {
			Counters: []obs.CounterSnap{{Name: "iter.count", Value: 4}},
			Gauges:   []obs.GaugeSnap{{Name: "loss", Value: 2}},
		},
	}
	var sb strings.Builder
	if err := WritePrometheus(&sb, snaps); err != nil {
		t.Fatal(err)
	}
	const golden = `# TYPE hf_iter_count counter
hf_iter_count{rank="0"} 4
hf_iter_count{rank="1"} 3
# TYPE hf_loss gauge
hf_loss{rank="0"} 2
hf_loss{rank="1"} 0.5
# TYPE hf_mpi_allreduce_ns histogram
hf_mpi_allreduce_ns_bucket{rank="1",le="1"} 1
hf_mpi_allreduce_ns_bucket{rank="1",le="7"} 3
hf_mpi_allreduce_ns_bucket{rank="1",le="+Inf"} 3
hf_mpi_allreduce_ns_sum{rank="1"} 9
hf_mpi_allreduce_ns_count{rank="1"} 3
`
	if sb.String() != golden {
		t.Fatalf("prometheus text mismatch:\ngot:\n%s\nwant:\n%s", sb.String(), golden)
	}
}

// TestMergedTraceGolden locks the merged Chrome trace output for two
// ranks whose tracer epochs differ — the cross-rank version of the obs
// golden.
func TestMergedTraceGolden(t *testing.T) {
	epoch := time.Unix(1000, 0)
	m := NewMerger(epoch, 0)
	m.ingest(bundle{Rank: 0, Epoch: epoch, Spans: []obs.Event{
		{Name: "cg_minimize", Rank: 0, Start: 0, Dur: 2 * time.Millisecond},
	}})
	m.ingest(bundle{Rank: 1, Epoch: epoch.Add(time.Millisecond), Spans: []obs.Event{
		// Worker-local start 0 at worker epoch = master epoch+1ms
		// → merged start 1ms.
		{Name: "gradient_loss", Rank: 1, Start: 0, Dur: time.Millisecond},
	}})
	var sb strings.Builder
	if err := m.WriteChromeTrace(&sb); err != nil {
		t.Fatal(err)
	}
	const golden = `{
 "traceEvents": [
  {
   "name": "process_name",
   "ph": "M",
   "pid": 0,
   "tid": 0,
   "ts": 0,
   "args": {
    "name": "rank 0 (master)"
   }
  },
  {
   "name": "thread_name",
   "ph": "M",
   "pid": 0,
   "tid": 0,
   "ts": 0,
   "args": {
    "name": "lane 0"
   }
  },
  {
   "name": "cg_minimize",
   "ph": "X",
   "pid": 0,
   "tid": 0,
   "ts": 0,
   "dur": 2000
  },
  {
   "name": "process_name",
   "ph": "M",
   "pid": 1,
   "tid": 0,
   "ts": 0,
   "args": {
    "name": "rank 1"
   }
  },
  {
   "name": "thread_name",
   "ph": "M",
   "pid": 1,
   "tid": 0,
   "ts": 0,
   "args": {
    "name": "lane 0"
   }
  },
  {
   "name": "gradient_loss",
   "ph": "X",
   "pid": 1,
   "tid": 0,
   "ts": 1000,
   "dur": 1000
  }
 ],
 "displayTimeUnit": "ms"
}
`
	if sb.String() != golden {
		t.Fatalf("merged trace mismatch:\ngot:\n%s\nwant:\n%s", sb.String(), golden)
	}
}

// TestRecorderCapture proves a flight bundle keeps a dead rank's
// pre-fault spans, events, and metric deltas.
func TestRecorderCapture(t *testing.T) {
	epoch := time.Now().Add(-time.Minute)
	m := NewMerger(epoch, 0)
	m.ingest(bundle{
		Rank: 2, Epoch: epoch,
		Spans:   []obs.Event{{Name: "doomed_span", Rank: 2, Start: time.Second, Dur: time.Millisecond}},
		Metrics: obs.Snapshot{Counters: []obs.CounterSnap{{Name: "iter.count", Value: 5}}},
		Events:  []obs.LogEntry{{Time: epoch.Add(time.Second), Rank: 2, Text: "about to die"}},
	})
	r := NewRecorder(time.Hour) // wide window: keep everything
	b := r.Capture(m, "eviction rank 2")
	if b == nil {
		t.Fatal("no bundle")
	}
	if b.Reason != "eviction rank 2" || len(b.Spans) != 1 || b.Spans[0].Name != "doomed_span" {
		t.Fatalf("bundle = %+v", b)
	}
	if len(b.Events) != 1 || b.Events[0].Text != "about to die" {
		t.Fatalf("events = %+v", b.Events)
	}
	if len(b.Deltas) != 1 || b.Deltas[0].Rank != 2 || b.Deltas[0].Counters[0].Value != 5 {
		t.Fatalf("deltas = %+v", b.Deltas)
	}
	if len(b.Ranks) != 1 || b.Ranks[0] != 2 {
		t.Fatalf("ranks = %v", b.Ranks)
	}
	if r.Last() != b {
		t.Fatal("Last lost the bundle")
	}
	var sb strings.Builder
	if err := b.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "doomed_span") {
		t.Fatalf("JSON missing span: %s", sb.String())
	}

	// A narrow window drops old spans: re-ingest a much newer span and
	// capture with a tiny window — only the new span survives.
	m.ingest(bundle{Rank: 3, Epoch: epoch, Spans: []obs.Event{
		{Name: "fresh", Rank: 3, Start: time.Hour, Dur: time.Millisecond},
	}})
	nb := NewRecorder(time.Second).Capture(m, "watchdog")
	if len(nb.Spans) != 1 || nb.Spans[0].Name != "fresh" {
		t.Fatalf("window filter failed: %+v", nb.Spans)
	}
}

// TestHealthJSON exercises state transitions and the healthy predicate.
func TestHealthJSON(t *testing.T) {
	h := NewHealth()
	h.SetState("training")
	h.SetWorker(1, WorkerLive)
	h.SetWorker(2, WorkerLive)
	h.SetProgress(12, 0.25)
	if !h.Healthy() {
		t.Fatal("live run reported unhealthy")
	}
	h.SetWorker(2, WorkerEvicted)
	h.SetWorker(2, WorkerEvicted) // idempotent: one eviction
	if h.Healthy() {
		t.Fatal("evicted worker not reflected")
	}
	var sb strings.Builder
	if err := h.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{`"state": "training"`, `"evictions": 1`, `"iter": 12`, `"2": "evicted"`, `"live": 1`} {
		if !strings.Contains(out, want) {
			t.Fatalf("healthz JSON missing %s:\n%s", want, out)
		}
	}
}

// TestServerEndpoints smoke-tests every route against a live plane.
func TestServerEndpoints(t *testing.T) {
	p := NewPlane(time.Now())
	reg := obs.NewRegistry()
	reg.Counter("iter.count").Add(9)
	p.Merger().Bind(0, &obs.Observer{Metrics: reg})
	p.Merger().ingest(bundle{Rank: 1, Epoch: p.Merger().Epoch(), Spans: []obs.Event{
		{Name: "work", Rank: 1, Start: 0, Dur: time.Millisecond},
	}})
	p.Health().SetState("training")
	p.Health().SetWorker(1, WorkerLive)
	p.Recorder().Capture(p.Merger(), "smoke")

	srv, err := NewServer("127.0.0.1:0", p)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) (int, string) {
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		var sb strings.Builder
		buf := make([]byte, 4096)
		for {
			n, err := resp.Body.Read(buf)
			sb.Write(buf[:n])
			if err != nil {
				break
			}
		}
		return resp.StatusCode, sb.String()
	}

	if code, body := get("/metrics"); code != 200 || !strings.Contains(body, `hf_iter_count{rank="0"} 9`) {
		t.Fatalf("/metrics %d:\n%s", code, body)
	}
	if code, body := get("/trace"); code != 200 || !strings.Contains(body, `"work"`) {
		t.Fatalf("/trace %d:\n%s", code, body)
	}
	if code, body := get("/healthz"); code != 200 || !strings.Contains(body, `"training"`) {
		t.Fatalf("/healthz %d:\n%s", code, body)
	}
	if code, body := get("/flight"); code != 200 || !strings.Contains(body, `"smoke"`) {
		t.Fatalf("/flight %d:\n%s", code, body)
	}
	if code, _ := get("/debug/pprof/cmdline"); code != 200 {
		t.Fatalf("/debug/pprof/cmdline %d", code)
	}
	// Degraded run → 503 from /healthz.
	p.Health().SetWorker(1, WorkerEvicted)
	if code, _ := get("/healthz"); code != http.StatusServiceUnavailable {
		t.Fatalf("degraded /healthz = %d, want 503", code)
	}
}

// TestServerCloseJoinsServeGoroutine is the regression test for the
// goroutineleak finding on the monitoring endpoint: Close must not just
// ask the http.Server to stop, it must wait for the serve goroutine to
// return, so a returned Close guarantees the Server left nothing
// running.
func TestServerCloseJoinsServeGoroutine(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	// A nil plane still serves pprof; touch the endpoint so the serve
	// loop has demonstrably started before we tear it down.
	resp, err := http.Get("http://" + srv.Addr() + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	closed := make(chan error, 1)
	go func() { closed <- srv.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatalf("Close: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return: serve goroutine never joined")
	}
	// The join contract: after Close returns, the serve goroutine has
	// already exited and signalled completion.
	select {
	case <-srv.done:
	default:
		t.Fatal("Close returned before the serve goroutine exited")
	}
}

// TestShipperBundleDrains proves Collect drains a bound rank: each span
// and event-log line reaches the merger exactly once, and a collection
// with nothing new adds nothing.
func TestShipperBundleDrains(t *testing.T) {
	ob := &obs.Observer{
		Metrics: obs.NewRegistry(),
		Trace:   obs.NewTracer(),
		Events:  obs.NewEventLog(0),
	}
	ob.Span(0, "first").End()
	ob.Eventf(0, "one")
	m := NewMerger(ob.Tracer().Epoch(), 0)
	m.Bind(0, ob)

	m.Collect()
	if evs, entries := m.Events(), m.Entries(); len(evs) != 1 || len(entries) != 1 {
		t.Fatalf("first collection = %d spans / %d events, want 1/1", len(evs), len(entries))
	}

	// Nothing new happened: the next collection must add nothing, not replay.
	m.Collect()
	if evs, entries := m.Events(), m.Entries(); len(evs) != 1 || len(entries) != 1 {
		t.Fatalf("second collection replayed telemetry: %d spans / %d events, want 1/1", len(evs), len(entries))
	}

	// New activity after the drain is collected exactly once.
	ob.Span(0, "second").End()
	ob.Eventf(0, "two")
	m.Collect()
	evs, entries := m.Events(), m.Entries()
	if len(evs) != 2 || len(entries) != 2 {
		t.Fatalf("post-drain collection = %d spans / %d events, want 2/2", len(evs), len(entries))
	}
	if evs[1].Name != "second" || entries[1].Text != "two" {
		t.Fatalf("post-drain collection replayed old telemetry: spans %+v, entries %+v", evs, entries)
	}
}

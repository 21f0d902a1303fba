package core

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/hf"
	"repro/internal/obs"
	"repro/internal/obs/telemetry"
)

// telemetryObserver builds the full observer the telemetry plane feeds
// on: metrics, tracer, and event log.
func telemetryObserver() *obs.Observer {
	return &obs.Observer{Metrics: obs.NewRegistry(), Trace: obs.NewTracer(), Events: obs.NewEventLog(0)}
}

// TestTelemetryMergedTraceTCP is the cross-rank aggregation acceptance
// drill: a 4-rank TCP run with the telemetry plane enabled must leave
// the master's merger holding spans from every rank on one common
// timebase — no negative starts, which the merger never shifts away —
// and render them as a single Chrome trace with one process track per
// rank.
func TestTelemetryMergedTraceTCP(t *testing.T) {
	p := testProblem(t, CrossEntropy)
	ob := telemetryObserver()
	sess, err := NewSession(p,
		WithRanks(4),
		WithFabric(FabricTCP),
		WithObserver(ob),
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Run(fastHF()); err != nil {
		t.Fatalf("run: %v", err)
	}

	plane := sess.Telemetry()
	if plane == nil {
		t.Fatal("Session.Telemetry() nil with an observer set")
	}
	m := plane.Merger()

	ranks := m.Ranks()
	if len(ranks) != 4 {
		t.Fatalf("merger ranks = %v, want all of 0..3", ranks)
	}
	for want, got := range ranks {
		if got != want {
			t.Fatalf("merger ranks = %v, want [0 1 2 3]", ranks)
		}
	}

	evs := m.Events()
	if len(evs) == 0 {
		t.Fatal("merged timeline empty")
	}
	spansByRank := map[int]int{}
	for _, ev := range evs {
		if ev.Start < 0 {
			t.Fatalf("span %q on rank %d starts at %v, want ≥ 0 on the merged timebase", ev.Name, ev.Rank, ev.Start)
		}
		spansByRank[ev.Rank]++
	}
	for r := 0; r < 4; r++ {
		if spansByRank[r] == 0 {
			t.Errorf("rank %d contributed no spans to the merged trace", r)
		}
	}

	var buf bytes.Buffer
	if err := m.WriteChromeTrace(&buf); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	var trace struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Pid  int    `json:"pid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
		t.Fatalf("merged trace is not valid JSON: %v", err)
	}
	tracks := map[int]bool{}
	for _, ev := range trace.TraceEvents {
		if ev.Ph == "M" && ev.Name == "process_name" {
			tracks[ev.Pid] = true
		}
	}
	for r := 0; r < 4; r++ {
		if !tracks[r] {
			t.Errorf("merged Chrome trace missing process track for rank %d (have %v)", r, tracks)
		}
	}

	// Metrics shipped too: every rank has a snapshot in the rollup.
	snaps := m.Snapshots()
	for r := 0; r < 4; r++ {
		if len(snaps[r].Counters)+len(snaps[r].Histograms) == 0 {
			t.Errorf("rank %d shipped no metrics", r)
		}
	}

	if !plane.Health().Healthy() {
		t.Error("health not healthy after clean run")
	}
}

// TestTelemetryCrossRankAlignment checks the merged trace against what
// causality fixes, with no tolerance: every rank reads the master's
// clock, so the rebase is exact. A worker opens an op's span only after
// the master opened its own and sent the command, so the k-th span of a
// phase on any rank starts at or after the k-th on rank 0; and a
// worker's curvature product ends before its reply is sent, so it lies
// inside the master's cg_minimize span that waits for that reply.
func TestTelemetryCrossRankAlignment(t *testing.T) {
	const ranks = 3
	for _, fabric := range []FabricKind{FabricInproc, FabricTCP} {
		t.Run(fabric.String(), func(t *testing.T) {
			sess, err := NewSession(testProblem(t, CrossEntropy),
				WithRanks(ranks),
				WithFabric(fabric),
				WithObserver(telemetryObserver()),
			)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sess.Run(fastHF()); err != nil {
				t.Fatalf("run: %v", err)
			}
			starts := map[int]map[string][]time.Duration{}
			var cg, products []obs.Event
			for _, ev := range sess.Telemetry().Merger().Events() { // sorted by start
				if starts[ev.Rank] == nil {
					starts[ev.Rank] = map[string][]time.Duration{}
				}
				starts[ev.Rank][ev.Name] = append(starts[ev.Rank][ev.Name], ev.Start)
				switch {
				case ev.Rank == 0 && ev.Name == "cg_minimize":
					cg = append(cg, ev)
				case ev.Name == "worker_curvature_product":
					products = append(products, ev)
				}
			}

			for _, name := range []string{"sync_weights", "gradient_loss", "cg_minimize", "loss_eval"} {
				master := starts[0][name]
				if len(master) == 0 {
					t.Errorf("rank 0 recorded no %s span", name)
				}
				for r := 1; r < ranks; r++ {
					got := starts[r][name]
					if len(got) != len(master) {
						t.Errorf("rank %d has %d %s spans, rank 0 has %d", r, len(got), name, len(master))
					}
					for k := range min(len(got), len(master)) {
						if got[k] < master[k] {
							t.Errorf("rank %d's %s span #%d starts at %v, before rank 0's at %v", r, name, k, got[k], master[k])
						}
					}
				}
			}

			if len(products) == 0 {
				t.Fatal("no worker_curvature_product spans in the merged trace")
			}
			for _, p := range products {
				inside := false
				for _, c := range cg {
					if c.Start <= p.Start && p.Start+p.Dur <= c.Start+c.Dur {
						inside = true
						break
					}
				}
				if !inside {
					t.Errorf("rank %d's worker_curvature_product [%v, %v] lies in no rank-0 cg_minimize span",
						p.Rank, p.Start, p.Start+p.Dur)
				}
			}
		})
	}
}

// TestTelemetryLiveEndpointDuringTraining scrapes the monitoring
// endpoint mid-run: the per-iteration telemetry hook fires after the
// master's flush, so /metrics must already expose worker-rank series
// and /healthz must report the "training" state while the optimizer is
// still iterating.
func TestTelemetryLiveEndpointDuringTraining(t *testing.T) {
	p := testProblem(t, CrossEntropy)
	ob := telemetryObserver()
	sess, err := NewSession(p,
		WithRanks(3),
		WithObserver(ob),
	)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := telemetry.NewServer("127.0.0.1:0", sess.Telemetry())
	if err != nil {
		t.Fatalf("start monitoring endpoint: %v", err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	get := func(path string) (int, string) {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("read %s: %v", path, err)
		}
		return resp.StatusCode, string(body)
	}

	var metricsBody, healthBody string
	cfg := fastHF()
	cfg.Telemetry = func(s hf.IterStats) {
		if s.Iter == 2 && metricsBody == "" {
			_, metricsBody = get("/metrics")
			_, healthBody = get("/healthz")
		}
	}
	if _, err := sess.Run(cfg); err != nil {
		t.Fatalf("run: %v", err)
	}

	if metricsBody == "" {
		t.Fatal("telemetry hook never fired at iteration 2")
	}
	if !strings.Contains(metricsBody, "# TYPE hf_") {
		t.Errorf("/metrics missing Prometheus TYPE lines:\n%.400s", metricsBody)
	}
	if !strings.Contains(metricsBody, `rank="1"`) {
		t.Errorf("/metrics mid-run has no worker-rank series:\n%.400s", metricsBody)
	}
	if !strings.Contains(healthBody, `"state": "training"`) {
		t.Errorf("/healthz mid-run = %s, want state training", healthBody)
	}

	// After the run the endpoint keeps serving the merged artifacts.
	code, trace := get("/trace")
	if code != http.StatusOK || !strings.Contains(trace, "traceEvents") {
		t.Errorf("/trace after run: code %d, body %.120s", code, trace)
	}
	if code, _ := get("/flight"); code != http.StatusNotFound {
		t.Errorf("/flight with no fault = %d, want 404", code)
	}
	code, health := get("/healthz")
	if code != http.StatusOK || !strings.Contains(health, `"state": "done"`) {
		t.Errorf("/healthz after run: code %d, body %s", code, health)
	}
}

// TestTelemetryFlightRecorderOnEviction kills one of four ranks mid-run
// and checks the post-mortem contract: the fault report carries a
// flight bundle naming the evicted rank, preserving its pre-eviction
// spans up to the iteration it died in, the master's
// eviction event-log lines, and a health view showing the rank evicted.
func TestTelemetryFlightRecorderOnEviction(t *testing.T) {
	p := testProblem(t, CrossEntropy)
	ob := telemetryObserver()
	sess, err := NewSession(p,
		WithRanks(4),
		WithObserver(ob),
		WithFaults(faultPolicy(t, "kill:rank=2,epoch=3")),
		WithCheckpoint(CheckpointPolicy{Path: filepath.Join(t.TempDir(), "flight.ck")}),
	)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.Run(fastHF())
	if err != nil {
		t.Fatalf("elastic run: %v", err)
	}
	if res.Fault == nil {
		t.Fatal("MasterResult.Fault nil")
	}
	if n := len(res.Fault.Evictions); n != 1 {
		t.Fatalf("evictions = %d, want 1", n)
	}

	fb := res.Fault.Flight
	if fb == nil {
		t.Fatal("FaultReport.Flight nil: flight recorder did not capture")
	}
	if !strings.Contains(fb.Reason, "rank 2") {
		t.Errorf("flight reason %q does not name the evicted rank 2", fb.Reason)
	}
	if fb.CapturedAt.IsZero() || fb.Window <= 0 {
		t.Errorf("flight capture metadata empty: at=%v window=%v", fb.CapturedAt, fb.Window)
	}
	var killedSpans, killedGradients int
	for _, ev := range fb.Spans {
		if ev.Rank == 2 {
			killedSpans++
			if ev.Name == "gradient_loss" {
				killedGradients++
			}
		}
	}
	if killedSpans == 0 {
		t.Error("flight bundle has no pre-eviction spans from the killed rank 2")
	}
	// The bundle reads the dead rank in place, so it holds one gradient
	// span per iteration the rank began, the eviction iteration included.
	if want := res.Fault.Evictions[0].HFIter; killedGradients != want {
		t.Errorf("flight bundle holds %d gradient_loss spans from rank 2, want %d (one per iteration up to the eviction at iteration %d)",
			killedGradients, want, want)
	}
	if len(fb.Events) == 0 {
		t.Error("flight bundle has no event-log lines (eviction itself is logged)")
	}
	var hasRank2 bool
	for _, r := range fb.Ranks {
		hasRank2 = hasRank2 || r == 2
	}
	if !hasRank2 {
		t.Errorf("flight bundle ranks %v missing the killed rank 2", fb.Ranks)
	}

	// The bundle is the JSON artifact: it must round-trip.
	var buf bytes.Buffer
	if err := fb.WriteJSON(&buf); err != nil {
		t.Fatalf("flight WriteJSON: %v", err)
	}
	var back telemetry.FlightBundle
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("flight bundle JSON does not round-trip: %v", err)
	}
	if back.Reason != fb.Reason || len(back.Spans) != len(fb.Spans) {
		t.Errorf("flight round-trip mismatch: reason %q/%q, spans %d/%d",
			back.Reason, fb.Reason, len(back.Spans), len(fb.Spans))
	}

	// Health remembers the degraded topology.
	plane := sess.Telemetry()
	if plane.Health().Healthy() {
		t.Error("health reports healthy despite an eviction")
	}
	var hb bytes.Buffer
	if err := plane.Health().WriteJSON(&hb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(hb.String(), `"2": "evicted"`) {
		t.Errorf("/healthz view %s does not mark rank 2 evicted", hb.String())
	}
	// The recorder keeps the last bundle for the /flight endpoint.
	if plane.Recorder().Last() == nil {
		t.Error("Recorder.Last() nil after capture")
	}
}

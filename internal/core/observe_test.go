package core

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/hf"
	"repro/internal/obs"
)

// TestDistributedObservability runs a real 3-rank training job with a
// full observer attached and checks every artifact the observability
// layer promises, each attributed to the rank that made it: per-rank
// phase spans and per-rank MPI/worker/HF metrics read back through the
// telemetry plane, the master's profiler snapshot, and one JSONL record
// per HF iteration.
func TestDistributedObservability(t *testing.T) {
	p := testProblem(t, CrossEntropy)
	cfg := fastHF()
	cfg.MaxIterations = 3
	var jsonl bytes.Buffer
	cfg.Telemetry = TelemetryJSONL(&jsonl)
	ob := &obs.Observer{Metrics: obs.NewRegistry(), Trace: obs.NewTracer()}

	sess, err := NewSession(p, WithRanks(3), WithObserver(ob))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := sess.Telemetry().Merger()
	if m == nil {
		t.Fatal("no telemetry plane on an observed spawn-mode session")
	}

	// Spans: each required phase must appear, and the headline phases on
	// at least two distinct ranks (master + ≥1 worker).
	ranksFor := make(map[string]map[int]bool)
	for _, e := range m.Events() {
		if ranksFor[e.Name] == nil {
			ranksFor[e.Name] = make(map[int]bool)
		}
		ranksFor[e.Name][e.Rank] = true
	}
	for _, name := range []string{"load_data", "gradient_loss", "sync_weights", "cg_minimize", "loss_eval", "worker_curvature_product"} {
		if len(ranksFor[name]) == 0 {
			t.Errorf("no spans named %q", name)
		}
	}
	for _, name := range []string{"load_data", "gradient_loss", "sync_weights", "cg_minimize"} {
		if len(ranksFor[name]) < 2 {
			t.Errorf("spans %q on %d ranks, want ≥2", name, len(ranksFor[name]))
		}
	}
	if ranksFor["worker_curvature_product"][0] {
		t.Error("worker_curvature_product span on the master rank")
	}

	// Metrics, each in its rank's own registry: the wire's sends and
	// receives routed from every rank's profiler, worker wait time and
	// shard sizes, and one iteration wall-time observation per HF iter.
	ranks := make([]map[string]float64, 3)
	for r, snap := range m.Snapshots() {
		ranks[r] = snapshotValues(snap)
	}
	var sends, recvs float64
	for r, v := range ranks {
		n, k := v["mpi.send.latency_ns"], v["mpi.recv.latency_ns"]
		if n == 0 || k == 0 {
			t.Errorf("rank %d: %v mpi.send and %v mpi.recv latency observations, want both > 0", r, n, k)
		}
		sends, recvs = sends+n, recvs+k
	}
	// The per-rank counts sum to what one registry shared by every rank
	// counted before each rank had its own.
	if sends != 150 || recvs != 150 {
		t.Errorf("mpi.send/recv observations summed over ranks = %v/%v, want 150/150", sends, recvs)
	}
	var totalFrames float64
	for w := 1; w <= 2; w++ {
		if v := ranks[w]["core.worker.wait_ns"]; v <= 0 {
			t.Errorf("worker %d wait counter = %v, want > 0", w, v)
		}
		g := ranks[w]["core.worker.train_frames"]
		if g <= 0 {
			t.Errorf("worker %d train_frames gauge = %v, want > 0", w, g)
		}
		totalFrames += g
	}
	if want := float64(p.Train.TotalFrames()); totalFrames != want {
		t.Errorf("shard frame gauges sum to %v, corpus has %v", totalFrames, want)
	}
	for name := range ranks[0] {
		if strings.HasPrefix(name, "core.worker.") {
			t.Errorf("master registry holds worker metric %q", name)
		}
	}
	if n := ranks[0]["core.hf.iter_wall_ns"]; n != float64(len(res.HF.Iters)) {
		t.Errorf("iter wall histogram has %v observations, want %d", n, len(res.HF.Iters))
	}

	// The master's per-phase profiler snapshot rides on the result.
	if len(res.MPIProfile) == 0 {
		t.Fatal("MasterResult.MPIProfile empty")
	}
	phases := make(map[string]bool)
	for _, ps := range res.MPIProfile {
		phases[ps.Phase] = true
	}
	for _, want := range []string{"load_data", "sync_weights", "gradient_loss", "cg_minimize", "loss_eval"} {
		if !phases[want] {
			t.Errorf("MPIProfile missing phase %q", want)
		}
	}

	// Telemetry: one JSONL record per HF iteration with the key fields.
	lines := strings.Split(strings.TrimSpace(jsonl.String()), "\n")
	if len(lines) != len(res.HF.Iters) {
		t.Fatalf("%d JSONL records, want %d", len(lines), len(res.HF.Iters))
	}
	for i, line := range lines {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		for _, key := range []string{"iter", "loss", "lambda", "rho", "cg_iters", "backtracks", "alpha", "accepted", "grad_norm"} {
			if _, ok := rec[key]; !ok {
				t.Fatalf("record %d missing %q: %s", i, key, line)
			}
		}
		if int(rec["iter"].(float64)) != res.HF.Iters[i].Iter {
			t.Fatalf("record %d iter = %v, want %d", i, rec["iter"], res.HF.Iters[i].Iter)
		}
	}
}

// snapshotValues flattens a registry snapshot by name: a counter's or
// gauge's value, a histogram's observation count.
func snapshotValues(s obs.Snapshot) map[string]float64 {
	v := map[string]float64{}
	for _, c := range s.Counters {
		v[c.Name] = float64(c.Value)
	}
	for _, g := range s.Gauges {
		v[g.Name] = g.Value
	}
	for _, h := range s.Histograms {
		v[h.Name] = float64(h.Count)
	}
	return v
}

// TestDistributedObsNilObserverUnchanged: the nil-observer path must
// produce bit-identical training results to the uninstrumented entry
// point.
func TestDistributedObsNilObserverUnchanged(t *testing.T) {
	p := testProblem(t, CrossEntropy)
	cfg := fastHF()
	cfg.MaxIterations = 2
	plain, err := trainDist(p, cfg, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	instr, err := trainDist(p, cfg, 2, nil, WithObserver(nil))
	if err != nil {
		t.Fatal(err)
	}
	if plain.HF.FinalLoss != instr.HF.FinalLoss {
		t.Fatalf("final loss %v vs %v", plain.HF.FinalLoss, instr.HF.FinalLoss)
	}
}

func TestTelemetryJSONLFields(t *testing.T) {
	var buf bytes.Buffer
	emit := TelemetryJSONL(&buf)
	emit(hf.IterStats{Iter: 3, Loss: 1.5, Lambda: 0.25, Rho: 0.8, CGIters: 12,
		Backtracks: 2, BestIdx: 9, Alpha: 0.5, Accepted: true, GradNorm: 0.75})
	var rec map[string]any
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"iter": 3, "loss": 1.5, "lambda": 0.25, "rho": 0.8, "cg_iters": 12,
		"backtracks": 2, "best_idx": 9, "alpha": 0.5, "grad_norm": 0.75,
	}
	for k, v := range want {
		if got := rec[k].(float64); got != v {
			t.Errorf("%s = %v, want %v", k, got, v)
		}
	}
	if rec["accepted"] != true {
		t.Errorf("accepted = %v, want true", rec["accepted"])
	}
}

package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/obs"
)

// outDir receives checkpoints, traces and result files; benchmark/.gitignore
// keeps it out of the tree. The benchmark is started from the repository
// root (run.sh, the driver) or from its own directory (go run .).
var outDir = func() string {
	if _, err := os.Stat(filepath.Join("benchmark", "go.mod")); err == nil {
		return filepath.Join("benchmark", "out")
	}
	return "out"
}()

// metricValue is one number of a run's result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runOutput is the JSON object a run prints as its last line.
type runOutput struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runSizes are a workload's sizes at a given -seconds.
type runSizes struct {
	iters, twinIters, warm, openN int
	closed                        time.Duration
}

func sizesFor(w workload, secs float64) runSizes {
	scale := secs / nominalSeconds
	round := func(x float64) int { return max(1, int(math.Round(x))) }
	s := runSizes{
		iters:  round(float64(w.iters) * scale),
		warm:   round(float64(w.warm) * scale),
		openN:  round(openRate * w.open.Seconds() * scale),
		closed: time.Duration(float64(w.closed) * scale),
	}
	// The untraced twin of a traced run: half the iterations, but two where
	// there are two, so that one iteration past start-up can be compared.
	s.twinIters = min(s.iters, max(2, (s.iters+1)/2))
	return s
}

// trainStage is a run's first half: the repeated set-up and the trained model.
type trainStage struct {
	setups   []time.Duration
	setup    *trainSetup
	res      trainResult
	sink     *traceSink // nil when untraced
	overhead float64    // traced iterations against their untraced twin
}

// timeSetups repeats a set-up setupReps times, each from a collected heap,
// and returns the durations; build keeps whatever the last repetition made.
func timeSetups(build func() error) ([]time.Duration, error) {
	var ds []time.Duration
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		t0 := time.Now()
		if err := build(); err != nil {
			return nil, err
		}
		ds = append(ds, time.Since(t0))
	}
	return ds, nil
}

func runTrainStage(w workload, seed int64, size runSizes, trace bool) (*trainStage, error) {
	st := &trainStage{}
	var err error
	st.setups, err = timeSetups(func() (err error) {
		st.setup, err = setUpTraining(w, seed)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("training set-up: %w", err)
	}
	if !trace {
		if st.res, err = st.setup.run(size.iters, nil); err != nil {
			return nil, fmt.Errorf("training: %w", err)
		}
		return st, nil
	}

	// A traced run first trains the opening iterations untraced, so that
	// the same iterations, traced, price the instruments.
	twin, err := st.setup.run(size.twinIters, nil)
	if err != nil {
		return nil, fmt.Errorf("untraced twin: %w", err)
	}
	if st.setup, err = setUpTraining(w, seed); err != nil {
		return nil, fmt.Errorf("training set-up: %w", err)
	}
	st.sink = newTraceSink()
	if st.res, err = st.setup.run(size.iters, st.sink); err != nil {
		return nil, fmt.Errorf("traced training: %w", err)
	}
	// Iteration by iteration, how much longer the traced one took; the
	// median of those. The first iteration carries start-up (load_data,
	// heap growth), which a process pays once and the twin paid, so it is
	// left out when there are later ones.
	if k := min(len(twin.iterWall), len(st.res.iterWall)); k > 0 {
		var extra []float64
		for i := min(1, k-1); i < k; i++ {
			extra = append(extra, st.res.iterWall[i].Seconds()/twin.iterWall[i].Seconds()-1)
		}
		st.overhead = median(extra)
	}
	return st, nil
}

// serveStage is a run's second half: the repeated set-up and the three
// load phases against the last server it started.
type serveStage struct {
	setups             []time.Duration
	warm, closed, open phaseResult
	closedProc         procDelta
	// Traced runs only: the server's registry as the load phases left it,
	// and the in-process Score time of the served model with one caller.
	registry obs.Snapshot
	scoreUS  float64
}

func runServeStage(w workload, seed int64, size runSizes, tr *trainStage) (*serveStage, error) {
	p, res := tr.setup.p, tr.res
	ckPath := filepath.Join(outDir, fmt.Sprintf("model.%s.%d.ckpt", w.name, os.Getpid()))
	defer os.Remove(ckPath)
	ck := &core.Checkpoint{Sizes: p.Topo.Sizes, Params: res.params, Iteration: res.iterations(), HeldOutLoss: res.hf.FinalLoss}
	if err := core.SaveCheckpoint(ckPath, ck); err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	pool, err := newRequestPool(seed, p, res.params)
	if err != nil {
		return nil, err
	}
	var ob *obs.Observer
	var httpTracer *obs.Tracer
	if tr.sink != nil {
		ob, httpTracer = tr.sink.observer(), tr.sink.tracer
	}

	st := &serveStage{}
	var sv *server
	st.setups, err = timeSetups(func() (err error) {
		if sv != nil {
			if err = sv.stop(); err != nil {
				return err
			}
		}
		sv, err = startServer(ckPath, ob)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("serving set-up: %w", err)
	}

	clients := newLoadClients(sv.base, httpTracer)
	st.warm = runWarm(clients, pool, size.warm)
	before := sampleProc()
	st.closed = runClosed(clients, pool, size.closed)
	st.closedProc = before.until(sampleProc())
	st.open = runOpen(clients, pool, openRate, size.openN)
	closeLoadClients(clients)
	if tr.sink != nil {
		st.registry = tr.sink.reg.Snapshot()
		if st.scoreUS, err = scoreOneCaller(sv.srv, make([]float32, sv.srv.InputDim())); err != nil {
			sv.stop()
			return nil, fmt.Errorf("in-process score: %w", err)
		}
	}
	if err := sv.stop(); err != nil {
		return nil, fmt.Errorf("stopping server: %w", err)
	}
	return st, nil
}

// run executes one workload once and returns its result line. Violated
// checks are returned beside the output; the caller prints both and
// exits non-zero. A nil output means the run itself broke.
func run(w workload, seed int64, secs float64, trace bool) (*runOutput, []error, error) {
	size := sizesFor(w, secs)
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, nil, err
	}
	tr, err := runTrainStage(w, seed, size, trace)
	if err != nil {
		return nil, nil, err
	}
	checks := checkTraining(w, seed, tr.setup.p, tr.res, size.iters)
	sv, err := runServeStage(w, seed, size, tr)
	if err != nil {
		return nil, nil, err
	}

	out := &runOutput{Metrics: map[string]metricValue{}}
	out.Attempted = 1 + len(sv.warm.samples) + len(sv.closed.samples) + len(sv.open.samples)
	if len(checks) > 0 {
		out.Failed++
	}
	for _, ph := range []struct {
		name string
		res  phaseResult
	}{{"warm-up", sv.warm}, {"closed", sv.closed}, {"open", sv.open}} {
		if n, first := ph.res.failures(); n > 0 {
			checks = append(checks, fmt.Errorf("%s: %d of %d %s requests failed, first: %w", w.name, n, len(ph.res.samples), ph.name, first))
			out.Failed += n
		}
	}

	openLat := sortedCopy(sv.open.latencies(anyRequest))
	if p, ok := highestSupported(len(openLat)); ok {
		fmt.Fprintf(os.Stderr, "%s: %d closed-loop and %d open-loop requests; highest whole-phase percentile with %d samples beyond it: p%g\n",
			w.name, len(sv.closed.samples), len(openLat), minBeyond, p)
	}
	values := map[string]float64{}
	list := endToEnd
	if trace {
		list = perLayer
		probes, err := runProbes(seed)
		if err != nil {
			return nil, nil, err
		}
		for k, v := range probes {
			values[k] = v
		}
		traceMetrics(values, w, tr)
		serveLayerMetrics(values, sv, openLat)
		values["proc.peak_rss_mb"] = peakRSSMB()
		if err := writeChromeTrace(tr.sink.tracer, w.name); err != nil {
			return nil, nil, fmt.Errorf("writing trace: %w", err)
		}
	} else {
		res := tr.res
		closedFailed, _ := sv.closed.failures()
		values["setup_s"] = median(seconds(tr.setups)) + median(seconds(sv.setups))
		values["hf_iter_s"] = res.wall.Seconds() / float64(res.iterations())
		values["frames_per_s"] = float64(tr.setup.p.Train.TotalFrames()*res.iterations()) / res.wall.Seconds()
		values["final_loss"] = res.hf.FinalLoss
		values["req_per_s"] = float64(len(sv.closed.samples)-closedFailed) / sv.closed.wall.Seconds()
		values["lat_p50_ms"] = windowedPercentile(sv.open, 50)
		values["lat_p95_ms"] = windowedPercentile(sv.open, 95)
		values["ok_share"] = 1 - float64(out.Failed)/float64(out.Attempted)
	}

	if len(values) != len(list) {
		return nil, nil, fmt.Errorf("internal: %d values measured for %d declared metrics", len(values), len(list))
	}
	for _, m := range list {
		v, ok := values[m.name]
		if !ok {
			return nil, nil, fmt.Errorf("internal: metric %s was not measured", m.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			checks = append(checks, fmt.Errorf("%s: metric %s is %v", w.name, m.name, v))
			v = 0
		}
		out.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
	}
	out.Correct = len(checks) == 0
	if !out.Correct && out.Failed == 0 {
		out.Failed = 1
	}
	return out, checks, nil
}

// traceMetrics fills the per-layer numbers that come from the traced
// training stage: the span tree, the message log and the master's profile.
func traceMetrics(values map[string]float64, w workload, tr *trainStage) {
	res, sink := tr.res, tr.sink
	master := spanTotals(buildSpanTree(sink.tracer.Events()), onRank(0))
	iters := float64(res.iterations())
	share := func(part, whole time.Duration) float64 {
		if whole <= 0 {
			return 0
		}
		return part.Seconds() / whole.Seconds()
	}

	for _, phase := range masterPhases {
		values["core.phase_share."+phase] = 0
	}
	if w.how.distributed() {
		// The master's phase spans hold its transport calls as children,
		// so a phase's self time is what the master computed and its
		// receive spans are what it waited for the workers.
		root := master[spanSessionRun]
		values["hf.self_share"] = share(root.Self, root.Dur)
		values["hf.heldout_evals"] = float64(master["loss_eval"].Count)
		values["core.gradient_share"] = share(master["gradient_loss"].Dur, root.Dur)
		values["core.gn_product_share"] = share(master["cg_minimize"].Dur, root.Dur)
		values["core.heldout_loss_share"] = share(master["loss_eval"].Dur, root.Dur)
		for _, phase := range masterPhases {
			values["core.phase_share."+phase] = share(master[phase].Self, root.Dur)
		}
	} else {
		root := master[spanOptimize]
		values["hf.self_share"] = share(root.Self, root.Dur)
		values["hf.heldout_evals"] = float64(master[spanHeldout].Count)
		values["core.gradient_share"] = share(master[spanGradient].Dur, root.Dur)
		values["core.gn_product_share"] = share(master[spanGNProduct].Dur, root.Dur)
		values["core.heldout_loss_share"] = share(master[spanHeldout].Dur, root.Dur)
	}
	values["hf.cg_iters"] = float64(res.hf.TotalCGIters)
	values["hf.backtracks"] = float64(res.backtracks())

	msgs := summarizeMsgs(sink.msgs.records())
	values["mpi.msgs_per_iter"] = float64(msgs.Sends) / iters
	values["mpi.bytes_per_iter"] = float64(msgs.SendBytes) / iters
	values["mpi.master_recv_wait_share"] = share(msgs.RecvWait[0], res.wall)
	var workerWait time.Duration
	for r := 1; r < ranks; r++ {
		workerWait += msgs.RecvWait[r]
	}
	values["mpi.worker_recv_wait_share"] = share(workerWait/(ranks-1), res.wall)
	values["core.straggler_ms"] = msgs.StragglerS * 1e3
	var collective, p2p time.Duration
	for _, ps := range res.profile {
		if ps.Cat == mpi.CatCollective {
			collective += ps.Stat.Time
		} else {
			p2p += ps.Stat.Time
		}
	}
	values["mpi.collective_s"], values["mpi.p2p_s"] = collective.Seconds(), p2p.Seconds()

	values["obs.trace_overhead_share"] = tr.overhead
	values["proc.alloc_mb_per_iter"] = float64(res.proc.allocBytes) / iters / 1e6
	values["proc.gc_cpu_share"] = res.proc.gcShare()
	values["proc.cpu_util"] = res.proc.cpuUtil()
}

// serveLayerMetrics fills the serving numbers of a traced run: counts from
// the server's own registry and the open phase split by request size.
func serveLayerMetrics(values map[string]float64, sv *serveStage, openLat []float64) {
	open, snap := sv.open, sv.registry
	counter := func(name string) float64 {
		for _, c := range snap.Counters {
			if c.Name == name {
				return float64(c.Value)
			}
		}
		return 0
	}
	ratio := func(a, b float64) float64 {
		if b <= 0 {
			return 0
		}
		return a / b
	}
	for _, h := range snap.Histograms {
		if h.Name == "serve.batch_rows" {
			values["serve.batch_rows_mean"] = h.Mean
		}
	}
	values["serve.flush_deadline_share"] = ratio(counter("serve.flush_deadline"), counter("serve.batches"))
	values["serve.shed_share"] = ratio(counter("serve.shed"), counter("serve.requests")+counter("serve.shed"))

	single := median(open.latencies(func(i int) bool { return !isMulti(i) }))
	multi := median(open.latencies(isMulti))
	values["serve.http_overhead_us"] = single*1e3 - sv.scoreUS
	values["serve.multi_inst_penalty"] = ratio(multi, single)
	values["serve.lat_p99_ms"] = percentile(openLat, 99)

	late := make([]time.Duration, len(open.samples))
	for i, s := range open.samples {
		late[i] = s.late
	}
	lateMS := sortedCopy(millis(late))
	values["loadgen.late_p99_ms"] = percentile(lateMS, 99)
	values["loadgen.late_max_ms"] = percentile(lateMS, 100)
	values["proc.alloc_kb_per_req"] = float64(sv.closedProc.allocBytes) / float64(max(len(sv.closed.samples), 1)) / 1e3
}

// printRun writes a run's metrics, one per line, then the result object.
func printRun(w workload, out *runOutput, trace bool) {
	list := endToEnd
	if trace {
		list = perLayer
	}
	for _, m := range list {
		fmt.Printf("%-28s %-36s %16.6g %s\n", w.name, m.name, out.Metrics[m.name].Value, m.unit)
	}
}

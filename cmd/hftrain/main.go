// Command hftrain trains a DNN acoustic model on a synthetic speech
// corpus with the library's optimizers: serial Hessian-free, distributed
// Hessian-free (in-process master/worker MPI), or the SGD baseline.
//
// Usage:
//
//	hftrain -mode serial   -criterion ce  -utterances 200 -iters 10
//	hftrain -mode dist     -ranks 5       -criterion sequence
//	hftrain -mode dist     -ranks 5       -fault-inject "kill:rank=2,epoch=3"
//	hftrain -mode sgd      -epochs 5
//	hftrain -trace trace.json -metrics iters.jsonl
//
// -trace writes a Chrome trace-event JSON file of the run's per-rank
// phase spans (open in chrome://tracing or ui.perfetto.dev); -metrics
// appends one JSON line per HF iteration.
//
// In dist mode, -trace/-metrics/-http/-flight give the run an observer
// and so enable the distributed telemetry plane: every rank runs in
// this process and owns its observer, so the master drains each rank's
// spans and metrics in place at iteration boundaries and rebases them
// onto its own timebase (every rank reads the same clock); the merged
// trace carries one process track per rank.
// -http serves /metrics (Prometheus), /trace (merged trace download),
// /healthz (worker liveness; 503 when degraded), /flight (post-mortem
// bundle) and /debug/pprof/ while training runs; -flight writes the
// fault flight recorder's bundle as JSON after a faulted run.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"os"
	"slices"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/hf"
	"repro/internal/mpi"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/obs/telemetry"
	"repro/internal/report"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		log.Fatal(err)
	}
}

// run is the whole command: it parses args, trains, and writes results
// to stdout (progress goes to the log).
func run(args []string, stdout io.Writer) (err error) {
	defer func() {
		if errors.Is(err, core.ErrEmptyCorpus) {
			err = fmt.Errorf("hftrain: %w (every 10th utterance is held out, so -utterances must be ≥ 10)", err)
		}
	}()
	fs := flag.NewFlagSet("hftrain", flag.ContinueOnError)
	mode := fs.String("mode", "dist", "training mode: serial, dist, sgd")
	criterion := fs.String("criterion", "ce", "training criterion: ce, sequence")
	utterances := fs.Int("utterances", 120, "number of synthetic utterances")
	states := fs.Int("states", 8, "number of HMM states (output classes)")
	hidden := fs.Int("hidden", 32, "hidden layer width")
	layers := fs.Int("layers", 2, "number of hidden layers")
	iters := fs.Int("iters", 8, "HF iterations")
	epochs := fs.Int("epochs", 5, "SGD epochs")
	ranks := fs.Int("ranks", 4, "MPI ranks for dist mode (1 master + N-1 workers)")
	transport := fs.String("transport", "inproc", "dist-mode fabric: inproc or tcp (localhost)")
	sample := fs.Float64("sample", 0.03, "curvature sample fraction")
	seed := fs.Int64("seed", 1, "random seed")
	precond := fs.Bool("precond", false, "use the Martens diagonal CG preconditioner")
	save := fs.String("save", "", "serial/dist mode: write the trained model checkpoint to this path")
	load := fs.String("load", "", "serial/dist mode: start from this model checkpoint's parameters")
	traceOut := fs.String("trace", "", "write a Chrome trace-event JSON file of per-rank phase spans to this path")
	metricsOut := fs.String("metrics", "", "write per-HF-iteration telemetry as JSONL to this path")
	faultInject := fs.String("fault-inject", "", "dist mode: fault schedule to inject, e.g. \"kill:rank=2,epoch=3; delay:rank=1,epoch=2,d=50ms\" (enables the elastic fault-tolerant runtime)")
	maxEvictions := fs.Int("max-evictions", 0, "dist mode: worker evictions tolerated before surrendering; above 0 enables eviction and rewind (0 = library default of 2 with -fault-inject, else none; negative = none, the same run as omitting the flag)")
	httpAddr := fs.String("http", "", "dist mode: serve the live monitoring endpoint on this address (e.g. :9090): /metrics, /trace, /healthz, /flight, /debug/pprof/")
	flightOut := fs.String("flight", "", "dist mode: write the fault flight recorder's post-mortem bundle as JSON to this path after a faulted run")
	shuffle := fs.Bool("shuffle", false, "shuffle utterances (seeded) before the train/held-out split")
	replayVerify := fs.Bool("replay-verify", false, "run the training twice per fabric in -transport (comma-separated) and fail unless the per-iteration hash streams are bit-identical")
	replayJSON := fs.String("replay-json", "", "with -replay-verify: write what must repeat of the replay reports (losses, record counts, verdict) as JSON to this path")
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch *mode {
	case "serial", "dist":
	case "sgd":
		if *load != "" || *save != "" {
			return errors.New("hftrain: -load and -save need -mode serial or dist (sgd keeps no checkpoint)")
		}
	default:
		return fmt.Errorf("hftrain: unknown mode %q (want serial, dist, sgd)", *mode)
	}
	if *replayVerify && *save != "" {
		return errors.New("hftrain: -save does not apply to -replay-verify (it keeps no model)")
	}
	switch {
	case *layers < 0:
		return fmt.Errorf("hftrain: -layers %d, want ≥ 0", *layers)
	case *layers > 0 && *hidden < 1:
		return fmt.Errorf("hftrain: -hidden %d, want ≥ 1 with -layers %d", *hidden, *layers)
	case !(*sample > 0 && *sample <= 1):
		return fmt.Errorf("hftrain: -sample %g, want a fraction in (0, 1]", *sample)
	case *states < 2:
		return fmt.Errorf("hftrain: -states %d, want ≥ 2", *states)
	case *iters < 1:
		return fmt.Errorf("hftrain: -iters %d, want ≥ 1", *iters)
	case *epochs < 1:
		return fmt.Errorf("hftrain: -epochs %d, want ≥ 1", *epochs)
	}
	// A fault schedule is checked against the topology here, with the
	// other flags, so a bad one is refused before the corpus is built.
	var sched *mpi.FaultSchedule
	if *mode == "dist" && *faultInject != "" {
		var err error
		if sched, err = mpi.ParseFaultSchedule(*faultInject); err != nil {
			return fmt.Errorf("hftrain: -fault-inject: %w", err)
		}
		for _, ev := range sched.Events {
			if ev.Rank < 1 || ev.Rank >= *ranks {
				return fmt.Errorf("hftrain: -fault-inject event %q names rank %d; only worker ranks 1..%d of -ranks %d can be faulted", ev, ev.Rank, *ranks-1, *ranks)
			}
		}
	}
	var crit core.Criterion
	switch *criterion {
	case "ce":
		crit = core.CrossEntropy
	case "sequence":
		crit = core.Sequence
	default:
		return fmt.Errorf("hftrain: unknown criterion %q (want ce, sequence)", *criterion)
	}

	var ob *obs.Observer
	if *traceOut != "" || *metricsOut != "" || *httpAddr != "" || *flightOut != "" {
		ob = &obs.Observer{Metrics: obs.NewRegistry(), Trace: obs.NewTracer(), Events: obs.NewEventLog(0)}
	}
	// Open output files up front so a bad path fails before training.
	var traceFile *os.File
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			return err
		}
		defer f.Close()
		traceFile = f
	}

	log.Printf("generating corpus: %d utterances, %d states", *utterances, *states)
	c := corpus.Generate(corpus.Config{
		Seed:          *seed,
		NumUtterances: *utterances,
		MeanSeconds:   1.0,
		FeatDim:       20,
		Context:       2,
		NumStates:     *states,
	})
	if *shuffle {
		// Explicit seeded source: shard plans stay identical across runs
		// with the same -seed (the rngsource analyzer's contract).
		corpus.ShuffleUtterances(rand.New(rand.NewSource(*seed)), c.Utts)
	}
	train, held := c.Split(10)
	log.Printf("train: %d utterances / %d frames; held-out: %d utterances / %d frames",
		len(train.Utts), train.TotalFrames(), len(held.Utts), held.TotalFrames())

	sizes := []int{c.InputDim()}
	for l := 0; l < *layers; l++ {
		sizes = append(sizes, *hidden)
	}
	sizes = append(sizes, *states)
	prob := core.Problem{
		Topo:           nn.NewTopology(sizes...),
		Train:          train,
		Heldout:        held,
		Criterion:      crit,
		SampleFraction: *sample,
		Seed:           *seed,
	}
	if *load != "" {
		ck, err := core.LoadCheckpoint(*load)
		if err != nil {
			return err
		}
		if !slices.Equal(ck.Sizes, prob.Topo.Sizes) {
			return fmt.Errorf("hftrain: checkpoint %s has topology %v, the flags give %v", *load, ck.Sizes, prob.Topo.Sizes)
		}
		prob.InitParams = ck.Params
		log.Printf("resumed from %s (iteration %d, held-out loss %.4f)", *load, ck.Iteration, ck.HeldOutLoss)
	}
	hfCfg := hf.Config{
		MaxIterations:     *iters,
		UsePreconditioner: *precond,
		Log: func(s hf.IterStats) {
			log.Printf("iter %2d: loss=%.4f λ=%.3g ρ=%.2f cg=%d α=%.2f accepted=%v",
				s.Iter, s.Loss, s.Lambda, s.Rho, s.CGIters, s.Alpha, s.Accepted)
		},
	}
	if *metricsOut != "" {
		f, err := os.Create(*metricsOut)
		if err != nil {
			return err
		}
		defer f.Close()
		hfCfg.Telemetry = core.TelemetryJSONL(f)
	}

	if *replayVerify {
		return runReplayGate(stdout, prob, hfCfg, *ranks, *transport, *replayJSON)
	}

	// In dist mode the telemetry plane owns the merged cross-rank trace;
	// the serial modes write the local tracer instead.
	var plane *telemetry.Plane
	// The trained model -save writes (serial and dist modes).
	var final *core.Checkpoint

	switch *mode {
	case "serial":
		obj, err := core.NewSerialObjective(prob)
		if err != nil {
			return err
		}
		res := hf.Optimize(obj, hfCfg)
		fmt.Fprintf(stdout, "serial HF (%s): final held-out loss %.4f, frame accuracy %.1f%%, %d CG iterations total\n",
			crit, res.FinalLoss, obj.HeldOutAccuracy()*100, res.TotalCGIters)
		final = &core.Checkpoint{Params: obj.Params(), Iteration: len(res.Iters), HeldOutLoss: res.FinalLoss}
	case "dist":
		fabric, err := core.ParseFabric(*transport)
		if err != nil {
			return err
		}
		opts := []core.Option{
			core.WithRanks(*ranks),
			core.WithFabric(fabric),
			core.WithObserver(ob),
		}
		if sched != nil || *maxEvictions != 0 {
			opts = append(opts, core.WithFaults(core.FaultPolicy{MaxEvictions: *maxEvictions, Inject: sched}))
			// Mirror the per-iteration rewind checkpoints to -save if set
			// (the trained model overwrites the mirror after the run).
			opts = append(opts, core.WithCheckpoint(core.CheckpointPolicy{Path: *save}))
		}
		sess, err := core.NewSession(prob, opts...)
		if err != nil {
			return err
		}
		plane = sess.Telemetry()
		if *httpAddr != "" {
			srv, err := telemetry.NewServer(*httpAddr, plane)
			if err != nil {
				return err
			}
			defer srv.Close()
			log.Printf("monitoring endpoint on http://%s (/metrics /trace /healthz /flight /debug/pprof/)", srv.Addr())
		}
		res, err := sess.Run(hfCfg)
		if err != nil {
			// A surrendered run still has a story to tell: the fault table
			// and the flight recorder's post-mortem bundle.
			var se *core.SurrenderError
			if errors.As(err, &se) {
				report.FaultTable(os.Stderr, se.Report)
			}
			writeFlight(*flightOut, plane)
			return err
		}
		fmt.Fprintf(stdout, "distributed HF (%s, %d ranks, %s): final held-out loss %.4f, frame accuracy %.1f%%\n",
			crit, *ranks, *transport, res.HF.FinalLoss, res.HeldOutAccuracy*100)
		// A run that could not evict and did not has no fault story.
		if res.Fault.MaxEvictions > 0 || len(res.Fault.Evictions) > 0 {
			report.FaultTable(stdout, res.Fault)
		}
		if ob != nil {
			report.HFIterTable(stdout, res.HF.Iters)
			report.MPITable(stdout, res.MPIProfile)
			// Every rank owns its registry and the plane holds them all
			// (an observed dist run always has it): one table per rank.
			merger := plane.Merger()
			snaps := merger.Snapshots()
			for _, r := range merger.Ranks() {
				fmt.Fprintf(stdout, "metrics, rank %d\n", r)
				report.MetricsTable(stdout, snaps[r])
			}
		}
		if plane != nil {
			report.TelemetryTable(stdout, plane.Merger())
			writeFlight(*flightOut, plane)
		}
		final = &core.Checkpoint{Params: res.Params, Iteration: len(res.HF.Iters), HeldOutLoss: res.HF.FinalLoss}
	case "sgd":
		obj, res, err := core.TrainSGD(prob, core.SGDConfig{Epochs: *epochs, Seed: *seed})
		if err != nil {
			return err
		}
		for _, e := range res.Epochs {
			log.Printf("epoch %d: train=%.4f held-out=%.4f lr=%.3g",
				e.Epoch, e.TrainLoss, e.HeldOutLoss, e.LearningRate)
		}
		fmt.Fprintf(stdout, "SGD (%s): final held-out loss %.4f, frame accuracy %.1f%%\n",
			crit, res.FinalLoss, obj.HeldOutAccuracy()*100)
	}

	if *save != "" {
		final.Sizes, final.Criterion, final.Trans = prob.Topo.Sizes, crit, prob.Trans
		if err := core.SaveCheckpoint(*save, final); err != nil {
			return err
		}
		log.Printf("checkpoint written to %s", *save)
	}

	if traceFile != nil {
		// With a telemetry plane the merged cross-rank trace (one
		// timebase, one process track per rank) supersedes the local
		// tracer, which the merger has already drained into it.
		var err error
		if plane != nil {
			err = plane.Merger().WriteChromeTrace(traceFile)
		} else {
			err = ob.Tracer().WriteChromeTrace(traceFile)
		}
		if err != nil {
			return err
		}
		if err := traceFile.Close(); err != nil {
			return err
		}
		log.Printf("trace written to %s (open in chrome://tracing or ui.perfetto.dev)", *traceOut)
	}
	return nil
}

// writeFlight writes the flight recorder's latest post-mortem bundle as
// JSON to path; no-op when path is empty or no fault was captured.
func writeFlight(path string, plane *telemetry.Plane) {
	if path == "" {
		return
	}
	b := plane.Recorder().Last()
	if b == nil {
		log.Printf("no flight bundle captured (no fault); %s not written", path)
		return
	}
	f, err := os.Create(path)
	if err != nil {
		log.Print(err)
		return
	}
	if err := b.WriteJSON(f); err != nil {
		log.Print(err)
	}
	if err := f.Close(); err != nil {
		log.Print(err)
	}
	log.Printf("flight bundle written to %s", path)
}

// replayEntry is one fabric's record in the -replay-json file. It holds
// only what must repeat from run to run (no wall times), so while the
// gate holds the file is byte-identical and `git diff --exit-code` on
// the checked-in BENCH_determinism.json is the whole baseline check.
type replayEntry struct {
	Fabric     string `json:"fabric"`
	Ranks      int    `json:"ranks"`
	Iterations int    `json:"iterations"`
	Runs       [2]struct {
		FinalLoss float64 `json:"final_loss"`
		Records   int     `json:"records"`
	} `json:"runs"`
	Divergent bool   `json:"divergent"`
	Detail    string `json:"detail,omitempty"`
}

// runReplayGate runs core.ReplayVerify on every fabric in the
// comma-separated transport list, prints each report, optionally writes
// the repeatable part of the reports as JSON (the BENCH_determinism
// entry), and returns an error if any fabric diverged.
func runReplayGate(stdout io.Writer, prob core.Problem, cfg hf.Config, ranks int, transports, jsonPath string) error {
	cfg.Log = nil // keep the doubled runs quiet; hashes are the output
	var reports []replayEntry
	divergent := false
	gateStart := time.Now()
	for _, fabric := range strings.Split(transports, ",") {
		fabric = strings.TrimSpace(fabric)
		if fabric == "" {
			continue
		}
		rep, err := core.ReplayVerify(prob, cfg, ranks, nil, fabric)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, rep)
		e := replayEntry{Fabric: rep.Fabric, Ranks: rep.Ranks, Iterations: rep.Iterations, Divergent: rep.Divergent, Detail: rep.Detail}
		for i, run := range rep.Runs {
			e.Runs[i].FinalLoss, e.Runs[i].Records = run.FinalLoss, run.Records
		}
		reports = append(reports, e)
		divergent = divergent || rep.Divergent
	}
	gateWall := time.Since(gateStart)
	if len(reports) == 0 {
		return fmt.Errorf("no fabrics in -transport %q", transports)
	}
	if jsonPath != "" {
		out := struct {
			Bench   string        `json:"bench"`
			Reports []replayEntry `json:"reports"`
		}{Bench: "determinism_replay_gate", Reports: reports}
		data, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(jsonPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
		log.Printf("replay gate report written to %s", jsonPath)
	}
	if divergent {
		return fmt.Errorf("replay verification FAILED: hash streams diverged (see above)")
	}
	log.Printf("replay verification passed on %d fabric(s) in %v", len(reports), gateWall.Round(time.Millisecond))
	return nil
}

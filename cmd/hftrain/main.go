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
// In dist mode, -trace/-http/-flight enable the distributed telemetry
// plane: every rank ships its spans and metrics to the master at
// iteration boundaries, a clock-offset handshake puts them on a common
// timebase, and the merged trace carries one process track per rank.
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
	"log"
	"math/rand"
	"os"
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
	mode := flag.String("mode", "dist", "training mode: serial, dist, sgd")
	criterion := flag.String("criterion", "ce", "training criterion: ce, sequence")
	utterances := flag.Int("utterances", 120, "number of synthetic utterances")
	states := flag.Int("states", 8, "number of HMM states (output classes)")
	hidden := flag.Int("hidden", 32, "hidden layer width")
	layers := flag.Int("layers", 2, "number of hidden layers")
	iters := flag.Int("iters", 8, "HF iterations")
	epochs := flag.Int("epochs", 5, "SGD epochs")
	ranks := flag.Int("ranks", 4, "MPI ranks for dist mode (1 master + N-1 workers)")
	transport := flag.String("transport", "inproc", "dist-mode fabric: inproc or tcp (localhost)")
	sample := flag.Float64("sample", 0.03, "curvature sample fraction")
	seed := flag.Int64("seed", 1, "random seed")
	precond := flag.Bool("precond", false, "use the Martens diagonal CG preconditioner")
	save := flag.String("save", "", "write the trained model checkpoint to this path")
	load := flag.String("load", "", "resume from a model checkpoint")
	traceOut := flag.String("trace", "", "write a Chrome trace-event JSON file of per-rank phase spans to this path")
	metricsOut := flag.String("metrics", "", "write per-HF-iteration telemetry as JSONL to this path")
	faultInject := flag.String("fault-inject", "", "dist mode: fault schedule to inject, e.g. \"kill:rank=2,epoch=3; delay:rank=1,epoch=2,d=50ms\" (enables the elastic fault-tolerant runtime)")
	maxEvictions := flag.Int("max-evictions", 0, "dist mode: worker evictions tolerated before surrendering (enables the elastic runtime; 0 = library default of 2 when elastic, negative = none)")
	httpAddr := flag.String("http", "", "dist mode: serve the live monitoring endpoint on this address (e.g. :9090): /metrics, /trace, /healthz, /flight, /debug/pprof/")
	flightOut := flag.String("flight", "", "dist mode: write the fault flight recorder's post-mortem bundle as JSON to this path after a faulted run")
	shuffle := flag.Bool("shuffle", false, "shuffle utterances (seeded) before the train/held-out split")
	replayVerify := flag.Bool("replay-verify", false, "run the training twice per fabric in -transport (comma-separated) and fail unless the per-iteration hash streams are bit-identical")
	replayJSON := flag.String("replay-json", "", "with -replay-verify: write what must repeat of the replay reports (losses, record counts, verdict) as JSON to this path")
	flag.Parse()

	var ob *obs.Observer
	if *traceOut != "" || *metricsOut != "" || *httpAddr != "" || *flightOut != "" {
		ob = &obs.Observer{Metrics: obs.NewRegistry(), Trace: obs.NewTracer(), Events: obs.NewEventLog(0)}
	}
	// Open output files up front so a bad path fails before training.
	var traceFile *os.File
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			log.Fatal(err)
		}
		traceFile = f
	}

	crit := core.CrossEntropy
	if strings.HasPrefix(*criterion, "seq") {
		crit = core.Sequence
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
			log.Fatal(err)
		}
		defer f.Close()
		hfCfg.Telemetry = core.TelemetryJSONL(f)
	}

	if *replayVerify {
		if err := runReplayGate(prob, hfCfg, *ranks, *transport, *replayJSON); err != nil {
			log.Fatal(err)
		}
		return
	}

	// In dist mode the telemetry plane owns the merged cross-rank trace;
	// the serial modes write the local tracer instead.
	var plane *telemetry.Plane

	switch *mode {
	case "serial":
		obj, err := core.NewSerialObjective(prob)
		if err != nil {
			log.Fatal(err)
		}
		if *load != "" {
			ck, err := core.LoadCheckpoint(*load)
			if err != nil {
				log.Fatal(err)
			}
			obj.SetParams(ck.Params)
			log.Printf("resumed from %s (iteration %d, held-out loss %.4f)", *load, ck.Iteration, ck.HeldOutLoss)
		}
		res := hf.Optimize(obj, hfCfg)
		fmt.Printf("serial HF (%s): final held-out loss %.4f, frame accuracy %.1f%%, %d CG iterations total\n",
			crit, res.FinalLoss, obj.HeldOutAccuracy()*100, res.TotalCGIters)
		if *save != "" {
			ck := &core.Checkpoint{
				Sizes:       prob.Topo.Sizes,
				Params:      obj.Params(),
				Criterion:   crit,
				Trans:       prob.Trans,
				Iteration:   len(res.Iters),
				HeldOutLoss: res.FinalLoss,
			}
			if err := core.SaveCheckpoint(*save, ck); err != nil {
				log.Fatal(err)
			}
			log.Printf("checkpoint written to %s", *save)
		}
	case "dist":
		fabric, err := core.ParseFabric(*transport)
		if err != nil {
			log.Fatal(err)
		}
		opts := []core.Option{
			core.WithRanks(*ranks),
			core.WithFabric(fabric),
			core.WithObserver(ob),
		}
		if *faultInject != "" || *maxEvictions != 0 {
			pol := core.FaultPolicy{MaxEvictions: *maxEvictions}
			if *faultInject != "" {
				sched, err := mpi.ParseFaultSchedule(*faultInject)
				if err != nil {
					log.Fatal(err)
				}
				pol.Inject = sched
			}
			opts = append(opts, core.WithFaults(pol))
			// Rewind checkpoints every iteration; mirror to -save if set.
			opts = append(opts, core.WithCheckpoint(core.CheckpointPolicy{Every: 1, Path: *save}))
		}
		if ob != nil {
			opts = append(opts, core.WithTelemetry(telemetry.Config{}))
		}
		sess, err := core.NewSession(prob, opts...)
		if err != nil {
			log.Fatal(err)
		}
		plane = sess.Telemetry()
		if *httpAddr != "" {
			srv, err := telemetry.NewServer(*httpAddr, plane)
			if err != nil {
				log.Fatal(err)
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
			log.Fatal(err)
		}
		fmt.Printf("distributed HF (%s, %d ranks, %s): final held-out loss %.4f, frame accuracy %.1f%%\n",
			crit, *ranks, *transport, res.HF.FinalLoss, res.HeldOutAccuracy*100)
		if res.Fault != nil {
			report.FaultTable(os.Stdout, res.Fault)
		}
		if ob != nil {
			report.HFIterTable(os.Stdout, res.HF.Iters)
			report.MPITable(os.Stdout, res.MPIProfile)
			report.MetricsTable(os.Stdout, ob.Registry().Snapshot())
		}
		if plane != nil {
			report.TelemetryTable(os.Stdout, plane.Merger())
			writeFlight(*flightOut, plane)
		}
	case "sgd":
		obj, res, err := core.TrainSGD(prob, core.SGDConfig{Epochs: *epochs, Seed: *seed})
		if err != nil {
			log.Fatal(err)
		}
		for _, e := range res.Epochs {
			log.Printf("epoch %d: train=%.4f held-out=%.4f lr=%.3g",
				e.Epoch, e.TrainLoss, e.HeldOutLoss, e.LearningRate)
		}
		fmt.Printf("SGD (%s): final held-out loss %.4f, frame accuracy %.1f%%\n",
			crit, res.FinalLoss, obj.HeldOutAccuracy()*100)
	default:
		log.Fatalf("unknown mode %q (want serial, dist, sgd)", *mode)
	}

	if traceFile != nil {
		// With a telemetry plane the merged cross-rank trace (common
		// timebase, one process track per rank) supersedes the local
		// tracer, which the master's shipper has already drained into it.
		var err error
		if plane != nil {
			err = plane.Merger().WriteChromeTrace(traceFile)
		} else {
			err = ob.Tracer().WriteChromeTrace(traceFile)
		}
		if err != nil {
			log.Fatal(err)
		}
		if err := traceFile.Close(); err != nil {
			log.Fatal(err)
		}
		log.Printf("trace written to %s (open in chrome://tracing or ui.perfetto.dev)", *traceOut)
	}
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
func runReplayGate(prob core.Problem, cfg hf.Config, ranks int, transports, jsonPath string) error {
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
		fmt.Println(rep)
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

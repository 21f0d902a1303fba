package repro

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/bgq"
	"repro/internal/blas"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/hf"
	"repro/internal/mpi"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/tensor"
	"repro/internal/workload"
)

// This file holds one benchmark per table and figure of the paper's
// evaluation section. Simulated experiments report the modeled execution
// time of the paper-scale run as the "model_s" metric (the quantity the
// paper plots); the real-trainer benchmarks measure actual wall time.
//
// Regenerate everything at once with:
//
//	go test -bench . -benchtime 1x
//
// or via cmd/experiments for the full text report.

func simulateOrFatal(b *testing.B, m bgq.MachineSpec, cfg bgq.Config, counts workload.AlgoCounts, shards []int64) *workload.RunResult {
	b.Helper()
	r, err := workload.Simulate(m, cfg, counts, shards)
	if err != nil {
		b.Fatal(err)
	}
	return r
}

// BenchmarkFig1aConfigSweep50h regenerates Figure 1(a): execution time of
// the 50-hour cross-entropy training across MPI/OpenMP configurations on
// one rack of Blue Gene/Q.
func BenchmarkFig1aConfigSweep50h(b *testing.B) {
	m := bgq.BlueGeneQ()
	counts := workload.Preset50h(false)
	for _, cfg := range []bgq.Config{
		{Ranks: 1024, RanksPerNode: 1, ThreadsPerRank: 16},
		{Ranks: 1024, RanksPerNode: 1, ThreadsPerRank: 32},
		{Ranks: 1024, RanksPerNode: 1, ThreadsPerRank: 64},
		{Ranks: 2048, RanksPerNode: 2, ThreadsPerRank: 32},
		{Ranks: 4096, RanksPerNode: 4, ThreadsPerRank: 16},
	} {
		b.Run(cfg.Label(), func(b *testing.B) {
			var total float64
			for i := 0; i < b.N; i++ {
				total = simulateOrFatal(b, m, cfg, counts, nil).TotalSec
			}
			b.ReportMetric(total, "model_s")
			b.ReportMetric(total/3600, "model_h")
		})
	}
}

// BenchmarkFig1bConfigSweep400h regenerates Figure 1(b): the 400-hour
// sweep including the two-rack 8192-4-16 configuration (the paper's ≈22%
// additional speedup and ≈6.3 h total).
func BenchmarkFig1bConfigSweep400h(b *testing.B) {
	m := bgq.BlueGeneQ()
	counts := workload.Preset400h(false)
	for _, cfg := range []bgq.Config{
		{Ranks: 1024, RanksPerNode: 1, ThreadsPerRank: 64},
		{Ranks: 2048, RanksPerNode: 2, ThreadsPerRank: 32},
		{Ranks: 4096, RanksPerNode: 4, ThreadsPerRank: 16},
		{Ranks: 8192, RanksPerNode: 4, ThreadsPerRank: 16},
	} {
		b.Run(cfg.Label(), func(b *testing.B) {
			var total float64
			for i := 0; i < b.N; i++ {
				total = simulateOrFatal(b, m, cfg, counts, nil).TotalSec
			}
			b.ReportMetric(total, "model_s")
			b.ReportMetric(total/3600, "model_h")
		})
	}
}

// cycleBenchConfigs are the three configurations of Figures 2-5.
var cycleBenchConfigs = []bgq.Config{
	{Ranks: 1024, RanksPerNode: 1, ThreadsPerRank: 64},
	{Ranks: 2048, RanksPerNode: 2, ThreadsPerRank: 32},
	{Ranks: 4096, RanksPerNode: 4, ThreadsPerRank: 16},
}

// BenchmarkFig2MasterCycles regenerates Figure 2: the master's
// per-function cycle breakdown (committed / AXU-FXU stalls / IU-empty),
// reported here as total Gcycles per function plus the committed share.
func BenchmarkFig2MasterCycles(b *testing.B) {
	benchCycles(b, true)
}

// BenchmarkFig3WorkerCycles regenerates Figure 3: the mean worker's
// per-function cycle breakdown.
func BenchmarkFig3WorkerCycles(b *testing.B) {
	benchCycles(b, false)
}

func benchCycles(b *testing.B, master bool) {
	m := bgq.BlueGeneQ()
	counts := workload.Preset50h(false)
	for _, cfg := range cycleBenchConfigs {
		b.Run(cfg.Label(), func(b *testing.B) {
			var rep workload.RankReport
			for i := 0; i < b.N; i++ {
				r := simulateOrFatal(b, m, cfg, counts, nil)
				if master {
					rep = r.Master
				} else {
					rep = r.WorkerMean
				}
			}
			for name, ph := range rep {
				if ph.Cycles.Total() == 0 {
					continue
				}
				b.ReportMetric(ph.Cycles.Total()/1e9, name+"_Gcyc")
			}
		})
	}
}

// BenchmarkFig4MasterMPI regenerates Figure 4: the master's MPI time per
// function, split into collective and point-to-point seconds.
func BenchmarkFig4MasterMPI(b *testing.B) {
	benchMPI(b, true)
}

// BenchmarkFig5WorkerMPI regenerates Figure 5: the mean worker's MPI time
// per function.
func BenchmarkFig5WorkerMPI(b *testing.B) {
	benchMPI(b, false)
}

func benchMPI(b *testing.B, master bool) {
	m := bgq.BlueGeneQ()
	counts := workload.Preset50h(false)
	for _, cfg := range cycleBenchConfigs {
		b.Run(cfg.Label(), func(b *testing.B) {
			var rep workload.RankReport
			for i := 0; i < b.N; i++ {
				r := simulateOrFatal(b, m, cfg, counts, nil)
				if master {
					rep = r.Master
				} else {
					rep = r.WorkerMean
				}
			}
			for name, ph := range rep {
				if ph.CollSec > 0 {
					b.ReportMetric(ph.CollSec, name+"_coll_s")
				}
				if ph.P2PSec > 0 {
					b.ReportMetric(ph.P2PSec, name+"_p2p_s")
				}
			}
		})
	}
}

// BenchmarkTable1ScalingUp regenerates Table I: Intel-Xeon-96 vs
// BG/Q-4096 training time for both criteria, with the raw and the
// frequency-adjusted speedups the paper reports.
func BenchmarkTable1ScalingUp(b *testing.B) {
	bg := bgq.BlueGeneQ()
	intel := bgq.IntelXeonCluster()
	intelCfg := bgq.Config{Ranks: 96, RanksPerNode: 2, ThreadsPerRank: 8}
	bgCfg := bgq.Config{Ranks: 4096, RanksPerNode: 4, ThreadsPerRank: 16}
	for _, spec := range []struct {
		name string
		seq  bool
	}{{"CrossEntropy", false}, {"Sequence", true}} {
		b.Run(spec.name, func(b *testing.B) {
			counts := workload.Preset50h(spec.seq)
			var speedup, intelH, bgH float64
			for i := 0; i < b.N; i++ {
				ri := simulateOrFatal(b, intel, intelCfg, counts, nil)
				rb := simulateOrFatal(b, bg, bgCfg, counts, nil)
				intelH = ri.TotalSec / 3600
				bgH = rb.TotalSec / 3600
				speedup = ri.TotalSec / rb.TotalSec
			}
			b.ReportMetric(intelH, "intel_h")
			b.ReportMetric(bgH, "bgq_h")
			b.ReportMetric(speedup, "speedup_x")
			b.ReportMetric(speedup*2.9/1.6, "freq_adj_x")
		})
	}
}

// BenchmarkScalingLinearity regenerates the §I/§VIII scaling claim: the
// speedup curve over MPI rank counts, near-linear at first and sub-linear
// past 4096 ranks.
func BenchmarkScalingLinearity(b *testing.B) {
	m := bgq.BlueGeneQ()
	counts := workload.Preset50h(false)
	base := simulateOrFatal(b, m, bgq.Config{Ranks: 64, RanksPerNode: 4, ThreadsPerRank: 16}, counts, nil).TotalSec
	for _, ranks := range []int{64, 256, 1024, 4096, 8192} {
		cfg := bgq.Config{Ranks: ranks, RanksPerNode: 4, ThreadsPerRank: 16}
		b.Run(fmt.Sprintf("ranks=%d", ranks), func(b *testing.B) {
			var total float64
			for i := 0; i < b.N; i++ {
				total = simulateOrFatal(b, m, cfg, counts, nil).TotalSec
			}
			sp := base / total
			b.ReportMetric(total, "model_s")
			b.ReportMetric(sp, "speedup_x")
			b.ReportMetric(sp/(float64(ranks)/64), "parallel_eff")
		})
	}
}

// BenchmarkLoadBalanceAblation regenerates the §V-C study: simulated run
// time under round-robin vs the paper's sorted-greedy partitioning, using
// the real partitioner code on a synthetic utterance-length distribution.
func BenchmarkLoadBalanceAblation(b *testing.B) {
	m := bgq.BlueGeneQ()
	counts := workload.Preset50h(false)
	cfg := bgq.Config{Ranks: 1024, RanksPerNode: 4, ThreadsPerRank: 16}
	lengths := corpus.GenerateLengths(corpus.Config{Seed: 42, NumUtterances: 45000})
	for _, part := range []corpus.Partitioner{corpus.RoundRobin{}, corpus.SortedGreedy{}} {
		b.Run(part.Name(), func(b *testing.B) {
			var total float64
			for i := 0; i < b.N; i++ {
				shards := workload.ShardsFromPartition(lengths, cfg.Ranks-1, part, counts.TrainFrames)
				total = simulateOrFatal(b, m, cfg, counts, shards).TotalSec
			}
			b.ReportMetric(total, "model_s")
		})
	}
}

// BenchmarkWeightSyncBcastVsP2P regenerates the §V-B comparison: the
// socket-era serial point-to-point weight push versus the MPI broadcast
// used after the rewrite.
func BenchmarkWeightSyncBcastVsP2P(b *testing.B) {
	m := bgq.BlueGeneQ()
	counts := workload.Preset50h(false)
	for _, ranks := range []int{256, 1024, 4096} {
		cfg := bgq.Config{Ranks: ranks, RanksPerNode: 4, ThreadsPerRank: 16}
		b.Run(fmt.Sprintf("ranks=%d", ranks), func(b *testing.B) {
			var p2p, bcast float64
			for i := 0; i < b.N; i++ {
				shape, err := torusShapeFor(cfg)
				if err != nil {
					b.Fatal(err)
				}
				p2p = workload.WeightSyncP2PTime(m, cfg, counts.ParamBytes())
				bcast = m.BcastTime(counts.ParamBytes(), cfg, shape)
			}
			b.ReportMetric(p2p, "p2p_s")
			b.ReportMetric(bcast, "bcast_s")
			b.ReportMetric(p2p/bcast, "ratio_x")
		})
	}
}

// BenchmarkRealDistributedHF measures actual wall time of the real
// trainer over the in-process MPI fabric at increasing rank counts — the
// laptop-scale ground truth anchoring the simulator.
func BenchmarkRealDistributedHF(b *testing.B) {
	c := corpus.Generate(corpus.Config{
		Seed: 7, NumUtterances: 40, MeanSeconds: 0.3, FeatDim: 10, Context: 1, NumStates: 6,
	})
	train, held := c.Split(8)
	prob := core.Problem{
		Topo:           nn.NewTopology(c.InputDim(), 24, c.NumStates),
		Train:          train,
		Heldout:        held,
		Criterion:      core.CrossEntropy,
		SampleFraction: 1,
		Seed:           3,
	}
	cfg := hf.Config{MaxIterations: 3, CG: hf.CGOpts{MaxIters: 15, MinIters: 3}}
	for _, ranks := range []int{2, 3, 5} {
		b.Run(fmt.Sprintf("ranks=%d", ranks), func(b *testing.B) {
			sess, err := core.NewSession(prob, core.WithRanks(ranks))
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				if _, err := sess.Run(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFaultEviction measures what surviving a worker death costs the
// elastic runtime: identical 4-rank runs with and without a kill injected
// at HF iteration 2, plus the rewind latency and heartbeat RTT telemetry
// of the faulted run. The comparison is written to BENCH_fault.json.
func BenchmarkFaultEviction(b *testing.B) {
	c := corpus.Generate(corpus.Config{
		Seed: 7, NumUtterances: 40, MeanSeconds: 0.3, FeatDim: 10, Context: 1, NumStates: 6,
	})
	train, held := c.Split(8)
	prob := core.Problem{
		Topo:           nn.NewTopology(c.InputDim(), 24, c.NumStates),
		Train:          train,
		Heldout:        held,
		Criterion:      core.CrossEntropy,
		SampleFraction: 1,
		Seed:           3,
	}
	cfg := hf.Config{MaxIterations: 4, CG: hf.CGOpts{MaxIters: 15, MinIters: 3}}
	sched, err := mpi.ParseFaultSchedule("kill:rank=2,epoch=2")
	if err != nil {
		b.Fatal(err)
	}
	pol := core.FaultPolicy{
		FaultConfig: mpi.FaultConfig{OpDeadline: 5 * time.Second},
		Backoff:     time.Millisecond,
		Inject:      sched,
	}

	run := func(b *testing.B, opts ...core.Option) (time.Duration, *core.MasterResult) {
		sess, err := core.NewSession(prob, append([]core.Option{core.WithRanks(4)}, opts...)...)
		if err != nil {
			b.Fatal(err)
		}
		var res *core.MasterResult
		start := time.Now()
		for i := 0; i < b.N; i++ {
			if res, err = sess.Run(cfg); err != nil {
				b.Fatal(err)
			}
		}
		return time.Since(start) / time.Duration(b.N), res
	}

	var baseline, faulted time.Duration
	var faultRes *core.MasterResult
	ob := &obs.Observer{Metrics: obs.NewRegistry()}
	b.Run("baseline", func(b *testing.B) {
		baseline, _ = run(b)
	})
	b.Run("eviction", func(b *testing.B) {
		faulted, faultRes = run(b,
			core.WithObserver(ob),
			core.WithFaults(pol),
		)
	})
	if baseline <= 0 || faulted <= 0 || faultRes == nil {
		return
	}
	degradedPct := (float64(faulted)/float64(baseline) - 1) * 100
	b.ReportMetric(degradedPct, "degraded_pct")

	var rewindMeanNs, heartbeatP50Ns float64
	var reshardFrames int64
	if reg := ob.Registry(); reg != nil {
		snap := reg.Snapshot()
		for _, h := range snap.Histograms {
			switch h.Name {
			case "core.elastic.rewind_ns":
				rewindMeanNs = h.Mean
			case "core.elastic.heartbeat_rtt_ns":
				heartbeatP50Ns = float64(h.P50)
			}
		}
		for _, cnt := range snap.Counters {
			if cnt.Name == "core.elastic.reshard_frames" {
				reshardFrames = cnt.Value
			}
		}
	}
	out, err := json.MarshalIndent(map[string]any{
		"baseline_ns_per_run": baseline.Nanoseconds(),
		"faulted_ns_per_run":  faulted.Nanoseconds(),
		"degraded_pct":        degradedPct,
		"evictions":           len(faultRes.Fault.Evictions),
		"final_workers":       faultRes.Fault.FinalWorkers,
		"rewind_mean_ns":      rewindMeanNs,
		"heartbeat_p50_ns":    heartbeatP50Ns,
		"reshard_frames":      reshardFrames,
	}, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile("BENCH_fault.json", append(out, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkRealSerialHFvsSGD measures the real serial trainers — the
// §II-A methods comparison at laptop scale.
func BenchmarkRealSerialHFvsSGD(b *testing.B) {
	c := corpus.Generate(corpus.Config{
		Seed: 8, NumUtterances: 40, MeanSeconds: 0.3, FeatDim: 10, Context: 1, NumStates: 6,
	})
	train, held := c.Split(8)
	prob := core.Problem{
		Topo:           nn.NewTopology(c.InputDim(), 24, c.NumStates),
		Train:          train,
		Heldout:        held,
		Criterion:      core.CrossEntropy,
		SampleFraction: 0.5,
		Seed:           3,
	}
	b.Run("HF", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := core.TrainSerialHF(prob, hf.Config{MaxIterations: 3, CG: hf.CGOpts{MaxIters: 15, MinIters: 3}}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("SGD", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := core.TrainSGD(prob, core.SGDConfig{Epochs: 3, Seed: 1}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkRealTrainingMethods compares the real trainers of §II-A at
// laptop scale on identical data: serial HF and serial minibatch SGD —
// wall time plus final held-out loss.
func BenchmarkRealTrainingMethods(b *testing.B) {
	c := corpus.Generate(corpus.Config{
		Seed: 12, NumUtterances: 60, MeanSeconds: 0.3, FeatDim: 10, Context: 1, NumStates: 6,
	})
	train, held := c.Split(6)
	prob := core.Problem{
		Topo:           nn.NewTopology(c.InputDim(), 24, c.NumStates),
		Train:          train,
		Heldout:        held,
		Criterion:      core.CrossEntropy,
		SampleFraction: 0.5,
		Seed:           3,
	}
	b.Run("HF-serial", func(b *testing.B) {
		var loss float64
		for i := 0; i < b.N; i++ {
			_, res, err := core.TrainSerialHF(prob, hf.Config{MaxIterations: 4})
			if err != nil {
				b.Fatal(err)
			}
			loss = res.FinalLoss
		}
		b.ReportMetric(loss, "final_loss")
	})
	b.Run("SGD-serial", func(b *testing.B) {
		var loss float64
		for i := 0; i < b.N; i++ {
			_, res, err := core.TrainSGD(prob, core.SGDConfig{Epochs: 4, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			loss = res.FinalLoss
		}
		b.ReportMetric(loss, "final_loss")
	})
}

// allocGateMargin is how many extra allocations per op any alloc-gate
// case may show over its recorded BENCH_alloc.json baseline before
// TestAllocGate fails. The measured counts are exactly deterministic
// (fixed shapes, single-threaded kernels, seeded inputs), so the margin
// only absorbs Go-release drift in library internals; a structural
// regression — boxing per CG step, a per-panel buffer in the packed
// GEMM — adds allocations proportional to the iteration count and blows
// past it immediately.
const allocGateMargin float64 = 4

// allocBaselineFile is the checked-in baseline. TestAllocGate only reads
// it; `make bench_alloc` is its only writer, so a regressed run can never
// replace the numbers it is judged against.
const allocBaselineFile = "BENCH_alloc.json"

// allocCase is one measured hot path of the allocation gate.
type allocCase struct {
	name string
	fn   func()
}

// allocGateCases pins the steady-state allocation behavior of the
// numeric hot paths: the packed GEMM under the paper's three DNN shape
// classes (square, minibatch×layer, small-K output layer) and a full CG
// inner solve. The GEMM cases run the single-threaded Blocked kernel so
// the counts are machine-independent (the Parallel driver sizes its
// worker pool from GOMAXPROCS); per-call allocations there are the
// blocking driver's packing buffers, which is why the count must not
// scale with shape. The per-step zero-allocation property of the CG
// kernel itself is pinned separately by the white-box TestZeroAlloc
// tests in internal/blas and internal/hf.
func allocGateCases() []allocCase {
	gemmCase := func(m, n, k int) func() {
		rng := rand.New(rand.NewSource(1))
		a := tensor.RandMatrix(rng, m, k, 1)
		bb := tensor.RandMatrix(rng, k, n, 1)
		c := tensor.NewMatrix(m, n)
		return func() {
			blas.GemmWith(blas.Config{Impl: blas.Blocked, Threads: 1}, blas.NoTrans, blas.NoTrans, 1, a, bb, 0, c)
		}
	}
	cgCase := func(dim int) func() {
		g := make(tensor.Vector, dim)
		d0 := make(tensor.Vector, dim)
		for i := range g {
			g[i] = 1 + float32(i%5)
		}
		// A diagonal SPD operator with 17 distinct eigenvalues: CG needs a
		// deterministic handful of iterations, never breaks down.
		apply := func(v, out tensor.Vector) {
			for i := range v {
				out[i] += (1 + float32(i%17)) * v[i]
			}
		}
		return func() {
			hf.CGMinimize(apply, g, d0, hf.CGOpts{MaxIters: 20, MinIters: 3})
		}
	}
	return []allocCase{
		{"gemm_square_256x256x256", gemmCase(256, 256, 256)},
		{"gemm_layer_512x1024x1024", gemmCase(512, 1024, 1024)},
		{"gemm_smallk_512x512x40", gemmCase(512, 512, 40)},
		{"cg_minimize_dim4096", cgCase(4096)},
	}
}

// checkAllocGate measures every case and compares its allocs/op with
// the baseline recorded in file. It fails closed: a missing or
// unparseable file, or a case the file has no value for, is an error,
// and nothing is ever written. A case that measures below its baseline
// fails too, asking for a re-record, so the margin always counts from
// what the code does today.
func checkAllocGate(file string, cases []allocCase) error {
	data, err := os.ReadFile(file)
	if err != nil {
		return fmt.Errorf("alloc gate: no baseline (regenerate with `make bench_alloc`): %w", err)
	}
	var baseline map[string]map[string]float64
	if err := json.Unmarshal(data, &baseline); err != nil {
		return fmt.Errorf("alloc gate: %s: %w", file, err)
	}
	for _, tc := range cases {
		prev, ok := baseline[tc.name]["allocs_per_op"]
		if !ok {
			return fmt.Errorf("alloc gate: %s records no allocs_per_op for %s", file, tc.name)
		}
		got := testing.AllocsPerRun(3, tc.fn)
		if got > prev+allocGateMargin {
			return fmt.Errorf("alloc gate: %s: %.0f allocs/op regressed past baseline %.0f + %.0f margin",
				tc.name, got, prev, allocGateMargin)
		}
		// A stale baseline would widen the margin by the improvement, so
		// a gain must be recorded before it is banked.
		if got < prev {
			return fmt.Errorf("alloc gate: %s: improved from %.0f to %.0f allocs/op: re-record with `make bench_alloc`",
				tc.name, prev, got)
		}
	}
	return nil
}

// TestAllocGate holds the hot paths to the checked-in allocation
// baseline (tier-1 and `make verify` both run it), then pins the gate's
// two safety properties: every way of having no usable baseline is a
// failure, not a silent pass, and a regressed run leaves the baseline
// file byte-identical.
func TestAllocGate(t *testing.T) {
	cases := allocGateCases()
	if err := checkAllocGate(allocBaselineFile, cases); err != nil {
		t.Fatal(err)
	}

	small := cases[2]
	dir := t.TempDir()
	for name, content := range map[string]string{
		"unparseable": "{not json",
		"novalue":     `{"` + small.name + `": {}}`,
		"stale":       `{"` + small.name + `": {"allocs_per_op": 1000}}`,
	} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range []string{"moved-away", "unparseable", "novalue"} {
		if checkAllocGate(filepath.Join(dir, name), []allocCase{small}) == nil {
			t.Errorf("baseline %s: gate passed, want failure", name)
		}
	}
	if err := checkAllocGate(filepath.Join(dir, "stale"), []allocCase{small}); err == nil ||
		!strings.Contains(err.Error(), "improved from 1000 to") || !strings.Contains(err.Error(), "make bench_alloc") {
		t.Errorf("stale baseline: gate said %v, want the improvement and how to re-record", err)
	}

	before, err := os.ReadFile(allocBaselineFile)
	if err != nil {
		t.Fatal(err)
	}
	var sink [][]byte
	regressed := allocCase{small.name, func() {
		small.fn()
		sink = sink[:0]
		for i := 0; i <= int(allocGateMargin); i++ {
			sink = append(sink, make([]byte, 64)) // the regression: extra allocations per call
		}
	}}
	if checkAllocGate(allocBaselineFile, []allocCase{regressed}) == nil {
		t.Error("regressed case passed the gate")
	}
	if after, _ := os.ReadFile(allocBaselineFile); !bytes.Equal(before, after) {
		t.Errorf("%s changed under a failing gate run", allocBaselineFile)
	}
}

// BenchmarkAllocGate re-measures every alloc-gate case and rewrites
// BENCH_alloc.json (`make bench_alloc`); review the diff before
// committing it — TestAllocGate judges later runs against it.
func BenchmarkAllocGate(b *testing.B) {
	results := map[string]map[string]float64{}
	for _, tc := range allocGateCases() {
		results[tc.name] = map[string]float64{"allocs_per_op": testing.AllocsPerRun(3, tc.fn)}
	}
	out, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile(allocBaselineFile, append(out, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
}

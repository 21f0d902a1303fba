package workload

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/bgq"
	"repro/internal/torus"
)

// PhaseReport accumulates one rank's activity in one named function
// (load_data, gradient_loss, worker_curvature_product, ...), mirroring the
// per-function breakdowns of the paper's Figures 2-5.
type PhaseReport struct {
	ComputeSec float64
	Cycles     bgq.CycleBreakdown
	CollSec    float64
	P2PSec     float64
	CollBytes  int64
	P2PBytes   int64
}

// RankReport maps function names to their accumulated activity.
type RankReport map[string]*PhaseReport

func (r RankReport) phase(name string) *PhaseReport {
	p := r[name]
	if p == nil {
		p = &PhaseReport{}
		r[name] = p
	}
	return p
}

// phaseNames returns the report's function names in sorted order — the
// deterministic iteration every float fold over a RankReport must use,
// so totals are bit-identical run to run (maporderfloat).
func (r RankReport) phaseNames() []string {
	names := make([]string, 0, len(r))
	for name := range r {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// TotalMPI sums collective and point-to-point time across functions.
func (r RankReport) TotalMPI() (coll, p2p float64) {
	for _, name := range r.phaseNames() {
		coll += r[name].CollSec
		p2p += r[name].P2PSec
	}
	return coll, p2p
}

// TotalCompute sums compute seconds across functions.
func (r RankReport) TotalCompute() float64 {
	var s float64
	for _, name := range r.phaseNames() {
		s += r[name].ComputeSec
	}
	return s
}

// scale multiplies every phase except those in skip by f.
func (r RankReport) scale(f float64, skip map[string]bool) {
	for name, p := range r {
		if skip[name] {
			continue
		}
		p.ComputeSec *= f
		p.CollSec *= f
		p.P2PSec *= f
		p.CollBytes = int64(float64(p.CollBytes) * f)
		p.P2PBytes = int64(float64(p.P2PBytes) * f)
		p.Cycles.Committed *= f
		p.Cycles.AXUStall *= f
		p.Cycles.IUEmpty *= f
	}
}

// RunResult is the outcome of one simulated training run.
type RunResult struct {
	Machine string
	Config  bgq.Config
	// LoadDataSec is the one-time data distribution phase.
	LoadDataSec float64
	// IterSec is the duration of one HF iteration (straggler-gated).
	IterSec float64
	// TotalSec = LoadDataSec + HFIters·IterSec, the Figure 1 quantity.
	TotalSec float64
	// Master is rank 0's per-function report, scaled to the full run.
	Master RankReport
	// WorkerMean averages the worker reports, scaled to the full run.
	WorkerMean RankReport
}

// timeline is a simulated run as one clock per rank. Algorithm 1 ends
// every phase in a collective, so between two collectives each rank runs
// straight-line code: compute advances only its own clock, and the
// clocks meet at collectives.
type timeline struct {
	m       bgq.MachineSpec
	cfg     bgq.Config
	clock   []float64
	order   []int // ranks in the order they reached the last collective
	reports []RankReport
}

func newTimeline(m bgq.MachineSpec, cfg bgq.Config) *timeline {
	tl := &timeline{m: m, cfg: cfg, clock: make([]float64, cfg.Ranks),
		order: make([]int, cfg.Ranks), reports: make([]RankReport, cfg.Ranks)}
	for r := range tl.reports {
		tl.order[r] = r
		tl.reports[r] = make(RankReport)
	}
	return tl
}

// collective performs one straggler-gated collective of modeled duration
// hold, charging sync wait plus hold to masterPhase on rank 0 and to
// workerPhase on the workers. Every rank is released at max(arrival) +
// hold. The rank that closes the gate waits maxT − arrival and every
// other rank (release − arrival) − hold, which for a rank tied at maxT
// is not exactly zero. Ranks arrive in clock order, ties in the order
// they reached the previous collective, so the closer is the last of
// that order.
func (tl *timeline) collective(masterPhase, workerPhase string, hold float64, bytes int64) {
	sort.SliceStable(tl.order, func(i, j int) bool { return tl.clock[tl.order[i]] < tl.clock[tl.order[j]] })
	closer := tl.order[len(tl.order)-1]
	maxT := tl.clock[closer]
	release := maxT + hold
	for r, arrival := range tl.clock {
		syncW := (release - arrival) - hold
		if r == closer {
			syncW = maxT - arrival
		}
		phase := workerPhase
		if r == 0 {
			phase = masterPhase
		}
		rep := tl.reports[r].phase(phase)
		rep.CollSec += syncW + hold
		rep.CollBytes += bytes
		tl.clock[r] = release
	}
}

// compute advances the rank through flops of work at the given rate,
// recording seconds and the modeled cycle breakdown.
func (tl *timeline) compute(rank int, phase string, flops, rate float64, scalar bool) {
	if flops <= 0 {
		return
	}
	sec := flops / rate
	tl.clock[rank] += sec
	rep := tl.reports[rank].phase(phase)
	rep.ComputeSec += sec
	rep.Cycles.Add(tl.m.CycleSplit(sec, tl.cfg, scalar))
}

// Simulate replays one training run (load_data + one HF iteration,
// scaled to HFIters) of the given workload on the machine under the
// configuration. shards optionally gives each worker's training-frame
// share (len = ranks−1); nil means a perfectly even split. Sample and
// held-out shards scale proportionally. Reports in the result are scaled
// to the full run.
func Simulate(m bgq.MachineSpec, cfg bgq.Config, counts AlgoCounts, shards []int64) (*RunResult, error) {
	if err := cfg.Validate(m); err != nil {
		return nil, err
	}
	if err := counts.Validate(); err != nil {
		return nil, err
	}
	workers := cfg.Ranks - 1
	if workers < 1 {
		return nil, fmt.Errorf("workload: need ≥2 ranks, have %d", cfg.Ranks)
	}
	if shards == nil {
		shards = EvenShards(counts.TrainFrames, workers)
	}
	if len(shards) != workers {
		return nil, fmt.Errorf("workload: %d shards for %d workers", len(shards), workers)
	}
	var shardTotal int64
	for _, s := range shards {
		if s < 0 {
			return nil, fmt.Errorf("workload: negative shard")
		}
		shardTotal += s
	}
	if shardTotal == 0 {
		return nil, fmt.Errorf("workload: empty shards")
	}

	var shape torus.Shape
	if m.HWCollectives {
		var err error
		shape, err = torus.ShapeFor(cfg.Nodes())
		if err != nil {
			return nil, err
		}
	}

	tl := newTimeline(m, cfg)
	paramBytes := counts.ParamBytes()
	cgIters := int(math.Round(counts.CGItersPerHF))
	if cgIters < 1 {
		cgIters = 1
	}
	evals := int(math.Round(counts.LossEvalsPerHF))
	if evals < 1 {
		evals = 1
	}
	bcastT := m.BcastTime(paramBytes, cfg, shape)
	reduceT := m.ReduceTime(paramBytes, cfg, shape)
	smallReduceT := m.ReduceTime(16, cfg, shape)
	gemmRate := m.GemmRate(cfg)
	scalarRate := m.ScalarRate(cfg)
	// The master's CG vector arithmetic: memory-bound axpy/dot traffic
	// (≈12 bytes per flop) on its share of node memory bandwidth, capped
	// by the scalar issue rate.
	vecRate := math.Min(m.MemBandwidth/float64(cfg.RanksPerNode)/12, scalarRate)

	// Curvature samples are drawn at utterance granularity (§IV: "a small
	// percentage of the data" per CG round): distribute whole utterances
	// over workers. Once there are fewer sampled utterances than workers,
	// per-worker curvature work stops shrinking — the utterance-floor that
	// bends the scaling curve past 4096 ranks and the source of the
	// worker_curvature_product variance in the paper's Figure 3.
	sampleUtts := counts.SampleFrames / counts.MeanUttFrames
	if sampleUtts < 1 {
		sampleUtts = 1
	}
	baseUtts := sampleUtts / int64(workers)
	extraUtts := sampleUtts % int64(workers)
	// Per worker: training, curvature-sample and held-out frames, and the
	// rate of the curvature GEMMs. The sample is a small minibatch: it
	// cannot feed all the cores of a fat rank (SmallBatchGemmRate).
	trainF := make([]float64, cfg.Ranks)
	sampleF := make([]float64, cfg.Ranks)
	heldF := make([]float64, cfg.Ranks)
	smallGemmRate := make([]float64, cfg.Ranks)
	for w := 1; w < cfg.Ranks; w++ {
		uttCount := baseUtts
		if int64(w) <= extraUtts {
			uttCount++
		}
		frac := float64(shards[w-1]) / float64(shardTotal)
		trainF[w] = float64(shards[w-1])
		sampleF[w] = float64(uttCount * counts.MeanUttFrames)
		heldF[w] = frac * float64(counts.HeldFrames)
		smallGemmRate[w] = m.SmallBatchGemmRate(cfg, uttCount)
	}

	// load_data: serialized point-to-point shard distribution — the
	// master-side bottleneck that grows with rank count (Fig 2/4). Each
	// worker waits from time 0 for its shard.
	ld := tl.reports[0].phase("load_data")
	for w := 1; w < cfg.Ranks; w++ {
		bytes := shards[w-1] * counts.BytesPerFrame
		// Marshaling the shard (memory-bound copy) plus the fixed
		// per-message software setup, both on the master's CPU: the
		// reason master load_data cycles grow with rank count in
		// Figure 2 even at constant total bytes.
		tl.compute(0, "load_data", float64(bytes)/4+m.P2PSetupSec*vecRate, vecRate, true)
		// The master is the only sender on its injection link, so each
		// message occupies it as soon as its software latency is paid.
		t0 := tl.clock[0]
		tl.clock[0] += m.MPIAlphaSec
		tl.clock[0] += m.InjectionTime(bytes)
		ld.P2PSec += tl.clock[0] - t0
		ld.P2PBytes += bytes
		hops := 0
		if m.HWCollectives {
			hops = shape.HopCount(0, (w/cfg.RanksPerNode)%shape.Size())
		}
		tl.clock[w] = tl.clock[0] + float64(hops)*m.HopLatencySec
		wl := tl.reports[w].phase("load_data")
		wl.P2PSec += tl.clock[w]
		wl.P2PBytes += bytes
	}
	tl.collective("load_data", "load_data", m.MPIAlphaSec, 0) // startup barrier
	loadDataEnd := tl.clock[0]

	// --- one HF iteration ---
	tl.collective("sync_weights_master", "sync_weights_worker", bcastT, paramBytes)

	for w := 1; w < cfg.Ranks; w++ {
		tl.compute(w, "gradient_loss", trainF[w]*counts.GradFlopsPerFrame(), gemmRate, false)
		if counts.SeqScalarFlopsPerFrame > 0 {
			tl.compute(w, "gradient_loss", trainF[w]*counts.SeqScalarFlopsPerFrame, scalarRate, true)
		}
	}
	tl.collective("gradient_loss", "gradient_loss", reduceT, paramBytes)
	tl.collective("gradient_loss", "gradient_loss", smallReduceT, 16)

	for i := 0; i < cgIters; i++ {
		tl.compute(0, "cg_minimize", cgVectorFlopsPerParam*float64(counts.Params), vecRate, true)
		tl.collective("cg_minimize", "worker_curvature_product", bcastT, paramBytes)
		for w := 1; w < cfg.Ranks; w++ {
			tl.compute(w, "worker_curvature_product", sampleF[w]*counts.GNFlopsPerFrame(), smallGemmRate[w], false)
		}
		tl.collective("cg_minimize", "worker_curvature_product", reduceT, paramBytes)
	}

	for e := 0; e < evals; e++ {
		// θ+αd trial construction.
		tl.compute(0, "loss_eval", 2*float64(counts.Params), vecRate, true)
		tl.collective("loss_eval", "loss_eval", bcastT, paramBytes)
		for w := 1; w < cfg.Ranks; w++ {
			tl.compute(w, "loss_eval", heldF[w]*counts.EvalFlopsPerFrame(), gemmRate, false)
			if counts.SeqScalarFlopsPerFrame > 0 {
				tl.compute(w, "loss_eval", heldF[w]*counts.SeqScalarFlopsPerFrame, scalarRate, true)
			}
		}
		tl.collective("loss_eval", "loss_eval", smallReduceT, 16)
	}

	iterSec := tl.clock[0] - loadDataEnd
	res := &RunResult{
		Machine:     m.Name,
		Config:      cfg,
		LoadDataSec: loadDataEnd,
		IterSec:     iterSec,
		TotalSec:    loadDataEnd + float64(counts.HFIters)*iterSec,
		Master:      tl.reports[0],
		WorkerMean:  meanReports(tl.reports[1:]),
	}
	// Scale per-iteration phases to the full run; load_data happened once.
	skip := map[string]bool{"load_data": true}
	res.Master.scale(float64(counts.HFIters), skip)
	res.WorkerMean.scale(float64(counts.HFIters), skip)
	return res, nil
}

// meanReports averages per-phase activity across ranks.
func meanReports(reports []RankReport) RankReport {
	out := make(RankReport)
	n := float64(len(reports))
	for _, r := range reports {
		for name, p := range r {
			dst := out.phase(name)
			dst.ComputeSec += p.ComputeSec / n
			dst.CollSec += p.CollSec / n
			dst.P2PSec += p.P2PSec / n
			dst.CollBytes += int64(float64(p.CollBytes) / n)
			dst.P2PBytes += int64(float64(p.P2PBytes) / n)
			dst.Cycles.Committed += p.Cycles.Committed / n
			dst.Cycles.AXUStall += p.Cycles.AXUStall / n
			dst.Cycles.IUEmpty += p.Cycles.IUEmpty / n
		}
	}
	return out
}

// EvenShards splits total frames evenly over workers (remainder spread
// one frame at a time).
func EvenShards(total int64, workers int) []int64 {
	out := make([]int64, workers)
	base := total / int64(workers)
	rem := total % int64(workers)
	for i := range out {
		out[i] = base
		if int64(i) < rem {
			out[i]++
		}
	}
	return out
}

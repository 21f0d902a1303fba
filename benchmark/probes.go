package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/blas"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/hf"
	"repro/internal/mpi"
	"repro/internal/nn"
	"repro/internal/serve"
	"repro/internal/tensor"
)

// Probes time public calls of one layer at the workloads' own shapes. They
// run after the traced workload, in the same process, and report medians.

const (
	probeBudget = 150 * time.Millisecond // minimum time spent repeating one call
	probeBatch  = 256                    // core.Problem's default BatchFrames
	smallFloats = 4552                   // the narrow model's parameters: 18,208 B
	largeFloats = 346784                 // the wide model's parameters: 1,387,136 B
)

// timeCalls warms fn once, then repeats it until both budget and minCalls
// are spent, and returns the median time of one call.
func timeCalls(budget time.Duration, minCalls int, fn func()) time.Duration {
	each := sortedCalls(budget, minCalls, fn)
	return each[len(each)/2]
}

// sortedCalls is timeCalls' loop: the time of every call, fastest first.
func sortedCalls(budget time.Duration, minCalls int, fn func()) []time.Duration {
	fn()
	var each []time.Duration
	for start := time.Now(); len(each) < minCalls || time.Since(start) < budget; {
		t0 := time.Now()
		fn()
		each = append(each, time.Since(t0))
	}
	sort.Slice(each, func(i, j int) bool { return each[i] < each[j] })
	return each
}

// allocPerCall is the heap allocation of one fn call, in bytes.
func allocPerCall(calls int, fn func()) float64 {
	fn()
	before := sampleProc().allocBytes
	for i := 0; i < calls; i++ {
		fn()
	}
	return float64(sampleProc().allocBytes-before) / float64(calls)
}

type probeResults map[string]float64

// shapeClasses are the two training models the probes size themselves by.
var shapeClasses = []struct {
	name   string
	sizes  []int
	params int
}{
	{"wide", topoWide, largeFloats},
	{"narrow", topoNarrow, smallFloats},
}

// runProbes runs every layer probe; seed varies the operand values, never
// the shapes.
func runProbes(seed int64) (probeResults, error) {
	out := probeResults{}
	rng := rand.New(rand.NewSource(seed))
	probeBlas(out, rng)
	probeNN(out, rng)
	probeHF(out, rng)
	probeCorpus(out, seed)
	if err := probeMPI(out); err != nil {
		return nil, fmt.Errorf("mpi probe: %w", err)
	}
	if err := probeCheckpoint(out, rng); err != nil {
		return nil, fmt.Errorf("checkpoint probe: %w", err)
	}
	if err := probeServe(out, rng); err != nil {
		return nil, fmt.Errorf("serve probe: %w", err)
	}
	return out, nil
}

// --- blas ---

var fmaSink atomic.Uint32

// fmaChains runs n steps of eight independent multiply-add chains: the
// most scalar float32 arithmetic one core retires from compiled Go, the
// ceiling blas.Gemm's pure-Go micro-kernel can approach.
func fmaChains(n int) float32 {
	const m, c = float32(0.9999999), float32(1e-7)
	a0, a1, a2, a3 := float32(1.0), float32(1.1), float32(1.2), float32(1.3)
	a4, a5, a6, a7 := float32(1.4), float32(1.5), float32(1.6), float32(1.7)
	for i := 0; i < n; i++ {
		a0, a1, a2, a3 = a0*m+c, a1*m+c, a2*m+c, a3*m+c
		a4, a5, a6, a7 = a4*m+c, a5*m+c, a6*m+c, a7*m+c
	}
	return a0 + a1 + a2 + a3 + a4 + a5 + a6 + a7
}

// peakGflops runs fmaChains on every processor at once. A peak is what the
// machine can do, so it is taken from the fastest repetition, not the
// median: a neighbour that borrows a core for a moment halves the others.
func peakGflops() float64 {
	const steps = 1 << 24
	threads := runtime.GOMAXPROCS(0)
	d := sortedCalls(probeBudget, 3, func() {
		var wg sync.WaitGroup
		for t := 0; t < threads; t++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				fmaSink.Add(uint32(fmaChains(steps)))
			}()
		}
		wg.Wait()
	})[0]
	return float64(threads) * steps * 8 * 2 / d.Seconds() / 1e9
}

// gemmCase is one GEMM call shape: op(A) is m×k, op(B) is k×n.
type gemmCase struct {
	tA, tB  blas.Transpose
	m, k, n int
	beta    float32
}

func (g gemmCase) flops() float64 { return 2 * float64(g.m) * float64(g.k) * float64(g.n) }

// operands allocates matrices stored the way the transpose flags expect.
func (g gemmCase) operands(rng *rand.Rand) (a, b, c *tensor.Matrix) {
	ar, ac := g.m, g.k
	if g.tA == blas.Trans {
		ar, ac = ac, ar
	}
	br, bc := g.k, g.n
	if g.tB == blas.Trans {
		br, bc = bc, br
	}
	return tensor.RandMatrix(rng, ar, ac, 1), tensor.RandMatrix(rng, br, bc, 1), tensor.NewMatrix(g.m, g.n)
}

// time returns the median duration of blas.Gemm on this shape.
func (g gemmCase) time(rng *rand.Rand) time.Duration {
	a, b, c := g.operands(rng)
	return timeCalls(probeBudget, 5, func() { blas.Gemm(g.tA, g.tB, 1, a, b, g.beta, c) })
}

func probeBlas(out probeResults, rng *rand.Rand) {
	out["blas.peak_gflops"] = peakGflops()
	wide := []struct {
		name string
		gemmCase
	}{
		{"wide_nn", gemmCase{blas.NoTrans, blas.NoTrans, probeBatch, 384, 384, 0}}, // back-propagated delta
		{"wide_tn", gemmCase{blas.Trans, blas.NoTrans, 384, probeBatch, 384, 1}},   // weight gradient
		{"wide_nt", gemmCase{blas.NoTrans, blas.Trans, probeBatch, 384, 384, 0}},   // forward
	}
	for _, g := range wide {
		out["blas.gemm_gflops."+g.name] = g.flops() / g.time(rng).Seconds() / 1e9
	}
	out["blas.gemm_peak_share.wide_nn"] = out["blas.gemm_gflops.wide_nn"] / out["blas.peak_gflops"]

	narrow := gemmCase{blas.NoTrans, blas.NoTrans, probeBatch, 100, 32, 0}
	out["blas.gemm_call_us.narrow_nn"] = micros(narrow.time(rng))
	a, b, c := narrow.operands(rng)
	out["blas.gemm_alloc_kb.narrow_nn"] = allocPerCall(50, func() { blas.Gemm(narrow.tA, narrow.tB, 1, a, b, 0, c) }) / 1e3

	// The serving path: a 2-row batch through the first layer of the
	// served model, single-threaded over a caller-owned workspace.
	ws := &blas.Workspace{}
	x, w, z := tensor.RandMatrix(rng, 2, 100, 1), tensor.RandMatrix(rng, 256, 100, 1), tensor.NewMatrix(2, 256)
	out["blas.gemm_call_us.serve_ws"] = micros(timeCalls(probeBudget, 5, func() {
		blas.GemmWith(blas.Config{Workspace: ws}, blas.NoTrans, blas.Trans, 1, x, w, 0, z)
	}))

	u, v := tensor.RandVector(rng, largeFloats, 1), tensor.RandVector(rng, largeFloats, 1)
	out["blas.axpy_gbps"] = 12 * largeFloats / timeCalls(probeBudget, 5, func() { blas.Axpy(0.5, u, v) }).Seconds() / 1e9
	var dot float64
	out["blas.dot_gbps"] = 8 * largeFloats / timeCalls(probeBudget, 5, func() { dot += blas.Dot(u, v) }).Seconds() / 1e9
	fmaSink.Add(uint32(dot))
}

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// --- nn ---

// lossGradGemms lists the GEMM calls nn.Network.LossGrad makes on one
// batch: per layer a forward product and a weight-gradient product, and
// above the first layer the product that carries delta down.
func lossGradGemms(sizes []int, batch int) []gemmCase {
	var out []gemmCase
	for l := 0; l+1 < len(sizes); l++ {
		in, width := sizes[l], sizes[l+1]
		out = append(out,
			gemmCase{blas.NoTrans, blas.Trans, batch, in, width, 0},
			gemmCase{blas.Trans, blas.NoTrans, width, batch, in, 1})
		if l > 0 {
			out = append(out, gemmCase{blas.NoTrans, blas.NoTrans, batch, width, in, 0})
		}
	}
	return out
}

func probeNN(out probeResults, rng *rand.Rand) {
	for _, shape := range shapeClasses {
		name, sizes := shape.name, shape.sizes
		net := nn.New(nn.NewTopology(sizes...))
		net.InitGlorot(rng)
		x := tensor.RandMatrix(rng, probeBatch, sizes[0], 1)
		targets := make([]int, probeBatch)
		for i := range targets {
			targets[i] = rng.Intn(sizes[len(sizes)-1])
		}
		grad, v := tensor.NewVector(net.NumParams()), tensor.RandVector(rng, net.NumParams(), 0.01)

		lossGrad := timeCalls(probeBudget, 3, func() { net.LossGrad(x, targets, grad) })
		out["nn.lossgrad_frames_per_s."+name] = probeBatch / lossGrad.Seconds()
		out["nn.gnproduct_frames_per_s."+name] = probeBatch / timeCalls(probeBudget, 3, func() { net.GNProduct(x, v, grad) }).Seconds()
		out["nn.forward_frames_per_s."+name] = probeBatch / timeCalls(probeBudget, 3, func() { net.Forward(x) }).Seconds()

		// Share of LossGrad spent in GEMM: each round times LossGrad once and
		// each of its GEMM shapes once, back to back, so both sides of the
		// ratio see the same machine; the median round is reported.
		type op struct{ a, b, c *tensor.Matrix }
		gemms := lossGradGemms(sizes, probeBatch)
		ops := make([]op, len(gemms))
		for i, g := range gemms {
			ops[i].a, ops[i].b, ops[i].c = g.operands(rng)
		}
		var shares []float64
		for start := time.Now(); len(shares) < 5 || time.Since(start) < 2*probeBudget; {
			t0 := time.Now()
			net.LossGrad(x, targets, grad)
			t1 := time.Now()
			for i, g := range gemms {
				blas.Gemm(g.tA, g.tB, 1, ops[i].a, ops[i].b, g.beta, ops[i].c)
			}
			shares = append(shares, time.Since(t1).Seconds()/t1.Sub(t0).Seconds())
		}
		out["nn.gemm_share.lossgrad."+name] = median(shares)
	}

	topo := nn.NewTopology(topoServe...)
	net := nn.New(topo)
	net.InitGlorot(rng)
	const rows = 2
	buf, x := topo.NewInferBuffers(rows), tensor.RandMatrix(rng, rows, topo.InputDim(), 1)
	out["nn.forwardinto_rows_per_s.serve"] = rows / timeCalls(probeBudget, 5, func() { net.ForwardInto(buf, x) }).Seconds()
}

// --- hf ---

// probeHF times hf.CGMinimize over a diagonal operator, so only the
// solver's own vector work (and one pass for the product) is on the clock.
// Eigenvalues spread over three decades keep CG from converging before
// its iteration cap.
func probeHF(out probeResults, rng *rand.Rand) {
	const cgIters = 40
	for _, shape := range shapeClasses {
		name, n := shape.name, shape.params
		diag, g, d0 := tensor.NewVector(n), tensor.RandVector(rng, n, 1), tensor.NewVector(n)
		for i := range diag {
			diag[i] = float32(1e-3 + rng.Float64()*rng.Float64())
		}
		apply := func(v, res tensor.Vector) {
			for i := range v {
				res[i] = diag[i] * v[i]
			}
		}
		iters := 0
		solve := func() { iters = hf.CGMinimize(apply, g, d0, hf.CGOpts{MaxIters: cgIters}).Iters }
		d := timeCalls(probeBudget, 2, solve)
		out["hf.cg_iter_us."+name] = micros(d) / float64(max(iters, 1))
		if name == "wide" {
			out["hf.cg_alloc_kb.wide"] = allocPerCall(2, solve) / 1e3
		}
	}
}

// --- corpus ---

func probeCorpus(out probeResults, seed int64) {
	cfg := corpusConfig(probNarrow, seed)
	var c *corpus.Corpus
	out["corpus.generate_utts_per_s"] = float64(cfg.NumUtterances) / timeCalls(probeBudget, 3, func() { c = corpus.Generate(cfg) }).Seconds()
	train, _ := c.Split(10)
	out["corpus.splice_frames_per_s"] = float64(train.TotalFrames()) / timeCalls(probeBudget, 3, func() {
		corpus.SpliceFrames(train.Utts, train.FeatDim, train.Context)
	}).Seconds()
	var shards [][]*corpus.Utterance
	out["corpus.partition_us"] = micros(timeCalls(probeBudget, 3, func() { shards = corpus.SortedGreedy{}.Partition(train.Utts, ranks-1) }))
	out["corpus.imbalance"] = corpus.MeasureBalance(shards).Imbalance
}

// --- mpi ---

const (
	probeTag   = 77 // a user tag no trainer or server uses
	smallOps   = 300
	largeOps   = 20
	pingBytes  = 64
	largeBytes = largeFloats * 4
)

// onRanks runs body on every rank of a fresh fabric and returns rank 0's
// elapsed time for it. Every body ends in a barrier, so the clock stops
// when the slowest rank is done.
func onRanks(ts []mpi.Transport, body func(c *mpi.Comm) error) (time.Duration, error) {
	errs := make([]error, len(ts))
	var elapsed time.Duration
	var wg sync.WaitGroup
	for r, t := range ts {
		wg.Add(1)
		go func(r int, c *mpi.Comm) {
			defer wg.Done()
			if errs[r] = c.Barrier(); errs[r] != nil {
				return
			}
			start := time.Now()
			if errs[r] = body(c); errs[r] != nil {
				return
			}
			errs[r] = c.Barrier()
			if r == 0 {
				elapsed = time.Since(start)
			}
		}(r, mpi.NewComm(t))
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			return 0, fmt.Errorf("rank %d: %w", r, err)
		}
	}
	return elapsed, nil
}

func probeMPI(out probeResults) error {
	for _, fabric := range []string{"inproc", "tcp"} {
		var ts []mpi.Transport
		if fabric == "inproc" {
			fab := mpi.NewInprocFabric(ranks)
			for r := 0; r < ranks; r++ {
				ts = append(ts, fab.Transport(r))
			}
		} else {
			var err error
			if ts, err = mpi.ConnectTCPLocal(ranks); err != nil {
				return err
			}
		}
		err := probeFabric(out, fabric, ts)
		for _, t := range ts {
			_ = t.Close() // the probe's own error, if any, is the one to report
		}
		if err != nil {
			return fmt.Errorf("%s: %w", fabric, err)
		}
	}
	return nil
}

func probeFabric(out probeResults, fabric string, ts []mpi.Transport) error {
	repeat := func(n int, op func(c *mpi.Comm) error) func(c *mpi.Comm) error {
		return func(c *mpi.Comm) error {
			for i := 0; i < n; i++ {
				if err := op(c); err != nil {
					return err
				}
			}
			return nil
		}
	}
	perOp := func(n int, op func(c *mpi.Comm) error) (float64, error) {
		d, err := onRanks(ts, repeat(n, op))
		return d.Seconds() / float64(n), err
	}
	collective := func(floats int, reduce bool) func(c *mpi.Comm) error {
		bufs := make([][]float32, ranks)
		for r := range bufs {
			bufs[r] = make([]float32, floats)
		}
		return func(c *mpi.Comm) error {
			if reduce {
				return c.Reduce(0, mpi.OpSum, bufs[c.Rank()])
			}
			return c.Bcast(0, bufs[c.Rank()])
		}
	}
	// pingPong bounces bytes between ranks 0 and 1; rank 2 idles.
	pingPong := func(size int) func(c *mpi.Comm) error {
		ping, pong := make([]byte, size), make([]byte, pingBytes)
		return func(c *mpi.Comm) error {
			switch c.Rank() {
			case 0:
				if err := c.SendBytes(1, probeTag, ping); err != nil {
					return err
				}
				_, err := c.RecvBytes(1, probeTag)
				return err
			case 1:
				if _, err := c.RecvBytes(0, probeTag); err != nil {
					return err
				}
				return c.SendBytes(0, probeTag, pong)
			}
			return nil
		}
	}

	type row struct {
		name string
		n    int
		op   func(c *mpi.Comm) error
		conv func(secPerOp float64) float64
	}
	us := func(s float64) float64 { return s * 1e6 }
	mbps := func(s float64) float64 { return largeBytes / s / 1e6 }
	rows := []row{
		{"mpi.bcast_us." + fabric + ".small", smallOps, collective(smallFloats, false), us},
		{"mpi.reduce_us." + fabric + ".small", smallOps, collective(smallFloats, true), us},
		{"mpi.bcast_mbps." + fabric + ".large", largeOps, collective(largeFloats, false), mbps},
		{"mpi.reduce_mbps." + fabric + ".large", largeOps, collective(largeFloats, true), mbps},
		{"mpi.p2p_rtt_us." + fabric, smallOps, pingPong(pingBytes), us},
		{"mpi.p2p_mbps." + fabric + ".large", largeOps, pingPong(largeBytes), mbps},
		{"mpi.barrier_us." + fabric, smallOps, (*mpi.Comm).Barrier, us},
	}
	for _, r := range rows {
		if _, err := perOp(r.n/10, r.op); err != nil { // warm connections and buffers
			return fmt.Errorf("%s: %w", r.name, err)
		}
		var runs []float64
		for i := 0; i < 3; i++ {
			s, err := perOp(r.n, r.op)
			if err != nil {
				return fmt.Errorf("%s: %w", r.name, err)
			}
			runs = append(runs, s)
		}
		out[r.name] = r.conv(median(runs))
	}
	return nil
}

// --- core: checkpoints ---

func probeCheckpoint(out probeResults, rng *rand.Rand) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(outDir, fmt.Sprintf("probe.%d.ckpt", os.Getpid()))
	defer os.Remove(path)
	ck := &core.Checkpoint{Sizes: topoWide, Params: tensor.RandVector(rng, largeFloats, 1)}
	var err error
	write := timeCalls(probeBudget, 3, func() {
		if e := core.SaveCheckpoint(path, ck); e != nil {
			err = e
		}
	})
	read := timeCalls(probeBudget, 3, func() {
		if _, e := core.LoadCheckpoint(path); e != nil {
			err = e
		}
	})
	if err != nil {
		return err
	}
	info, err := os.Stat(path)
	if err != nil {
		return err
	}
	out["core.ckpt_write_mbps"] = float64(info.Size()) / write.Seconds() / 1e6
	out["core.ckpt_read_mbps"] = float64(info.Size()) / read.Seconds() / 1e6
	return nil
}

// --- serve: in-process ---

// scoreOneCaller is the median time, in microseconds, of Server.Score with
// a single caller. One caller never fills a batch, so every call waits out
// the batch window: this is the floor under the HTTP path's latency.
func scoreOneCaller(srv *serve.Server, row []float32) (float64, error) {
	scores := make([]float32, srv.OutputDim())
	var err error
	d := timeCalls(probeBudget, 20, func() {
		if e := srv.Score(row, scores); e != nil {
			err = e
		}
	})
	return micros(d), err
}

func probeServe(out probeResults, rng *rand.Rand) error {
	topo := nn.NewTopology(topoServe...)
	net := nn.New(topo)
	net.InitGlorot(rng)
	srv, err := serve.New(&core.Checkpoint{Sizes: topoServe, Params: net.Params})
	if err != nil {
		return err
	}
	defer srv.Close()

	row := tensor.RandVector(rng, topo.InputDim(), 1)
	c1, scoreErr := scoreOneCaller(srv, row)
	out["serve.score_us.c1"] = c1

	// 16 callers parked in Score: goroutines, not threads.
	const callers = 16
	var rowsScored atomic.Int64
	errs := make([]error, callers)
	deadline := time.Now().Add(2 * probeBudget)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			in, res := append([]float32(nil), row...), make([]float32, topo.OutputDim())
			for time.Now().Before(deadline) {
				if errs[c] = srv.Score(in, res); errs[c] != nil {
					return
				}
				rowsScored.Add(1)
			}
		}(c)
	}
	wg.Wait()
	out["serve.score_rows_per_s.c16"] = float64(rowsScored.Load()) / time.Since(start).Seconds()
	for _, e := range append(errs, scoreErr) {
		if e != nil {
			return e
		}
	}
	return nil
}

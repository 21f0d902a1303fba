package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/tensor"
)

// connections is the number of keep-alive connections, and so of
// concurrent requests, the load generator uses in both phases.
const connections = 2

// multiEvery and multiRows shape the request mix: request i carries
// multiRows instances when i%multiEvery == multiEvery-1, else one.
const (
	multiEvery = 8
	multiRows  = 8
)

// verifyEvery and verifyPhase pick the 1-in-50 responses whose scores are
// compared with nn.Network.Forward; phase 7 makes every fourth of them a
// multi-instance request (7, 207, 407, … are ≡ 7 mod 8).
const (
	verifyEvery = 50
	verifyPhase = 7
)

// scoreTolerance bounds a served score's distance from the reference,
// relative to the row's largest score.
const scoreTolerance = 1e-5

// server is one serving instance: checkpoint → serve.Server → HTTP.
type server struct {
	srv  *serve.Server
	http *http.Server
	done chan error // Serve's return value
	base string
}

// startServer is what setup_s times for the serving half: load the
// checkpoint, build the server with hfserve's defaults, listen on a free
// localhost port and wait for the first 200 from /healthz.
func startServer(ckPath string, ob *obs.Observer) (*server, error) {
	ck, err := core.LoadCheckpoint(ckPath)
	if err != nil {
		return nil, err
	}
	var opts []serve.Option
	if ob != nil {
		opts = append(opts, serve.WithObserver(ob))
	}
	srv, err := serve.New(ck, opts...)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	s := &server{
		srv:  srv,
		http: &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 5 * time.Second},
		done: make(chan error, 1),
		base: "http://" + ln.Addr().String(),
	}
	go func() { s.done <- s.http.Serve(ln) }()
	if err := s.awaitHealthy(); err != nil {
		s.stop()
		return nil, err
	}
	return s, nil
}

func (s *server) awaitHealthy() error {
	hc := &http.Client{Transport: &http.Transport{}, Timeout: time.Second}
	defer hc.CloseIdleConnections()
	var last error
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		resp, err := hc.Get(s.base + "/healthz")
		if err != nil {
			last = err
			continue
		}
		_, _ = io.Copy(io.Discard, resp.Body) // only the status matters
		_ = resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			return nil
		}
		last = fmt.Errorf("healthz: HTTP %d", resp.StatusCode)
	}
	return fmt.Errorf("server never became healthy: %w", last)
}

// stop drains the scoring pipeline, shuts the HTTP server down and waits
// for its Serve goroutine.
func (s *server) stop() error {
	err := s.srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if herr := s.http.Shutdown(ctx); herr != nil && err == nil {
		err = herr
	}
	if serr := <-s.done; serr != nil && !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// request is one pre-encoded /score body with the answer it must get.
type request struct {
	body    []byte
	scores  [][]float32
	classes []int
}

// requestPool holds the seeded request bodies: real held-out frames of the
// workload's corpus, scored once through nn.Network.Forward.
type requestPool struct {
	single, multi []request
}

func isMulti(i int) bool { return i%multiEvery == multiEvery-1 }

// pick returns request i of the mix.
func (p *requestPool) pick(i int) *request {
	if isMulti(i) {
		return &p.multi[(i/multiEvery)%len(p.multi)]
	}
	return &p.single[i%len(p.single)]
}

func newRequestPool(seed int64, p core.Problem, params tensor.Vector) (*requestPool, error) {
	const singles, multis = 256, 32
	x, _ := corpus.SpliceFrames(p.Heldout.Utts, p.Heldout.FeatDim, p.Heldout.Context)
	net := core.NetworkFromCheckpoint(&core.Checkpoint{Sizes: p.Topo.Sizes, Params: params})
	rng := rand.New(rand.NewSource(seed))
	build := func(rows int) (request, error) {
		in := tensor.NewMatrix(rows, x.Cols)
		inst := make([][]float32, rows)
		for r := range inst {
			copy(in.Row(r), x.Row(rng.Intn(x.Rows)))
			inst[r] = in.Row(r)
		}
		body, err := json.Marshal(struct {
			Instances [][]float32 `json:"instances"`
		}{inst})
		if err != nil {
			return request{}, err
		}
		logits := net.Forward(in).Logits
		req := request{body: body, scores: make([][]float32, rows), classes: net.Predict(in)}
		for r := range req.scores {
			req.scores[r] = logits.Row(r)
		}
		return req, nil
	}
	pool := &requestPool{}
	for i := 0; i < singles+multis; i++ {
		rows, dst := 1, &pool.single
		if i >= singles {
			rows, dst = multiRows, &pool.multi
		}
		req, err := build(rows)
		if err != nil {
			return nil, err
		}
		*dst = append(*dst, req)
	}
	return pool, nil
}

// check compares a decoded /score reply with the expected answer.
func (r *request) check(body []byte) error {
	var got struct {
		Scores  [][]float32 `json:"scores"`
		Classes []int       `json:"classes"`
	}
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("bad reply: %w", err)
	}
	if len(got.Scores) != len(r.scores) || len(got.Classes) != len(r.classes) {
		return fmt.Errorf("reply has %d scores and %d classes for %d instances", len(got.Scores), len(got.Classes), len(r.scores))
	}
	for i, want := range r.scores {
		if len(got.Scores[i]) != len(want) {
			return fmt.Errorf("instance %d: %d scores, want %d", i, len(got.Scores[i]), len(want))
		}
		var scale, diff float64
		for j := range want {
			scale = math.Max(scale, math.Abs(float64(want[j])))
			diff = math.Max(diff, math.Abs(float64(want[j])-float64(got.Scores[i][j])))
		}
		if diff > scoreTolerance*scale {
			return fmt.Errorf("instance %d: scores differ from nn.Forward by %g (largest score %g)", i, diff, scale)
		}
		if got.Classes[i] != r.classes[i] {
			return fmt.Errorf("instance %d: class %d, want %d", i, got.Classes[i], r.classes[i])
		}
	}
	return nil
}

// loadClient is one keep-alive connection to the server.
type loadClient struct {
	id  int
	hc  *http.Client
	url string
	tr  *obs.Tracer // nil when untraced
}

func newLoadClients(base string, tr *obs.Tracer) []*loadClient {
	cs := make([]*loadClient, connections)
	for i := range cs {
		cs[i] = &loadClient{
			id:  i,
			hc:  &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}, Timeout: 10 * time.Second},
			url: base + "/score",
			tr:  tr,
		}
	}
	return cs
}

func closeLoadClients(cs []*loadClient) {
	for _, c := range cs {
		c.hc.CloseIdleConnections()
	}
}

// send posts request i and reports whether it succeeded: a 200 whose body
// arrived in full and, for sampled requests, carries the right scores.
func (c *loadClient) send(pool *requestPool, i int) error {
	defer c.tr.Begin(c.id, spanHTTP).End()
	req := pool.pick(i)
	resp, err := c.hc.Post(c.url, "application/json", bytes.NewReader(req.body))
	if err != nil {
		return err
	}
	body, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close() // read to the end above; nothing left to lose
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	if i%verifyEvery == verifyPhase {
		return req.check(body)
	}
	return nil
}

// sample is one timed request.
type sample struct {
	index int
	lat   time.Duration // closed: send→reply; open: due→reply
	late  time.Duration // open only: due→send
	err   error
}

// phaseResult is the outcome of one load phase.
type phaseResult struct {
	samples []sample
	wall    time.Duration
}

func (p phaseResult) failures() (n int, first error) {
	for _, s := range p.samples {
		if s.err != nil {
			if first == nil {
				first = fmt.Errorf("request %d: %w", s.index, s.err)
			}
			n++
		}
	}
	return n, first
}

// latencies returns the latencies in milliseconds of the successful
// requests that pass keep.
func (p phaseResult) latencies(keep func(i int) bool) []float64 {
	var out []float64
	for _, s := range p.samples {
		if s.err == nil && keep(s.index) {
			out = append(out, float64(s.lat)/float64(time.Millisecond))
		}
	}
	return out
}

func anyRequest(int) bool { return true }

// windowRequests is the length of one open-loop window in requests: one
// second of the schedule.
const windowRequests = openRate

// windowedPercentile cuts the open phase into windows of windowRequests
// consecutive requests (by due time), takes the p-th percentile of the
// successful ones in each window, and returns the median of the windows.
// This VM stalls for 50–700 ms a few times an hour; timed from the due
// time, one such stall puts a fifth of a 3-second phase beyond any p95. It
// spoils at most two windows here, and the whole-phase tail stays visible
// in serve.lat_p99_ms. A window less than half full (the tail of a phase
// that is not a whole number of seconds) is dropped unless it is the only one.
func windowedPercentile(p phaseResult, pct float64) float64 {
	var windows [][]float64
	for _, s := range p.samples {
		w := s.index / windowRequests
		for len(windows) <= w {
			windows = append(windows, nil)
		}
		if s.err == nil {
			windows[w] = append(windows[w], float64(s.lat)/float64(time.Millisecond))
		}
	}
	var each []float64
	for _, lat := range windows {
		if len(lat) >= windowRequests/2 || len(windows) == 1 {
			each = append(each, percentile(sortedCopy(lat), pct))
		}
	}
	return median(each)
}

// runWarm sends n requests over the clients, untimed.
func runWarm(cs []*loadClient, pool *requestPool, n int) phaseResult {
	var next atomic.Int64
	return fanOut(cs, func(c *loadClient, out *[]sample) {
		for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
			*out = append(*out, sample{index: i, err: c.send(pool, i)})
		}
	})
}

// runClosed is the closed loop: each client sends its next request as soon
// as the previous reply is in, for d. Callers that wait make this loop.
func runClosed(cs []*loadClient, pool *requestPool, d time.Duration) phaseResult {
	var next atomic.Int64
	deadline := time.Now().Add(d)
	return fanOut(cs, func(c *loadClient, out *[]sample) {
		for time.Now().Before(deadline) {
			i := int(next.Add(1)) - 1
			t0 := time.Now()
			err := c.send(pool, i)
			*out = append(*out, sample{index: i, lat: time.Since(t0), err: err})
		}
	})
}

// fanOut runs work once per client, concurrently, and merges the samples.
func fanOut(cs []*loadClient, work func(c *loadClient, out *[]sample)) phaseResult {
	per := make([][]sample, len(cs))
	var wg sync.WaitGroup
	start := time.Now()
	for k, c := range cs {
		wg.Add(1)
		go func(k int, c *loadClient) {
			defer wg.Done()
			work(c, &per[k])
		}(k, c)
	}
	wg.Wait()
	res := phaseResult{wall: time.Since(start)}
	for _, s := range per {
		res.samples = append(res.samples, s...)
	}
	return res
}

// clock is the time source of the open loop, replaceable in tests.
type clock interface {
	Now() time.Time
	Sleep(time.Duration)
}

type wallClock struct{}

func (wallClock) Now() time.Time        { return time.Now() }
func (wallClock) Sleep(d time.Duration) { time.Sleep(d) }

// openSchedule is a constant-interval arrival schedule: request i is due
// at start + i·interval, whatever happened to the requests before it.
type openSchedule struct {
	start    time.Time
	interval time.Duration
	n        int
	next     atomic.Int64
}

// take hands out the next request index and its due time.
func (s *openSchedule) take() (i int, due time.Time, ok bool) {
	i = int(s.next.Add(1)) - 1
	if i >= s.n {
		return 0, time.Time{}, false
	}
	return i, s.start.Add(time.Duration(i) * s.interval), true
}

// openWorker serves the schedule over one connection: it waits for the
// next request's due time, sends it, and times it from the due time, so a
// stall shows in the latency of every request it delayed. late is how far
// behind its due time the request left.
func openWorker(clk clock, sched *openSchedule, send func(i int) error) []sample {
	var out []sample
	for {
		i, due, ok := sched.take()
		if !ok {
			return out
		}
		if wait := due.Sub(clk.Now()); wait > 0 {
			clk.Sleep(wait)
		}
		sent := clk.Now()
		err := send(i)
		out = append(out, sample{index: i, lat: clk.Now().Sub(due), late: sent.Sub(due), err: err})
	}
}

// runOpen is the open loop: n requests on a fixed schedule of rate per
// second, dispatched over the same connections. Independent users make
// this loop.
func runOpen(cs []*loadClient, pool *requestPool, rate, n int) phaseResult {
	sched := &openSchedule{start: time.Now().Add(10 * time.Millisecond), interval: time.Second / time.Duration(rate), n: n}
	return fanOut(cs, func(c *loadClient, out *[]sample) {
		*out = openWorker(wallClock{}, sched, func(i int) error { return c.send(pool, i) })
	})
}

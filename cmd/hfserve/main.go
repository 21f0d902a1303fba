// Command hfserve serves a trained checkpoint over HTTP: it loads the
// model hftrain -save wrote, reconstructs the network, and scores
// feature vectors behind internal/serve's work-conserving,
// request-coalescing batcher with admission control.
//
// Usage:
//
//	hftrain -mode serial -iters 10 -save model.ckpt
//	hfserve -load model.ckpt -addr :8080
//	curl -d '{"instances":[[0.1, ...]]}' localhost:8080/score
//
// Endpoints: POST /score (429 when the admission queue sheds, 503 while
// draining), GET /healthz. -mon serves the telemetry plane's monitoring
// endpoint (Prometheus /metrics with the serve.* instruments, plus
// /debug/pprof/) on a second address. SIGINT/SIGTERM triggers a
// graceful drain: admission stops, in-flight requests complete, then
// the process exits.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/obs/telemetry"
	"repro/internal/serve"
)

func main() {
	load := flag.String("load", "", "model checkpoint to serve (required)")
	addr := flag.String("addr", ":8080", "HTTP listen address for the scoring API")
	maxBatch := flag.Int("max-batch", serve.DefaultMaxBatch, "rows per batch (larger requests are scored in slices of this)")
	queueDepth := flag.Int("queue-depth", serve.DefaultQueueDepth, "admission queue bound (full queue sheds with 429)")
	workers := flag.Int("workers", serve.DefaultWorkers, "scoring workers")
	maxWait := flag.Duration("max-wait", 0, "load-aware shedding: reject when the estimated wait exceeds this (0 disables)")
	softmax := flag.Bool("softmax", false, "return softmax probabilities instead of raw logits")
	mon := flag.String("mon", "", "serve the monitoring endpoint (/metrics, /debug/pprof/) on this address")
	drainTimeout := flag.Duration("drain-timeout", serve.DefaultDrainTimeout, "graceful-drain bound on shutdown")
	flag.Parse()

	if *load == "" {
		log.Fatal("hfserve: -load is required (train one with: hftrain -mode serial -save model.ckpt)")
	}
	ck, err := core.LoadCheckpoint(*load)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("loaded %s: topology %v, trained %d iterations, held-out loss %.4f",
		*load, ck.Sizes, ck.Iteration, ck.HeldOutLoss)

	ob := &obs.Observer{Metrics: obs.NewRegistry()}
	opts := []serve.Option{
		serve.WithMaxBatch(*maxBatch),
		serve.WithQueueDepth(*queueDepth),
		serve.WithWorkers(*workers),
		serve.WithMaxWait(*maxWait),
		serve.WithDrainTimeout(*drainTimeout),
		serve.WithObserver(ob),
	}
	if *softmax {
		opts = append(opts, serve.WithSoftmax())
	}
	srv, err := serve.New(ck, opts...)
	if err != nil {
		log.Fatal(err)
	}

	if *mon != "" {
		plane := telemetry.NewPlane(time.Now())
		plane.Merger().Bind(0, ob)
		monSrv, err := telemetry.NewServer(*mon, plane)
		if err != nil {
			log.Fatal(err)
		}
		defer monSrv.Close()
		log.Printf("monitoring endpoint on http://%s (/metrics /debug/pprof/)", monSrv.Addr())
	}

	httpSrv := newHTTPServer(*addr, srv.Handler())
	httpDone := make(chan struct{})
	go func() {
		defer close(httpDone)
		log.Printf("scoring API on http://%s (POST /score, GET /healthz)", *addr)
		if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatal(err)
		}
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	s := <-sig
	log.Printf("%s: draining (in-flight requests complete; new requests get 503)", s)
	// Drain the batcher first so handlers still running return promptly,
	// then let the HTTP server finish writing their responses.
	if err := srv.Close(); err != nil {
		log.Print(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		log.Print(err)
	}
	<-httpDone
	log.Print("drained; bye")
}

// Connection bounds of the scoring API, so that a client which sends
// its headers and then trickles the body, never reads the response or
// sits idle cannot pin a connection for good. They are sized for the
// slowest client worth serving: the largest body /score accepts (16 MiB)
// at about 1 Mbit/s is 134 s.
const (
	readHeaderTimeout = 5 * time.Second
	readTimeout       = 3 * time.Minute // headers and body
	// writeTimeout runs from the end of the headers to the end of the
	// response, so it covers the body read, the handler — which a drain
	// may hold for -drain-timeout (default 5 s) — and the write.
	writeTimeout   = 4 * time.Minute
	idleTimeout    = 2 * time.Minute // keep-alive connection between requests
	maxHeaderBytes = 64 << 10
)

func newHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		WriteTimeout:      writeTimeout,
		IdleTimeout:       idleTimeout,
		MaxHeaderBytes:    maxHeaderBytes,
	}
}

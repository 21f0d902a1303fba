.PHONY: verify lint commcheck numcheck p2pcheck shapecheck faultcheck obscheck alloccheck servecheck determinism race race-mpi test bench bench_obs bench_fault bench_alloc bench_serve

# Full gate: compile, vet, the repo-specific static analyzers (including
# the rank-conditional collective check, the point-to-point protocol family —
# tag space, opcode state machine, send/recv pairing — the
# determinism/numerical-safety quartet, and the interprocedural shape
# verifier; `go run ./cmd/repolint -list` documents the full set), the
# complete test suite under the race detector, the same suites re-run
# with runtime protocol conformance checking on every collective
# (-tags commcheck), the invariant-checked build of the numeric core
# (which also arms the check.Dims/check.Layout guards the shape analyzer
# leans on), the compiler-truth allocation and bounds-check gates on the
# hot paths, the bit-reproducible replay gate on both fabrics, and the
# benchmark module's own unit tests (its own go.mod, so ./... above does
# not reach it; < 1 s, runs no workload).
verify:
	go build ./... && go vet ./... && go run ./cmd/repolint && go test -race ./... && go test -tags commcheck ./internal/mpi ./internal/core && go test -tags checkinvariants ./internal/check ./internal/blas ./internal/nn ./internal/hf ./internal/core && $(MAKE) shapecheck && $(MAKE) p2pcheck && $(MAKE) faultcheck && $(MAKE) obscheck && $(MAKE) alloccheck && $(MAKE) servecheck && $(MAKE) determinism && go test -C benchmark ./...

# Repo-specific static analysis: unchecked mpi.Comm/IO errors, float
# equality, locks copied by value, allocations in //lint:hotpath kernels,
# unguarded obs.Observer field access, collectives under rank-dependent
# branches, and the point-to-point protocol family (tag space, opcode
# state machine, send/recv pairing). Zero findings is the shipping bar.
# Machine-readable output: -json, or -sarif for code-scanning upload.
lint:
	go vet ./... && go run ./cmd/repolint

# Static collective-protocol verification only: flags collectives (direct
# or through same-package calls) under rank-dependent branches. The
# master/worker arms themselves are derived from one ops table and need
# no diffing. See DESIGN.md, "Collective protocol".
commcheck:
	go run ./cmd/repolint -only commcheck

# Determinism & numerical-safety analyzers only: range-over-map float
# accumulation, arrival-order channel reduction, global/time-seeded RNG
# use, and unguarded float division. See DESIGN.md, "Determinism".
numcheck:
	go run ./cmd/repolint -only maporderfloat,reduceorder,rngsource,divguard

# Static point-to-point protocol verification only: the module-wide tag
# map (collisions, dynamic-block overlaps, orphans), the p2p opcode
# state machines (master senders vs worker dispatch arms, awaited
# replies, name-table coverage) and send/recv pairing (blocking recvs
# with no counterpart send). See DESIGN.md, "P2P protocol verification".
p2pcheck:
	go run ./cmd/repolint -only tagspace,opproto,sendrecvpair

# Interprocedural shape & buffer-layout verification only: symbolic
# dimensions propagated through the nn → blas → hf call graph against
# //lint:shape contracts (provable operand mismatches are errors, calls
# that are neither provable nor guarded by check.Dims/check.Layout or a
# callee panic are warnings) plus flat-buffer partition checking
# (sub-slice gap, overlap, and short-coverage). See DESIGN.md, "Shape &
# layout verification".
shapecheck:
	go run ./cmd/repolint -only shape

# Fault-tolerance gate: the deprecated-API analyzer (no caller may bypass
# the Session front door) plus the elastic runtime's fault suite — worker
# kill mid-CG on both fabrics, surrender budgeting, option validation,
# fault-schedule round-trips and transport shaping — under the race
# detector. See DESIGN.md, "Elastic fault tolerance".
faultcheck:
	go vet ./... && go run ./cmd/repolint -only deprecatedapi
	go test -race -run 'TestElastic|TestSession|TestFault|TestRecvTimeout|TestTCPSendWriteDeadline' ./internal/core ./internal/mpi

# Telemetry-plane gate: the obs nil-guard analyzer (covers both
# *obs.Observer and *telemetry.Plane field access), the telemetry unit
# suite (clock sync, shipper/merger round-trip, Prometheus and merged-
# trace goldens, flight recorder, endpoint handlers) under the race
# detector, and the end-to-end drills on the real fabrics: merged
# 4-rank TCP trace, mid-run /metrics scrape, and the kill-1-of-4
# flight-bundle capture. See DESIGN.md, "Telemetry plane".
obscheck:
	go run ./cmd/repolint -only obsnilguard
	go test -race ./internal/obs/telemetry
	go test -race -run 'TestTelemetry' ./internal/core

# Hot-path allocation gate, in four layers of evidence: the escape gate
# (compile //lint:hotpath packages with -gcflags=-m=2 and fail any hot
# function with a compiler-reported heap escape), the bounds-check gate
# (the same packages under -gcflags=-d=ssa/check_bce; hot kernels must
# be bounds-check-free), the white-box zero-alloc tests
# (testing.AllocsPerRun on the CG step and the packed GEMM kernels),
# and the allocs/op benchmark gated against the BENCH_alloc.json
# baseline. See DESIGN.md, "Concurrency & allocation gates".
alloccheck:
	go run ./cmd/repolint -only escape,bce
	go test -run TestZeroAlloc ./internal/blas ./internal/hf ./internal/nn ./internal/serve
	go test -bench BenchmarkAllocGate -benchtime 1x -run '^$$' .

# Serving-runtime gate: the deprecated-API analyzer (retired training
# entry points must not resurface behind the serving surface), the serve
# and shared-inference suites under the race detector (batcher flush
# rules, shed-before-enqueue, graceful drain, replica sharding, the
# end-to-end train→checkpoint→HTTP bit-for-bit test), and the zero-alloc
# probes on the batched forward path. See DESIGN.md, "Serving runtime".
servecheck:
	go run ./cmd/repolint -only deprecatedapi
	go test -race ./internal/serve/...
	go test -race -run 'TestForwardInto|TestInferBuffers|TestSoftmaxInto|TestZeroAlloc' ./internal/nn

# Bit-reproducible replay gate: train the same seeded problem twice on
# each fabric and require byte-identical per-iteration FNV hash streams
# of gradients, CG solutions, and accepted parameters. Also runs the
# granular (-tags determinism) replay suite, which additionally hashes
# every CG curvature application. Writes BENCH_determinism.json.
determinism:
	go run ./cmd/hftrain -replay-verify -transport inproc,tcp -ranks 3 \
		-utterances 60 -iters 3 -hidden 16 -layers 1 \
		-replay-json BENCH_determinism.json
	go test -tags determinism -run Replay ./internal/core

# Race-detector pass over the packages with real concurrency: the MPI
# transport, the master/worker training core, and the metrics registry.
race:
	go test -race ./internal/mpi ./internal/core ./internal/obs

# Race detector combined with runtime protocol checking: every collective
# in the MPI and training suites carries a conformance header and a
# watchdog deadline, so desynchronization surfaces as a diagnosis instead
# of a hang.
race-mpi:
	go test -race -tags commcheck ./internal/mpi ./internal/core

test:
	go test ./...

# Regenerate every paper table/figure benchmark once.
bench:
	go test -bench . -benchtime 1x -run '^$$' .

# Measure observability overhead on the real trainer; writes BENCH_obs.json.
bench_obs:
	go test -bench BenchmarkObsOverhead -benchtime 1x -run '^$$' .

# Measure what surviving a worker kill costs the elastic runtime
# (eviction + re-shard + rewind vs an uninterrupted run); writes
# BENCH_fault.json.
bench_fault:
	go test -bench BenchmarkFaultEviction -benchtime 1x -run '^$$' .

# Re-measure hot-path allocs/op and bytes/op; rewrites BENCH_alloc.json
# and fails if any case regressed past the recorded baseline.
bench_alloc:
	go test -bench BenchmarkAllocGate -benchtime 1x -run '^$$' .

# Closed-loop serving load test: p50/p99 latency, throughput, and the
# batch-size distribution per concurrency level; rewrites
# BENCH_serve.json and fails if throughput fell past the recorded
# baseline margin.
bench_serve:
	go test -bench BenchmarkServe -benchtime 1x -run '^$$' .

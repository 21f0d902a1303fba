.PHONY: verify lint alloccheck determinism test bench bench_fault bench_alloc

# Full gate; each property is proved once, by the cheapest thing that
# proves it (DESIGN.md §11 has the audit behind the list):
#   - compile, vet (copylocks and asmdecl included), and the 10
#     repo-specific analyzers + 2 compiler-truth gates, zero findings
#     being the bar (`go run ./cmd/repolint -list` documents the set);
#   - the portable GEMM kernel still compiles and vets: an arm64 cross
#     build, where kernel_amd64.s does not exist;
#   - the whole suite once, armed: race detector plus the `checked`
#     build, which turns on the check.Finite/check.Dims invariants of the
#     numeric core and hashes every CG curvature application for replay;
#   - what only the plain build can show: the zero-alloc probes and the
#     allocs/op gate against BENCH_alloc.json;
#   - the bit-reproducible replay gate on both fabrics;
#   - the benchmark module's own unit tests (its own go.mod, so ./...
#     does not reach it; < 1 s, runs no workload);
#   - five seconds of real fuzzing each for the two frame codecs a
#     peer's bytes reach first and for the /score handler a client's
#     bytes reach first (a finding is written under testdata/fuzz, so it
#     also fails CI's clean-tree check).
# It leaves the tree as it found it; CI checks that.
verify:
	go build ./...
	go vet ./...
	GOARCH=arm64 go vet ./internal/blas && GOARCH=arm64 go build ./...
	go run ./cmd/repolint
	go test -race -tags checked ./...
	$(MAKE) alloccheck
	$(MAKE) determinism
	go test -C benchmark ./...
	go test -run '^$$' -fuzz '^FuzzEmDecode$$' -fuzztime 5s ./internal/core
	go test -run '^$$' -fuzz '^FuzzReadFrame$$' -fuzztime 5s ./internal/mpi
	go test -run '^$$' -fuzz '^FuzzHandleScore$$' -fuzztime 5s ./internal/serve

# Static analysis only. Machine-readable output: `go run ./cmd/repolint
# -json`, or `-sarif` for code-scanning upload; `-only name,...` narrows
# the run to some analyzers.
lint:
	go vet ./... && go run ./cmd/repolint

# Plain-build allocation leg: the white-box zero-alloc tests
# (testing.AllocsPerRun on the CG step, the packed GEMM kernels, the
# batched forward path and serve.Score) and TestAllocGate, which holds
# allocs/op of the hot paths to the checked-in BENCH_alloc.json and
# fails when that file is missing, unparseable or incomplete. The
# escape and bounds-check gates that complete the evidence run inside
# repolint. See DESIGN.md, "Concurrency & allocation gates".
alloccheck:
	go test -run 'TestZeroAlloc|TestAllocGate' . ./internal/blas ./internal/hf ./internal/nn ./internal/serve

# Bit-reproducible replay gate: train the same seeded problem twice on
# each fabric and require byte-identical per-iteration FNV hash streams
# of gradients, CG solutions, and accepted parameters. The report holds
# only what must repeat (losses, record counts, the verdict), so it is
# rewritten byte for byte and the diff against the checked-in file is
# the baseline check: it fails on a divergence and on a moved final loss.
determinism:
	go run ./cmd/hftrain -replay-verify -transport inproc,tcp -ranks 3 \
		-utterances 60 -iters 3 -hidden 16 -layers 1 \
		-replay-json BENCH_determinism.json
	git diff --exit-code -- BENCH_determinism.json

test:
	go test ./...

# Regenerate every paper table/figure benchmark once.
bench:
	go test -bench . -benchtime 1x -run '^$$' .

# Measure what surviving a worker kill costs the elastic runtime
# (eviction + re-shard + rewind vs an uninterrupted run); writes
# BENCH_fault.json.
bench_fault:
	go test -bench BenchmarkFaultEviction -benchtime 1x -run '^$$' .

# Re-measure hot-path allocs/op and rewrite BENCH_alloc.json, the
# baseline TestAllocGate reads; BenchmarkAllocGate is its only writer.
bench_alloc:
	go test -bench BenchmarkAllocGate -benchtime 1x -run '^$$' .

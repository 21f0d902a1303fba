// Package repro reproduces "Parallel Deep Neural Network Training for Big
// Data on Blue Gene/Q" (Chung, Sainath, Ramabhadran, Picheny, Gunnels,
// Austel, Chauhari, Kingsbury — SC 2014) as a pure-Go library.
//
// The implementation lives under internal/:
//
//   - core: the paper's contribution — data-parallel Hessian-free DNN
//     training in a master/worker architecture over message passing;
//   - hf: the Hessian-free optimizer (Algorithm 1) with truncated CG;
//   - nn: the DNN with backpropagation and Gauss-Newton products;
//   - seq: the utterance-level sequence training criterion;
//   - mpi: the message-passing substrate (in-process and TCP fabrics,
//     tree collectives, communication profiling);
//   - blas: the tuned SGEMM matrix library (§V-A);
//   - corpus: synthetic speech data and §V-C load balancing;
//   - torus, bgq, workload: the Blue Gene/Q machine model that replays
//     the training runs at 1024-8192 MPI ranks as a bulk-synchronous
//     timeline (one clock per rank, advanced by compute and joined at
//     every collective) and regenerates the paper's figures and tables.
//
// The benchmarks in bench_test.go regenerate every table and figure of
// the paper's evaluation; cmd/experiments produces the full report.
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-vs-measured comparison.
package repro

package core

import (
	"fmt"
	"time"

	"repro/internal/check"
	"repro/internal/corpus"
	"repro/internal/hf"
)

// ReplayRun summarizes one of the two trainings a replay verification
// performs.
type ReplayRun struct {
	// Wall is the training's wall-clock duration.
	Wall time.Duration `json:"wall_ns"`
	// FinalLoss is the held-out loss the run ended at.
	FinalLoss float64 `json:"final_loss"`
	// Records is the number of hash records the run emitted.
	Records int `json:"records"`
}

// ReplayReport is the outcome of a ReplayVerify call: two seeded runs'
// hash streams compared record by record.
type ReplayReport struct {
	// Fabric is the transport the runs used ("inproc" or "tcp").
	Fabric string `json:"fabric"`
	// Ranks is the rank count including the master.
	Ranks int `json:"ranks"`
	// Iterations is the configured outer HF iteration bound.
	Iterations int `json:"iterations"`
	// Runs holds both trainings' summaries.
	Runs [2]ReplayRun `json:"runs"`
	// Divergent reports whether the hash streams differed anywhere.
	Divergent bool `json:"divergent"`
	// DivergeIndex, DivergeIter and DivergeTensor locate the first
	// mismatched record when Divergent (the wire-format detail is in
	// Detail).
	DivergeIndex  int    `json:"diverge_index,omitempty"`
	DivergeIter   int    `json:"diverge_iter,omitempty"`
	DivergeTensor string `json:"diverge_tensor,omitempty"`
	// Detail renders both mismatched records in the replay wire format.
	Detail string `json:"detail,omitempty"`
}

// String renders a one-line human summary.
func (r *ReplayReport) String() string {
	if r.Divergent {
		return fmt.Sprintf("replay %s/%d ranks: DIVERGED at iter %d tensor %s (%s)",
			r.Fabric, r.Ranks, r.DivergeIter, r.DivergeTensor, r.Detail)
	}
	return fmt.Sprintf("replay %s/%d ranks: %d records bit-identical across runs (%v + %v)",
		r.Fabric, r.Ranks, r.Runs[0].Records, r.Runs[0].Wall.Round(time.Millisecond), r.Runs[1].Wall.Round(time.Millisecond))
}

// ReplayVerify runs a short distributed HF training twice — same seed,
// same shard plan, same fabric — and diffs the per-iteration hash
// streams the optimizer records (weights, gradients, CG iterates). Zero
// divergence certifies the whole pipeline is bit-reproducible: shard
// partitioning, the rank-ordered reduction fold, CG, backtracking and
// the λ updates. The first divergent record names the iteration and
// tensor where reproducibility broke. fabric is "inproc" or "tcp".
func ReplayVerify(p Problem, cfg hf.Config, ranks int, part corpus.Partitioner, fabric string) (*ReplayReport, error) {
	kind, err := ParseFabric(fabric)
	if err != nil {
		return nil, fmt.Errorf("core: unknown replay fabric %q (want inproc, tcp)", fabric)
	}
	report := &ReplayReport{Fabric: fabric, Ranks: ranks, Iterations: cfg.MaxIterations}
	var streams [2][]check.HashRecord
	for run := 0; run < 2; run++ {
		hs := &check.HashStream{}
		c := cfg
		c.Hash = hs
		sess, err := NewSession(p, WithRanks(ranks), WithFabric(kind), WithPartitioner(part))
		if err != nil {
			return nil, err
		}
		start := time.Now()
		res, err := sess.Run(c)
		if err != nil {
			return nil, fmt.Errorf("core: replay run %d on %s: %w", run+1, fabric, err)
		}
		streams[run] = hs.Records()
		report.Runs[run] = ReplayRun{
			Wall:      time.Since(start),
			FinalLoss: res.HF.FinalLoss,
			Records:   len(streams[run]),
		}
	}
	if d, diverged := check.FirstDivergence(streams[0], streams[1]); diverged {
		report.Divergent = true
		report.DivergeIndex = d.Index
		rec := d.A
		if rec.Tensor == "" {
			rec = d.B
		}
		report.DivergeIter = rec.Iter
		report.DivergeTensor = rec.Tensor
		report.Detail = d.String()
	}
	return report, nil
}

package hf

import (
	"math"

	"repro/internal/check"
	"repro/internal/tensor"
)

// Objective is the interface between the optimizer and the (possibly
// distributed) training problem. The serial and master/worker
// implementations live in internal/core; the optimizer is agnostic to
// where gradients and curvature products are computed — exactly the
// property that lets the paper scale the same algorithm to 8192 ranks.
//
// All quantities are per-frame means so values are comparable across data
// set sizes and worker counts.
type Objective interface {
	// Dim returns the parameter count.
	Dim() int
	// Params returns a copy of the current parameters θ.
	Params() tensor.Vector
	// SetParams replaces θ.
	SetParams(p tensor.Vector)
	// Gradient computes ∇L(θ) over the full training set at the current θ.
	Gradient() tensor.Vector
	// NewCurvatureSample draws a fresh curvature mini-sample (1-3% of the
	// training data in the paper) used by all GNProduct calls until the
	// next draw.
	NewCurvatureSample(iter int)
	// GNProduct sets out ← G(θ)·v over the current curvature sample.
	GNProduct(v, out tensor.Vector)
	// HeldOutLoss evaluates the loss of parameter vector p on the held-out
	// set without changing θ.
	HeldOutLoss(p tensor.Vector) float64
}

// Preconditioned is the optional extension an Objective can implement to
// enable the diagonal CG preconditioner of Martens 2010 §4.7 — the
// feature the paper's implementation explicitly defers. CurvatureDiag
// returns a strictly positive diagonal approximating diag(G(θ)) + λ,
// typically (diag(Fisher) + λ)^α with α ≈ 0.75, over the current
// curvature sample.
type Preconditioned interface {
	CurvatureDiag(lambda float64) tensor.Vector
}

// Config holds the outer-loop hyperparameters of Algorithm 1.
type Config struct {
	// MaxIterations bounds outer HF iterations. Zero (or any value
	// ≤ 0) means the default of 50.
	MaxIterations int
	// Lambda0 is the initial damping λ. Default 1.0.
	Lambda0 float64
	// Beta is the CG warm-start momentum: d0 ← β·d_N. Default 0.95.
	Beta float64
	// CG configures the inner solver.
	CG CGOpts
	// ArmijoC is the sufficient-decrease constant of the line search.
	// Default 1e-4.
	ArmijoC float64
	// ArmijoShrink is the step shrink factor. Default 0.5.
	ArmijoShrink float64
	// ArmijoMaxSteps bounds line-search halvings. Default 10.
	ArmijoMaxSteps int
	// TolRelImprove stops the outer loop when the relative held-out loss
	// improvement over an iteration falls below it. 0 disables.
	TolRelImprove float64
	// UsePreconditioner enables the Martens diagonal CG preconditioner
	// when the objective implements Preconditioned.
	UsePreconditioner bool
	// Log, when non-nil, receives per-iteration statistics (intended
	// for human-readable progress logging).
	Log func(IterStats)
	// Telemetry, when non-nil, also receives per-iteration statistics —
	// the machine-readable observability hook (e.g. JSONL emission via
	// core.TelemetryJSONL). Both hooks fire once per outer iteration,
	// accepted or rejected.
	Telemetry func(IterStats)
	// Hash, when non-nil, receives FNV hashes of the optimizer's float
	// state each iteration (gradient, CG result, accepted θ, and the
	// scalar decisions; every CG curvature application too under the
	// checked build tag). core.ReplayVerify diffs two runs' streams
	// to certify bit-reproducibility; see DESIGN.md, "Determinism".
	Hash *check.HashStream
	// InitDirection, when non-nil, seeds the CG warm start d0 (copied,
	// not aliased; must have the objective's dimension). Together with
	// Lambda0 it lets a caller resume an interrupted run with the exact
	// cross-iteration optimizer state a checkpoint captured via State.
	InitDirection tensor.Vector
	// State, when non-nil, fires after each iteration's Log/Telemetry
	// with the cross-iteration optimizer state the NEXT iteration will
	// start from: the post-update damping λ and the CG warm-start
	// direction (a live buffer — copy it, don't retain it). With θ and
	// the held-out loss from IterStats this is everything needed to
	// resume the run exactly (e.g. the elastic runtime's rewind
	// checkpoints).
	State func(iter int, lambda float64, dir tensor.Vector)
}

// emit delivers one iteration's statistics to the configured hooks.
func (c Config) emit(s IterStats) {
	if c.Log != nil {
		c.Log(s)
	}
	if c.Telemetry != nil {
		c.Telemetry(s)
	}
}

func (c Config) filled() Config {
	if c.MaxIterations <= 0 {
		c.MaxIterations = 50
	}
	if c.Lambda0 <= 0 {
		c.Lambda0 = 1.0
	}
	if c.Beta <= 0 || c.Beta >= 1 {
		c.Beta = 0.95
	}
	if c.ArmijoC <= 0 {
		c.ArmijoC = 1e-4
	}
	if c.ArmijoShrink <= 0 || c.ArmijoShrink >= 1 {
		c.ArmijoShrink = 0.5
	}
	if c.ArmijoMaxSteps <= 0 {
		c.ArmijoMaxSteps = 10
	}
	return c
}

// IterStats records one outer HF iteration for logging and the cycle
// accounting that feeds the BG/Q simulator workloads.
type IterStats struct {
	Iter     int
	Loss     float64 // held-out loss after the iteration
	Lambda   float64
	CGIters  int
	BestIdx  int     // index of the backtracked CG iterate used
	Alpha    float64 // line-search step size
	Accepted bool    // false when the step was rejected (λ raised)
	GradNorm float64
	// Rho is the Levenberg-Marquardt reduction ratio
	// (actual improvement)/(model-predicted improvement); 0 when the
	// iteration was rejected or the model predicted no decrease.
	Rho float64
	// Backtracks counts the CG iterates examined by the backtracking
	// scan beyond the final one (each costs one held-out loss
	// evaluation).
	Backtracks int
}

// Result summarizes an Optimize run.
type Result struct {
	Iters     []IterStats
	FinalLoss float64
	// TotalCGIters is the total number of CG iterations across the run,
	// the dominant communication count in the distributed setting.
	TotalCGIters int
}

// Optimize runs Algorithm 1: repeatedly build the damped quadratic model
// at θ, minimize it with truncated CG, backtrack over CG iterates against
// the held-out loss, adapt λ by the reduction ratio ρ, and take an
// Armijo-damped step. It returns after MaxIterations, on convergence, or
// when progress stalls completely.
func Optimize(obj Objective, cfg Config) Result {
	cfg = cfg.filled()
	n := obj.Dim()
	lambda := cfg.Lambda0
	d0 := tensor.NewVector(n)
	if cfg.InitDirection != nil && len(cfg.InitDirection) == n {
		copy(d0, cfg.InitDirection)
	}
	theta := obj.Params()
	lossPrev := obj.HeldOutLoss(theta)
	res := Result{FinalLoss: lossPrev}

	consecutiveRejects := 0
	for iter := 1; iter <= cfg.MaxIterations; iter++ {
		g := obj.Gradient()
		if check.Enabled {
			// The gradient is the first vector handed back from the
			// workers each iteration; a non-finite entry here would feed
			// CG a poisoned right-hand side.
			check.Dims("hf.gradient", len(g), n)
			check.Finite("hf.gradient", g)
		}
		cfg.Hash.RecordVec(iter, "gradient", g)
		obj.NewCurvatureSample(iter)
		lam := lambda // capture for the closure
		apply := func(v, out tensor.Vector) {
			obj.GNProduct(v, out)
			out.AddScaled(float32(lam), v)
			if check.Replay {
				// Fine-grained replay: hash every curvature application,
				// pinning a divergence to the exact CG step.
				cfg.Hash.RecordVec(iter, "cg_apply_v", v)
				cfg.Hash.RecordVec(iter, "cg_apply_out", out)
			}
		}
		cgOpts := cfg.CG
		if cfg.UsePreconditioner {
			if prec, ok := obj.(Preconditioned); ok {
				cgOpts.Precond = prec.CurvatureDiag(lambda)
			}
		}
		cg := CGMinimize(apply, g, d0, cgOpts)
		res.TotalCGIters += cg.Iters
		cfg.Hash.RecordVec(iter, "cg_final", cg.Final())

		stats := IterStats{Iter: iter, Lambda: lambda, CGIters: cg.Iters, GradNorm: g.Norm2()}

		// Backtrack over saved CG iterates: take the one with the lowest
		// held-out loss, scanning from the last backwards and stopping
		// once the loss stops improving (Martens' procedure; see package
		// comment for the relation to the paper's listing).
		best := len(cg.Iterates) - 1
		lossBest := lossAt(obj, theta, cg.Iterates[best])
		for i := best - 1; i >= 0; i-- {
			lossCurr := lossAt(obj, theta, cg.Iterates[i])
			stats.Backtracks++
			if lossPrev >= lossBest && lossCurr >= lossBest {
				break
			}
			if lossCurr < lossBest {
				lossBest = lossCurr
				best = i
			}
		}
		stats.BestIdx = best

		if lossPrev < lossBest || math.IsNaN(lossBest) {
			// No CG iterate improves the held-out loss: raise damping,
			// drop the warm start and retry (Algorithm 1's reject branch).
			lambda *= 1.5
			d0.Zero()
			stats.Accepted = false
			stats.Loss = lossPrev
			cfg.Hash.RecordScalars(iter, "reject", lambda, lossBest)
			res.Iters = append(res.Iters, stats)
			cfg.emit(stats)
			if cfg.State != nil {
				cfg.State(iter, lambda, d0)
			}
			consecutiveRejects++
			if consecutiveRejects >= 8 {
				break // damping has grown past any useful step
			}
			continue
		}
		consecutiveRejects = 0

		// Levenberg-Marquardt damping update from the reduction ratio
		// ρ = (actual improvement)/(model-predicted improvement), Martens
		// convention: poor fit (ρ<¼) raises λ, good fit (ρ>¾) lowers it.
		qN := cg.FinalQ()
		if qN < 0 {
			rho := (lossBest - lossPrev) / qN
			stats.Rho = rho
			if rho < 0.25 {
				lambda *= 1.5
			} else if rho > 0.75 {
				lambda *= 2.0 / 3.0
			}
		}

		// Armijo backtracking line search along the chosen iterate:
		// require L(θ+αd) ≤ L(θ) + c·α·gᵀd (sufficient decrease), shrinking
		// α geometrically. If no α satisfies it, fall back to the full step,
		// which the backtracking phase already verified improves the loss.
		d := cg.Iterates[best]
		if check.Enabled {
			// The chosen update direction is about to be broadcast to
			// every rank via SetParams; it must be finite.
			check.Finite("hf.step_direction", d)
		}
		gd := math.Min(g.Dot(d), 0)
		armijoOK := func(l, a float64) bool { return l <= lossPrev+cfg.ArmijoC*a*gd }
		alpha := 1.0
		lossNew := lossBest
		for step := 0; step < cfg.ArmijoMaxSteps && !armijoOK(lossNew, alpha); step++ {
			alpha *= cfg.ArmijoShrink
			trial := theta.Clone()
			trial.AddScaled(float32(alpha), d)
			lossNew = obj.HeldOutLoss(trial)
		}
		if !armijoOK(lossNew, alpha) {
			alpha, lossNew = 1.0, lossBest
		}
		stats.Alpha = alpha

		// Accept: θ ← θ + α·d_best, d0 ← β·d_N, Lprev ← L(θ).
		theta.AddScaled(float32(alpha), d)
		obj.SetParams(theta)
		cfg.Hash.RecordVec(iter, "theta", theta)
		cfg.Hash.RecordScalars(iter, "accept", float64(best), alpha, lambda, lossNew)
		copy(d0, cg.Final())
		d0.Scale(float32(cfg.Beta))
		improvement := (lossPrev - lossNew) / math.Abs(lossPrev)
		lossPrev = lossNew
		stats.Accepted = true
		stats.Loss = lossNew
		res.Iters = append(res.Iters, stats)
		cfg.emit(stats)
		if cfg.State != nil {
			cfg.State(iter, lambda, d0)
		}
		if cfg.TolRelImprove > 0 && improvement >= 0 && improvement < cfg.TolRelImprove {
			break
		}
	}
	res.FinalLoss = lossPrev
	return res
}

// lossAt evaluates the held-out loss at θ+d without mutating θ.
func lossAt(obj Objective, theta, d tensor.Vector) float64 {
	trial := theta.Clone()
	trial.AddScaled(1, d)
	return obj.HeldOutLoss(trial)
}

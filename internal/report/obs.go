package report

import (
	"fmt"
	"io"

	"repro/internal/hf"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/obs/telemetry"
)

// MPITable renders a rank's per-phase communication profile from a real
// run — the measured counterpart of the simulator's Figure 4/5 tables —
// with a Calls-weighted mean-latency summary row.
func MPITable(w io.Writer, stats []mpi.PhaseStat) {
	fmt.Fprintln(w, "MPI communication by phase (measured)")
	fmt.Fprintf(w, "%-26s %-16s %8s %12s %12s %10s %10s %10s\n",
		"phase", "category", "calls", "bytes", "total(ms)", "min(µs)", "max(µs)", "mean(µs)")
	for _, ps := range stats {
		s := ps.Stat
		fmt.Fprintf(w, "%-26s %-16s %8d %12d %12.3f %10.1f %10.1f %10.1f\n",
			ps.Phase, ps.Cat.String(), s.Calls, s.Bytes,
			float64(s.Time.Microseconds())/1e3,
			float64(s.Min.Nanoseconds())/1e3,
			float64(s.Max.Nanoseconds())/1e3,
			float64(s.MeanLatency().Nanoseconds())/1e3)
	}
	mean := mpi.WeightedMeanLatency(stats)
	fmt.Fprintf(w, "%-26s %-16s %8s %12s %12s %10s %10s %10.1f\n",
		"all", "", "", "", "", "", "", float64(mean.Nanoseconds())/1e3)
}

// MetricsTable renders a registry snapshot as three sections: counters,
// gauges, and histogram summaries (count/mean/p50/p99/max).
func MetricsTable(w io.Writer, snap obs.Snapshot) {
	if len(snap.Counters) > 0 {
		fmt.Fprintln(w, "counters")
		for _, c := range snap.Counters {
			fmt.Fprintf(w, "  %-42s %14d\n", c.Name, c.Value)
		}
	}
	if len(snap.Gauges) > 0 {
		fmt.Fprintln(w, "gauges")
		for _, g := range snap.Gauges {
			fmt.Fprintf(w, "  %-42s %14g\n", g.Name, g.Value)
		}
	}
	if len(snap.Histograms) > 0 {
		fmt.Fprintln(w, "histograms")
		fmt.Fprintf(w, "  %-42s %10s %12s %12s %12s %12s\n", "name", "count", "mean", "p50", "p99", "max")
		for _, h := range snap.Histograms {
			fmt.Fprintf(w, "  %-42s %10d %12.1f %12d %12d %12d\n",
				h.Name, h.Count, h.Mean, h.P50, h.P99, h.Max)
		}
	}
}

// TelemetryTable renders the telemetry plane's per-rank rollup: one row
// per rank with its counter, gauge and histogram totals and spans lost
// to ring overwrites — the at-a-glance cross-rank view the merged trace
// details.
func TelemetryTable(w io.Writer, m *telemetry.Merger) {
	ranks := m.Ranks()
	if len(ranks) == 0 {
		return
	}
	snaps := m.Snapshots()
	_, perRankDrop := m.Dropped()
	fmt.Fprintln(w, "telemetry by rank (merged at master)")
	fmt.Fprintf(w, "%4s %10s %8s %12s %10s\n",
		"rank", "counters", "gauges", "histograms", "dropped")
	for _, rank := range ranks {
		s := snaps[rank]
		fmt.Fprintf(w, "%4d %10d %8d %12d %10d\n",
			rank, len(s.Counters), len(s.Gauges), len(s.Histograms), perRankDrop[rank])
	}
}

// HFIterTable renders the per-iteration HF telemetry — the text twin of
// the JSONL export (loss trajectory, damping λ, reduction ratio ρ, CG
// effort, backtracking and line-search activity).
func HFIterTable(w io.Writer, iters []hf.IterStats) {
	fmt.Fprintln(w, "HF iterations")
	fmt.Fprintf(w, "%4s %12s %10s %8s %5s %4s %5s %7s %4s %12s\n",
		"iter", "loss", "lambda", "rho", "cg", "bt", "best", "alpha", "acc", "|grad|")
	for _, s := range iters {
		acc := "yes"
		if !s.Accepted {
			acc = "no"
		}
		fmt.Fprintf(w, "%4d %12.5f %10.3g %8.3f %5d %4d %5d %7.3f %4s %12.4g\n",
			s.Iter, s.Loss, s.Lambda, s.Rho, s.CGIters, s.Backtracks, s.BestIdx, s.Alpha, acc, s.GradNorm)
	}
}

// Package bgq models the two machines of the paper's evaluation: the IBM
// Blue Gene/Q (§III) and the Intel Xeon Linux cluster of Table I. The
// model maps operation counts measured from the real implementation onto
// execution time, per-core cycle breakdowns (committed / AXU-FXU
// dependency stalls / IU-empty, as in Figures 2-3) and communication
// times, parameterized by the rank/thread configuration sweep of Figure 1.
//
// Modeling choices, calibrated to the paper's qualitative findings and
// documented in DESIGN.md:
//
//   - Per-core issue efficiency grows with hardware threads per core
//     (1→4), reflecting §V-A's use of multithreading to hide stall cycles
//     on the in-order A2 core.
//   - Per-rank thread-synchronization overhead grows mildly with threads
//     per rank (OpenMP barriers at cache-block boundaries), and memory-
//     system contention grows mildly with ranks per node. Together these
//     reproduce Figure 1's 2048-2-32 ≲ 4096-4-16 < 1024-1-64 ordering.
//   - BG/Q collectives are hardware-accelerated on the torus: cost is
//     essentially partition-size independent (line rate + diameter
//     latency). The Linux cluster uses software binomial trees over
//     Ethernet with a contention ("collision") multiplier — the §VII
//     comparison.
//   - The compute-node kernel is noise-free (§VIII); the Linux cluster
//     loses a small fraction of compute to OS jitter.
package bgq

import (
	"fmt"
	"math"

	"repro/internal/torus"
)

// Config is an MPI run configuration in the paper's R-rpn-T notation:
// R total ranks, rpn ranks per node, T threads per rank (e.g. 4096-4-16).
type Config struct {
	Ranks          int
	RanksPerNode   int
	ThreadsPerRank int
}

// Label renders the paper's configuration notation.
func (c Config) Label() string {
	return fmt.Sprintf("%d-%d-%d", c.Ranks, c.RanksPerNode, c.ThreadsPerRank)
}

// Nodes returns the number of compute nodes used.
func (c Config) Nodes() int { return c.Ranks / c.RanksPerNode }

// Validate checks the configuration against the machine's node geometry.
func (c Config) Validate(m MachineSpec) error {
	if c.Ranks <= 0 || c.RanksPerNode <= 0 || c.ThreadsPerRank <= 0 {
		return fmt.Errorf("bgq: non-positive field in config %s", c.Label())
	}
	if c.Ranks%c.RanksPerNode != 0 {
		return fmt.Errorf("bgq: ranks %d not divisible by ranks/node %d", c.Ranks, c.RanksPerNode)
	}
	if c.RanksPerNode > m.Node.Cores {
		return fmt.Errorf("bgq: %d ranks/node exceeds %d cores", c.RanksPerNode, m.Node.Cores)
	}
	maxThreads := m.Node.Cores * m.Node.ThreadsPerCore / c.RanksPerNode
	if c.ThreadsPerRank > maxThreads {
		return fmt.Errorf("bgq: %d threads/rank exceeds %d HW threads available", c.ThreadsPerRank, maxThreads)
	}
	return nil
}

// CoresPerRank returns how many cores each rank owns.
func (c Config) CoresPerRank(m MachineSpec) float64 {
	return float64(m.Node.Cores) / float64(c.RanksPerNode)
}

// ThreadsPerCore returns the hardware-thread occupancy per core under
// this configuration.
func (c Config) ThreadsPerCore(m MachineSpec) float64 {
	return float64(c.ThreadsPerRank) / c.CoresPerRank(m)
}

// NodeSpec describes one compute node.
type NodeSpec struct {
	Cores              int
	ThreadsPerCore     int
	ClockHz            float64
	FlopsPerCycPerCore float64 // peak: BG/Q QPX 4-wide FMA = 8 flops/cycle
}

// PeakNodeFlops returns the node's peak floating-point rate.
func (n NodeSpec) PeakNodeFlops() float64 {
	return float64(n.Cores) * n.FlopsPerCycPerCore * n.ClockHz
}

// MachineSpec is a full machine model.
type MachineSpec struct {
	Name string
	Node NodeSpec

	// Network.
	LinkBandwidth float64 // bytes/s per torus link direction (or NIC)
	HopLatencySec float64
	MPIAlphaSec   float64 // per-operation software overhead
	// P2PSetupSec is the per-message fixed cost of a large point-to-point
	// transfer (rendezvous handshake, buffer registration, marshaling
	// setup); it makes the master's load_data grow with the number of
	// workers even at constant total bytes, as in Figures 2 and 4.
	P2PSetupSec float64
	// HWCollectives: torus hardware collectives at CollectiveBW,
	// partition-size independent. Otherwise software binomial trees with
	// EthContention multiplier.
	HWCollectives bool
	CollectiveBW  float64
	EthContention float64

	// PowerPerNodeWatts is the node's power draw under load, for the
	// §VIII energy-efficiency comparison (BG/Q led the Green500 of its
	// era; a training run's energy is power × nodes × time).
	PowerPerNodeWatts float64

	// MemBandwidth is the node's main-memory bandwidth in bytes/s,
	// shared by the ranks on the node; it bounds the master's
	// memory-bound CG vector arithmetic.
	MemBandwidth float64

	// Compute efficiency model.
	OSNoiseFrac       float64 // compute lost to OS jitter (0 on the CNK)
	GemmEffPeak       float64 // best-case fraction of peak for SGEMM
	ScalarEff         float64 // efficiency on non-SIMD code (forward-backward, vector ops)
	SyncCostPerThread float64 // per-thread barrier overhead coefficient
	MemContPerRank    float64 // memory contention per extra rank on a node
	// SmallBatchCores caps how many cores a small-minibatch GEMM (the
	// per-worker curvature-sample batches, a few hundred frames) can use
	// effectively — the "handling small matrices" tuning problem of §V-A.
	SmallBatchCores float64
	// occupancy of the in-order pipeline vs HW threads per core
	occByThreads func(tpc float64) float64
}

// BlueGeneQ returns the Blue Gene/Q model: 16 in-order A2 cores at
// 1.6 GHz, 4 HW threads/core, 4-wide FMA QPX (204.8 GF/node peak), 5-D
// torus at 2 GB/s/link/direction with hardware collectives, noise-free
// kernel.
func BlueGeneQ() MachineSpec {
	return MachineSpec{
		Name: "BG/Q",
		Node: NodeSpec{Cores: 16, ThreadsPerCore: 4, ClockHz: 1.6e9, FlopsPerCycPerCore: 8},

		LinkBandwidth: 2.0e9,
		HopLatencySec: 40e-9,
		MPIAlphaSec:   4e-6,
		P2PSetupSec:   2e-3,
		HWCollectives: true,
		CollectiveBW:  1.8e9,
		EthContention: 1,
		MemBandwidth:  28e9,
		// ≈80 kW per 1024-node rack under load.
		PowerPerNodeWatts: 78,

		OSNoiseFrac:       0,
		GemmEffPeak:       0.92,
		ScalarEff:         0.08, // in-order single-issue core on branchy scalar code
		SyncCostPerThread: 0.008,
		MemContPerRank:    0.015,
		SmallBatchCores:   4,
		occByThreads:      bgqOccupancy,
	}
}

// bgqOccupancy models how hardware threads hide the in-order core's stall
// cycles (§III: two threads can dual-issue FMA + load/store; four threads
// cover L1P latency).
func bgqOccupancy(tpc float64) float64 {
	switch {
	case tpc <= 1:
		return 0.45
	case tpc <= 2:
		return 0.45 + (0.72-0.45)*(tpc-1)
	case tpc <= 4:
		return 0.72 + (0.97-0.72)*(tpc-2)/2
	default:
		return 0.97
	}
}

// IntelXeonCluster returns the Table I comparison platform: a 2.9 GHz
// dual-socket Xeon Linux cluster (16 cores/node) running 96 MPI processes
// of 8 threads each (one per socket) over 10 GbE with software
// collectives and OS jitter — the paper's 64-node Intel/Linux cluster.
func IntelXeonCluster() MachineSpec {
	return MachineSpec{
		Name: "Intel-Xeon",
		Node: NodeSpec{Cores: 16, ThreadsPerCore: 1, ClockHz: 2.9e9, FlopsPerCycPerCore: 8},

		LinkBandwidth: 1.25e9, // 10 GbE
		HopLatencySec: 0,
		MPIAlphaSec:   30e-6,
		P2PSetupSec:   3e-3,
		HWCollectives: false,
		CollectiveBW:  1.25e9,
		EthContention: 3.0, // §VII "communication bottlenecks (collisions)"
		MemBandwidth:  50e9,
		// Dual-socket Xeon node with memory and NIC under load.
		PowerPerNodeWatts: 420,

		OSNoiseFrac:       0.03,
		GemmEffPeak:       0.75,
		ScalarEff:         0.60, // out-of-order core tolerates scalar code
		SyncCostPerThread: 0.002,
		MemContPerRank:    0.012,
		SmallBatchCores:   4,
		occByThreads:      func(tpc float64) float64 { return 1 },
	}
}

// EnergyKWh returns the energy of running the given configuration for
// seconds of wall-clock time, in kilowatt-hours.
func (m MachineSpec) EnergyKWh(c Config, seconds float64) float64 {
	return m.PowerPerNodeWatts * float64(c.Nodes()) * seconds / 3600 / 1000
}

// GFlopsPerWatt returns the modeled sustained GEMM energy efficiency of
// the configuration — the Green500 metric of the paper's §VIII.
func (m MachineSpec) GFlopsPerWatt(c Config) float64 {
	perNode := m.GemmRate(c) * float64(c.RanksPerNode)
	return perNode / 1e9 / m.PowerPerNodeWatts
}

// RankEfficiency returns the modeled fraction of a rank's peak GEMM rate
// achieved under the configuration: pipeline occupancy × thread-sync
// overhead × memory contention × (1 − OS noise) × peak GEMM efficiency.
func (m MachineSpec) RankEfficiency(c Config) float64 {
	occ := m.occByThreads(c.ThreadsPerCore(m))
	sync := 1 / (1 + m.SyncCostPerThread*float64(c.ThreadsPerRank))
	mem := 1 - m.MemContPerRank*float64(c.RanksPerNode-1)
	if mem < 0.5 {
		mem = 0.5
	}
	return m.GemmEffPeak * occ * sync * mem * (1 - m.OSNoiseFrac)
}

// GemmRate returns the modeled SGEMM rate of one rank in flops/s.
func (m MachineSpec) GemmRate(c Config) float64 {
	peak := c.CoresPerRank(m) * m.Node.FlopsPerCycPerCore * m.Node.ClockHz
	return peak * m.RankEfficiency(c)
}

// SmallBatchGemmRate returns the modeled SGEMM rate of one rank on a
// small minibatch of batchUtts utterances (each a few hundred frames):
// each utterance's frames expose roughly SmallBatchCores cores' worth of
// parallelism, so a fat rank only reaches full width once its sample
// holds enough utterances — the "handling small matrices" problem §V-A
// tunes for and the width penalty behind the Figure 1(a) configuration
// ordering.
func (m MachineSpec) SmallBatchGemmRate(c Config, batchUtts int64) float64 {
	if batchUtts < 1 {
		batchUtts = 1
	}
	frac := m.SmallBatchCores * float64(batchUtts) / c.CoresPerRank(m)
	if frac > 1 {
		frac = 1
	}
	return m.GemmRate(c) * frac
}

// ScalarRate returns the modeled rate of one rank on non-SIMD code
// (sequence forward-backward, master vector arithmetic) in flops/s.
// Scalar code does not vectorize, so the per-cycle rate is 2 flops
// (1 FMA pipe) scaled by the machine's scalar efficiency; it still scales
// with cores and benefits from thread occupancy.
func (m MachineSpec) ScalarRate(c Config) float64 {
	occ := m.occByThreads(c.ThreadsPerCore(m))
	return c.CoresPerRank(m) * 2 * m.Node.ClockHz * m.ScalarEff * occ * (1 - m.OSNoiseFrac)
}

// CycleBreakdown splits a rank's busy time into the categories of the
// paper's Figures 2-3, in core-cycles summed over the rank's cores.
type CycleBreakdown struct {
	Committed float64 // productive cycles
	AXUStall  float64 // AXU/FXU dependency stalls
	IUEmpty   float64 // instruction-unit-empty cycles (I-cache/IERAT misses)
}

// Total returns the summed cycles.
func (b CycleBreakdown) Total() float64 { return b.Committed + b.AXUStall + b.IUEmpty }

// Add accumulates another breakdown.
func (b *CycleBreakdown) Add(o CycleBreakdown) {
	b.Committed += o.Committed
	b.AXUStall += o.AXUStall
	b.IUEmpty += o.IUEmpty
}

// CycleSplit converts a compute duration on one rank into a cycle
// breakdown: the efficiency determines the committed share, and the
// remainder splits between dependency stalls and empty-issue cycles, with
// more hardware threads shifting waste from stalls to (fewer) total
// wasted cycles, as §VII observes.
func (m MachineSpec) CycleSplit(seconds float64, c Config, scalar bool) CycleBreakdown {
	cycles := seconds * m.Node.ClockHz * c.CoresPerRank(m)
	eff := m.RankEfficiency(c) / m.GemmEffPeak // issue-slot utilization
	if scalar {
		eff = m.ScalarEff * m.occByThreads(c.ThreadsPerCore(m))
	}
	if eff > 1 {
		eff = 1
	}
	waste := cycles * (1 - eff)
	// With more threads per core the remaining waste is mostly true data
	// dependencies; with fewer it is increasingly empty issue slots.
	tpc := c.ThreadsPerCore(m)
	stallShare := 0.45 + 0.1*math.Min(tpc, 4)
	return CycleBreakdown{
		Committed: cycles * eff,
		AXUStall:  waste * stallShare,
		IUEmpty:   waste * (1 - stallShare),
	}
}

// BcastTime models a broadcast of the given payload across the
// configuration. On BG/Q this is the hardware collective (line rate plus
// torus diameter); on the cluster a binomial software tree.
func (m MachineSpec) BcastTime(bytes int64, c Config, shape torus.Shape) float64 {
	if m.HWCollectives {
		hops := shape.MaxHops()
		// Line-rate hardware collective plus a small per-stage software
		// setup that grows with the tree depth (visible in the paper's
		// Figure 4 as sync_weights time growing with rank count).
		stages := math.Ceil(math.Log2(float64(c.Ranks)))
		return stages*m.MPIAlphaSec + float64(bytes)/m.CollectiveBW + float64(hops)*m.HopLatencySec
	}
	stages := math.Ceil(math.Log2(float64(c.Ranks)))
	return stages * (m.MPIAlphaSec + float64(bytes)/m.CollectiveBW) * m.EthContention
}

// ReduceTime models a sum-reduction of the payload; slightly slower than
// broadcast because of the combining arithmetic on the way up the tree.
func (m MachineSpec) ReduceTime(bytes int64, c Config, shape torus.Shape) float64 {
	return 1.25 * m.BcastTime(bytes, c, shape)
}

// P2PTime models one point-to-point message over the given hop distance,
// excluding serialization on shared links (which the simulator accounts
// on the sender's clock).
func (m MachineSpec) P2PTime(bytes int64, hops int) float64 {
	return m.MPIAlphaSec + float64(bytes)/m.LinkBandwidth + float64(hops)*m.HopLatencySec
}

// InjectionTime is the time a message occupies the sender's injection
// link, the serialized resource behind the master's load_data bottleneck.
func (m MachineSpec) InjectionTime(bytes int64) float64 {
	return float64(bytes) / m.LinkBandwidth
}

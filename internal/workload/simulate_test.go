package workload

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"repro/internal/bgq"
	"repro/internal/corpus"
)

// runHash is FNV-1a over the Float64bits of TotalSec, IterSec,
// LoadDataSec and every field of every Master and WorkerMean phase, in
// sorted phase order.
func runHash(r *RunResult) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(u uint64) {
		binary.LittleEndian.PutUint64(buf[:], u)
		h.Write(buf[:])
	}
	for _, v := range []float64{r.TotalSec, r.IterSec, r.LoadDataSec} {
		put(math.Float64bits(v))
	}
	for _, rep := range []RankReport{r.Master, r.WorkerMean} {
		for _, name := range rep.phaseNames() {
			p := rep[name]
			h.Write([]byte(name))
			for _, v := range []float64{p.ComputeSec, p.Cycles.Committed, p.Cycles.AXUStall, p.Cycles.IUEmpty, p.CollSec, p.P2PSec} {
				put(math.Float64bits(v))
			}
			put(uint64(p.CollBytes))
			put(uint64(p.P2PBytes))
		}
	}
	return h.Sum64()
}

// gate runs one collective with every rank in phase and compares each
// rank's release time and charge (sync wait plus hold) bit for bit.
func gate(t *testing.T, tl *timeline, phase string, hold, release float64, charge ...float64) {
	t.Helper()
	bits := math.Float64bits
	tl.collective(phase, phase, hold, 0)
	for r, want := range charge {
		if got := tl.reports[r][phase].CollSec; bits(got) != bits(want) {
			t.Errorf("%s: rank %d charged %v, want %v", phase, r, got, want)
		}
		if bits(tl.clock[r]) != bits(release) {
			t.Errorf("%s: rank %d released at %v, want %v", phase, r, tl.clock[r], release)
		}
	}
}

// TestCollectiveGateStragglerRelease: arrivals 1, 4 and 9 with hold 10
// release everyone at 19 and charge sync waits 8, 5 and 0 plus the hold.
func TestCollectiveGateStragglerRelease(t *testing.T) {
	tl := newTimeline(bgq.BlueGeneQ(), bgq.Config{Ranks: 3})
	copy(tl.clock, []float64{1, 4, 9})
	gate(t, tl, "stragglers", 10, 19, 18, 15, 10)
}

// TestCollectiveGateReusableAcrossCycles: each collective on a timeline
// starts from the previous release.
func TestCollectiveGateReusableAcrossCycles(t *testing.T) {
	tl := newTimeline(bgq.BlueGeneQ(), bgq.Config{Ranks: 2})
	// Rank 0 arrives one second after each release, rank 1 two: every
	// round releases at the slower arrival plus the hold of 1.
	for round, release := range []float64{3, 6, 9} {
		tl.clock[0]++
		tl.clock[1] += 2
		gate(t, tl, fmt.Sprintf("round%d", round), 1, release, 2, 1)
	}
	// Now the master straggles.
	tl.clock[0] += 3
	gate(t, tl, "master-straggles", 1, 13, 1, 4)
}

// TestCollectiveGateSinglePartyNoWait: one party never waits.
func TestCollectiveGateSinglePartyNoWait(t *testing.T) {
	solo := newTimeline(bgq.BlueGeneQ(), bgq.Config{Ranks: 1})
	solo.clock[0] = 1
	gate(t, solo, "solo", 2, 3, 2)
}

// TestCollectiveGateReleaseProperty: every rank is released at
// max(arrival) + hold and charged release − arrival, for varied rank
// counts, holds and arrival patterns.
func TestCollectiveGateReleaseProperty(t *testing.T) {
	for trial := 0; trial < 10; trial++ {
		n := 2 + trial%5
		hold := float64(trial%3) + 0.5
		tl := newTimeline(bgq.BlueGeneQ(), bgq.Config{Ranks: n})
		maxArr := 0.0
		for i := range tl.clock {
			tl.clock[i] = float64((i*31 + trial*17) % 23)
			maxArr = math.Max(maxArr, tl.clock[i])
		}
		release := maxArr + hold
		charge := make([]float64, n)
		for i, a := range tl.clock {
			charge[i] = release - a
		}
		gate(t, tl, fmt.Sprintf("trial%d", trial), hold, release, charge...)
	}
}

// TestCollectiveGate pins how collective splits phases and which rank
// closes the gate when ranks tie.
func TestCollectiveGate(t *testing.T) {
	bg := bgq.BlueGeneQ()
	// The master's share goes to the master's phase, bytes to every rank.
	tl := newTimeline(bg, bgq.Config{Ranks: 3})
	tl.collective("master", "worker", 2, 7)
	if tl.reports[0]["master"].CollBytes != 7 || tl.reports[2]["worker"].CollBytes != 7 || tl.reports[0]["worker"] != nil {
		t.Errorf("phase split wrong: %v / %v", tl.reports[0], tl.reports[2])
	}

	// Two ranks tied at maxT: the closer waits exactly zero, the other
	// (release − maxT) − hold = (0.4 − 0.30000000000000004) − 0.1 = −2⁻⁵⁵.
	// Rank 1 closed the previous gate, so it reaches this one after
	// rank 2 and closes it, though rank 2 has the higher index.
	tl = newTimeline(bg, bgq.Config{Ranks: 3})
	copy(tl.clock, []float64{0, 1, 0})
	gate(t, tl, "rank1-closes", 1, 2)
	tenth := 0.1
	maxT := tenth + 0.2 // 0.30000000000000004: a runtime sum, not a constant
	copy(tl.clock, []float64{0, maxT, maxT})
	gate(t, tl, "tie", tenth, 0.4, 0.4, 0.1, 0.09999999999999998)
}

// TestSimulateGolden pins Simulate bit for bit on the runs behind the
// paper's figures and tables. The hashes were recorded on the
// discrete-event engine that the timeline replaced, so a reordered float
// expression or a different gate closer fails here. They are amd64
// hashes: arm64 may fuse a multiply and an add across statements.
func TestSimulateGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("golden hashes are recorded on amd64")
	}
	bg, intel := bgq.BlueGeneQ(), bgq.IntelXeonCluster()
	cfg := func(ranks, perNode, threads int) bgq.Config {
		return bgq.Config{Ranks: ranks, RanksPerNode: perNode, ThreadsPerRank: threads}
	}
	ce, seq, ce400 := Preset50h(false), Preset50h(true), Preset400h(false)
	// tiny has fewer sampled utterances than workers, so most workers
	// skip the curvature compute and meet the gate at the release time.
	tiny := ce
	tiny.TrainFrames, tiny.HeldFrames, tiny.SampleFrames = 200_000, 10_000, 4_000
	tiny.CGItersPerHF, tiny.LossEvalsPerHF, tiny.HFIters = 5, 2, 2
	lengths := corpus.GenerateLengths(corpus.Config{Seed: 42, NumUtterances: 45000})
	shards := func(p corpus.Partitioner) []int64 { return ShardsFromPartition(lengths, 255, p, ce.TrainFrames) }
	cases := []struct {
		name   string
		m      bgq.MachineSpec
		cfg    bgq.Config
		counts AlgoCounts
		shards []int64
		want   uint64
	}{
		// Figure 1(a); its last three rows are the Figure 2-5
		// configurations, and the last is Table I's BG/Q cross-entropy run.
		{"fig1a/1024-1-16", bg, cfg(1024, 1, 16), ce, nil, 0x31ae1acf67a80565},
		{"fig1a/1024-1-32", bg, cfg(1024, 1, 32), ce, nil, 0x48ee8a9045fbce23},
		{"fig1a/1024-1-64", bg, cfg(1024, 1, 64), ce, nil, 0x25167a32a3b818aa},
		{"fig1a/2048-2-32", bg, cfg(2048, 2, 32), ce, nil, 0x8db7ffc57dd836a9},
		{"fig1a/4096-4-16", bg, cfg(4096, 4, 16), ce, nil, 0xf7e35b5794ec762f},
		// Figure 1(b).
		{"fig1b/1024-1-64", bg, cfg(1024, 1, 64), ce400, nil, 0x52c9c7494aac6c48},
		{"fig1b/2048-2-32", bg, cfg(2048, 2, 32), ce400, nil, 0x5fcb651f5659f451},
		{"fig1b/4096-4-16", bg, cfg(4096, 4, 16), ce400, nil, 0x905f41da7c13285d},
		{"fig1b/8192-4-16", bg, cfg(8192, 4, 16), ce400, nil, 0xf9bec84117d2fb74},
		// The Figure 2-5 configurations on the sequence criterion; the
		// last is Table I's BG/Q sequence run.
		{"cycles-seq/1024-1-64", bg, cfg(1024, 1, 64), seq, nil, 0xcc60575bfa7b209d},
		{"cycles-seq/2048-2-32", bg, cfg(2048, 2, 32), seq, nil, 0xe841e04e285156a0},
		{"cycles-seq/4096-4-16", bg, cfg(4096, 4, 16), seq, nil, 0x627082ca534e354f},
		// Table I on the Intel cluster.
		{"table1/intel-ce", intel, cfg(96, 2, 8), ce, nil, 0x11964df9dfa6c4db},
		{"table1/intel-seq", intel, cfg(96, 2, 8), seq, nil, 0x72d4791d4fb42f76},
		// The last point of the scaling study.
		{"scaling/16384-4-16", bg, cfg(16384, 4, 16), ce, nil, 0x597e227cd4b4b989},
		{"tiny/1024-4-16", bg, cfg(1024, 4, 16), tiny, nil, 0xffd466803ee7407b},
		// The §V-C load-balance ablation: uneven shards.
		{"shards/round-robin", bg, cfg(256, 4, 16), ce, shards(corpus.RoundRobin{}), 0x3fe92024553e6f4a},
		{"shards/sorted-greedy", bg, cfg(256, 4, 16), ce, shards(corpus.SortedGreedy{}), 0x8eb84f752a814746},
	}
	for _, c := range cases {
		r, err := Simulate(c.m, c.cfg, c.counts, c.shards)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := runHash(r); got != c.want {
			t.Errorf("%s: hash %#016x, want %#016x", c.name, got, c.want)
		}
	}
}

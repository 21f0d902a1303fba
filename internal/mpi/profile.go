package mpi

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
)

// Category classifies communication the way the paper's Figures 4 and 5
// do: point-to-point versus collective MPI time.
type Category int

const (
	// CatP2P covers Send/Recv (e.g. the master's load_data distribution).
	CatP2P Category = iota
	// CatCollective covers Bcast/Reduce/Barrier.
	CatCollective
	// numCategories counts the defined categories; keep it last.
	numCategories
)

// String returns the category label used in reports. Categories added
// in the future render as "category(N)" until given a label here, so a
// report never silently conflates two unlabeled categories.
func (c Category) String() string {
	switch c {
	case CatP2P:
		return "point-to-point"
	case CatCollective:
		return "collective"
	default:
		return fmt.Sprintf("category(%d)", int(c))
	}
}

// Stat accumulates communication activity for one (phase, category) cell.
type Stat struct {
	Time  time.Duration
	Bytes int64
	Calls int64
	// Min and Max are the fastest and slowest single call in the cell
	// (Min is meaningful only when Calls > 0).
	Min time.Duration
	Max time.Duration
}

// MeanLatency returns the mean per-call latency of the cell, 0 when no
// calls were recorded.
func (s Stat) MeanLatency() time.Duration {
	if s.Calls == 0 {
		return 0
	}
	return s.Time / time.Duration(s.Calls)
}

type statKey struct {
	Phase string
	Cat   Category
}

// opMetrics caches the obs instruments for one MPI operation so the hot
// path does a map lookup under the profiler mutex it already holds,
// never a registry lock.
type opMetrics struct {
	lat   *obs.Histogram
	bytes *obs.Histogram
}

// Profiler records per-phase, per-category communication statistics for
// one rank. It is safe for concurrent use, although a rank is normally
// single-threaded. When a metrics registry is attached (SetRegistry) the
// profiler additionally feeds per-operation latency/bytes histograms
// into it, making the registry the single source of truth for
// communication metrics.
type Profiler struct {
	mu    sync.Mutex
	phase string
	stats map[statKey]*Stat
	reg   *obs.Registry
	ops   map[string]*opMetrics
}

// NewProfiler returns an empty profiler with phase "".
func NewProfiler() *Profiler {
	return &Profiler{stats: make(map[statKey]*Stat)}
}

// SetRegistry routes this profiler's per-operation data into the given
// obs registry as "mpi.<op>.latency_ns" and "mpi.<op>.bytes" histograms
// (op = send, recv, bcast, reduce, barrier). A nil registry detaches.
func (p *Profiler) SetRegistry(r *obs.Registry) {
	p.mu.Lock()
	p.reg = r
	p.ops = make(map[string]*opMetrics)
	p.mu.Unlock()
}

// SetPhase labels subsequent communication with the given phase name
// (e.g. "load_data", "sync_weights", "cg_minimize").
func (p *Profiler) SetPhase(name string) {
	p.mu.Lock()
	p.phase = name
	p.mu.Unlock()
}

// addOp records one call of the named MPI operation: into the per-phase
// per-category table always, and into the attached registry's
// per-operation histograms when one is set.
func (p *Profiler) addOp(cat Category, op string, d time.Duration, bytes int64) {
	p.mu.Lock()
	k := statKey{Phase: p.phase, Cat: cat}
	s := p.stats[k]
	if s == nil {
		s = &Stat{}
		p.stats[k] = s
	}
	if s.Calls == 0 || d < s.Min {
		s.Min = d
	}
	if d > s.Max {
		s.Max = d
	}
	s.Time += d
	s.Bytes += bytes
	s.Calls++
	var m *opMetrics
	if p.reg != nil {
		m = p.ops[op]
		if m == nil {
			m = &opMetrics{
				lat:   p.reg.Histogram("mpi." + op + ".latency_ns"),
				bytes: p.reg.Histogram("mpi." + op + ".bytes"),
			}
			p.ops[op] = m
		}
	}
	p.mu.Unlock()
	if m != nil {
		m.lat.Observe(d.Nanoseconds())
		m.bytes.Observe(bytes)
	}
}

// PhaseStat is one row of a profiler snapshot.
type PhaseStat struct {
	Phase string
	Cat   Category
	Stat  Stat
}

// Snapshot returns the accumulated statistics sorted by phase then
// category.
func (p *Profiler) Snapshot() []PhaseStat {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]PhaseStat, 0, len(p.stats))
	for k, s := range p.stats {
		out = append(out, PhaseStat{Phase: k.Phase, Cat: k.Cat, Stat: *s})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Phase != out[j].Phase {
			return out[i].Phase < out[j].Phase
		}
		return out[i].Cat < out[j].Cat
	})
	return out
}

// WeightedMeanLatency returns the Calls-weighted mean per-call latency
// across the given snapshot rows: total time over total calls. This is
// the aggregate a report row should show — a plain average of per-cell
// means would overweight rare slow phases.
func WeightedMeanLatency(stats []PhaseStat) time.Duration {
	var total time.Duration
	var calls int64
	for _, ps := range stats {
		total += ps.Stat.Time
		calls += ps.Stat.Calls
	}
	if calls == 0 {
		return 0
	}
	return total / time.Duration(calls)
}

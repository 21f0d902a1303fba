package main

import (
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/hf"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/tensor"
)

// Span names the benchmark opens around calls into each layer. The
// distributed master's own phase spans (load_data, sync_weights,
// gradient_loss, cg_minimize, loss_eval) come from internal/core through
// the observer and land in the same tracer.
const (
	spanOptimize   = "hf.optimize"
	spanSessionRun = "core.session_run"
	spanGradient   = "core.gradient"
	spanGNProduct  = "core.gn_product"
	spanHeldout    = "core.heldout_loss"
	spanSample     = "core.curvature_sample"
	spanSetParams  = "core.set_params"
	spanCurvDiag   = "core.curvature_diag"
	spanSend       = "mpi.send"
	spanRecv       = "mpi.recv"
	spanHTTP       = "loadgen.http"
)

// masterPhases are the phase spans internal/core opens on the master rank.
var masterPhases = []string{"load_data", "sync_weights", "gradient_loss", "cg_minimize", "loss_eval"}

// spanNode is one span placed in its rank's tree.
type spanNode struct {
	obs.Event
	// Parent indexes the innermost span on the same rank that encloses
	// this one, -1 for a root.
	Parent int
	// Self is the span's duration minus the part of it that its direct
	// children cover (overlapping children are counted once).
	Self time.Duration
}

// buildSpanTree derives parents and self times from flat events. A span's
// parent is the innermost span on its rank whose interval contains it;
// spans that only partly overlap (two goroutines of one rank) are siblings.
func buildSpanTree(events []obs.Event) []spanNode {
	evs := append([]obs.Event(nil), events...)
	obs.SortEvents(evs)
	nodes := make([]spanNode, len(evs))
	open := map[int][]int{} // rank → stack of enclosing span indexes
	children := make([][]int, len(evs))
	for i, ev := range evs {
		nodes[i] = spanNode{Event: ev, Parent: -1, Self: ev.Dur}
		end := ev.Start + ev.Dur
		stack := open[ev.Rank]
		for len(stack) > 0 {
			top := evs[stack[len(stack)-1]]
			if top.Start+top.Dur >= end {
				break
			}
			stack = stack[:len(stack)-1]
		}
		if len(stack) > 0 {
			p := stack[len(stack)-1]
			nodes[i].Parent = p
			children[p] = append(children[p], i)
		}
		open[ev.Rank] = append(stack, i)
	}
	for p, kids := range children {
		var covered, reach time.Duration
		reach = nodes[p].Start
		for _, k := range kids { // already in start order
			s, e := nodes[k].Start, nodes[k].Start+nodes[k].Dur
			if e <= reach {
				continue
			}
			if s < reach {
				s = reach
			}
			covered += e - s
			reach = e
		}
		nodes[p].Self = nodes[p].Dur - covered
	}
	return nodes
}

// spanTotal is what the spans of one name add up to.
type spanTotal struct {
	Dur, Self time.Duration
	Count     int
}

// spanTotals sums duration, self time and count per span name on the
// ranks that pass keep.
func spanTotals(nodes []spanNode, keep func(rank int) bool) map[string]spanTotal {
	out := map[string]spanTotal{}
	for _, n := range nodes {
		if !keep(n.Rank) {
			continue
		}
		t := out[n.Name]
		t.Dur += n.Dur
		t.Self += n.Self
		t.Count++
		out[n.Name] = t
	}
	return out
}

func onRank(r int) func(int) bool { return func(rank int) bool { return rank == r } }

// writeChromeTrace writes the tracer's spans to out/trace.<workload>.json.
func writeChromeTrace(tr *obs.Tracer, workload string) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(outDir, "trace."+workload+".json"))
	if err != nil {
		return err
	}
	if err := tr.WriteChromeTrace(f); err != nil {
		_ = f.Close() // the write error is the one to report
		return err
	}
	return f.Close()
}

// tracedObjective wraps the serial objective and opens one span per call
// the optimizer makes into it, so hf.optimize's self time is the
// optimizer's own vector work.
type tracedObjective struct {
	obj *core.SerialObjective
	tr  *obs.Tracer
}

var (
	_ hf.Objective      = (*tracedObjective)(nil)
	_ hf.Preconditioned = (*tracedObjective)(nil)
)

func (t *tracedObjective) Dim() int { return t.obj.Dim() }

func (t *tracedObjective) Params() tensor.Vector { return t.obj.Params() }

func (t *tracedObjective) SetParams(p tensor.Vector) {
	defer t.tr.Begin(0, spanSetParams).End()
	t.obj.SetParams(p)
}

func (t *tracedObjective) Gradient() tensor.Vector {
	defer t.tr.Begin(0, spanGradient).End()
	return t.obj.Gradient()
}

func (t *tracedObjective) NewCurvatureSample(iter int) {
	defer t.tr.Begin(0, spanSample).End()
	t.obj.NewCurvatureSample(iter)
}

func (t *tracedObjective) GNProduct(v, out tensor.Vector) {
	defer t.tr.Begin(0, spanGNProduct).End()
	t.obj.GNProduct(v, out)
}

func (t *tracedObjective) HeldOutLoss(p tensor.Vector) float64 {
	defer t.tr.Begin(0, spanHeldout).End()
	return t.obj.HeldOutLoss(p)
}

func (t *tracedObjective) CurvatureDiag(lambda float64) tensor.Vector {
	defer t.tr.Begin(0, spanCurvDiag).End()
	return t.obj.CurvatureDiag(lambda)
}

// msgRecord is one transport call as the traced decorator saw it.
type msgRecord struct {
	Rank, Peer, Tag, Bytes int
	Send                   bool
	Start, End             time.Time
}

// msgLog collects msgRecords from every rank of one run.
type msgLog struct {
	mu   sync.Mutex
	recs []msgRecord
}

func (l *msgLog) add(r msgRecord) {
	l.mu.Lock()
	l.recs = append(l.recs, r)
	l.mu.Unlock()
}

func (l *msgLog) records() []msgRecord {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]msgRecord(nil), l.recs...)
}

// tracedTransport decorates a rank's transport: every Send and Recv
// becomes a span on the rank's track and a msgRecord. It forwards the two
// optional capabilities, so the elastic runtime keeps the transport's
// native deadline receive instead of mpi.RecvTimeout's helper goroutine.
type tracedTransport struct {
	mpi.Transport
	tr  *obs.Tracer
	log *msgLog
}

var (
	_ mpi.DeadlineRecver = (*tracedTransport)(nil)
	_ mpi.WriteDeadliner = (*tracedTransport)(nil)
)

func traced(t mpi.Transport, tr *obs.Tracer, log *msgLog) *tracedTransport {
	return &tracedTransport{Transport: t, tr: tr, log: log}
}

func (t *tracedTransport) Send(dst, tag int, data []byte) error {
	sp := t.tr.Begin(t.Rank(), spanSend)
	start := time.Now()
	err := t.Transport.Send(dst, tag, data)
	end := time.Now()
	sp.End()
	t.log.add(msgRecord{Rank: t.Rank(), Peer: dst, Tag: tag, Bytes: len(data), Send: true, Start: start, End: end})
	return err
}

func (t *tracedTransport) Recv(src, tag int) (mpi.Message, error) {
	return t.recv(func() (mpi.Message, error) { return t.Transport.Recv(src, tag) })
}

// RecvTimeout implements mpi.DeadlineRecver over the inner transport's own
// deadline receive (mpi.RecvTimeout picks it when the transport has one).
func (t *tracedTransport) RecvTimeout(src, tag int, d time.Duration) (mpi.Message, error) {
	return t.recv(func() (mpi.Message, error) { return mpi.RecvTimeout(t.Transport, src, tag, d) })
}

func (t *tracedTransport) recv(do func() (mpi.Message, error)) (mpi.Message, error) {
	sp := t.tr.Begin(t.Rank(), spanRecv)
	start := time.Now()
	msg, err := do()
	end := time.Now()
	sp.End()
	t.log.add(msgRecord{Rank: t.Rank(), Peer: msg.Src, Tag: msg.Tag, Bytes: len(msg.Data), Start: start, End: end})
	return msg, err
}

// SetWriteDeadline implements mpi.WriteDeadliner; a transport without
// write deadlines (inproc) ignores it, as the session does.
func (t *tracedTransport) SetWriteDeadline(d time.Duration) {
	if wd, ok := t.Transport.(mpi.WriteDeadliner); ok {
		wd.SetWriteDeadline(d)
	}
}

// msgStats are the per-run numbers derived from a msgLog.
type msgStats struct {
	Sends      int
	SendBytes  int64
	RecvWait   map[int]time.Duration // rank → time blocked in Recv
	StragglerS float64               // mean over gathers of last−first worker send start, seconds
}

// summarizeMsgs derives counts, receive waits and the straggler gap. A
// gather is the k-th message each worker sends the master: with 3 ranks
// both tree collectives and the elastic star deliver worker contributions
// straight to rank 0, so the k-th sends of all workers belong together.
func summarizeMsgs(recs []msgRecord) msgStats {
	st := msgStats{RecvWait: map[int]time.Duration{}}
	toMaster := map[int][]time.Time{}
	for _, r := range recs {
		if !r.Send {
			st.RecvWait[r.Rank] += r.End.Sub(r.Start)
			continue
		}
		st.Sends++
		st.SendBytes += int64(r.Bytes)
		if r.Peer == 0 && r.Rank != 0 {
			toMaster[r.Rank] = append(toMaster[r.Rank], r.Start)
		}
	}
	if len(toMaster) < 2 {
		return st
	}
	gathers := -1
	for _, ts := range toMaster {
		sort.Slice(ts, func(i, j int) bool { return ts[i].Before(ts[j]) })
		if gathers < 0 || len(ts) < gathers {
			gathers = len(ts)
		}
	}
	var total time.Duration
	for k := 0; k < gathers; k++ {
		var first, last time.Time
		for _, ts := range toMaster {
			if first.IsZero() || ts[k].Before(first) {
				first = ts[k]
			}
			if ts[k].After(last) {
				last = ts[k]
			}
		}
		total += last.Sub(first)
	}
	if gathers > 0 {
		st.StragglerS = total.Seconds() / float64(gathers)
	}
	return st
}

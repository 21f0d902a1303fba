package mpi

// Fault layer: detection knobs for the elastic runtime (FaultConfig,
// deadline-bounded receives) and a schedule-driven fault-injecting
// Transport wrapper for tests and failure drills. The deadlines bound
// individual point-to-point ops, so a dead or wedged rank is named and
// can be evicted and trained around; the collectives have none.

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// ErrTimeout is returned by deadline-bounded receives when no matching
// message arrives in time. The peer may be slow rather than dead;
// eviction policy is the caller's decision.
var ErrTimeout = errors.New("mpi: receive timed out")

// Defaults for FaultConfig zero fields.
const (
	// DefaultOpDeadline bounds one elastic-op round trip per worker.
	DefaultOpDeadline = 10 * time.Second
	// DefaultTCPWriteDeadline bounds a single TCP frame write so a
	// wedged peer surfaces as a send error instead of blocking forever.
	DefaultTCPWriteDeadline = 30 * time.Second
)

// FaultConfig tunes failure detection for the elastic training runtime.
type FaultConfig struct {
	// OpDeadline bounds one point-to-point elastic op (command send →
	// contribution recv) per worker; a rank that misses it is a
	// candidate for eviction. Zero or negative selects DefaultOpDeadline.
	OpDeadline time.Duration
	// WriteDeadline bounds a single frame write on transports that
	// support write deadlines (TCP). Zero or negative selects
	// DefaultTCPWriteDeadline.
	WriteDeadline time.Duration
}

// Filled returns the config with fields ≤ 0 replaced by defaults, so a
// filled config never asks for an unbounded reply wait or write.
func (c FaultConfig) Filled() FaultConfig {
	if c.OpDeadline <= 0 {
		c.OpDeadline = DefaultOpDeadline
	}
	if c.WriteDeadline <= 0 {
		c.WriteDeadline = DefaultTCPWriteDeadline
	}
	return c
}

// DeadlineRecver is the optional Transport capability behind
// RecvTimeout. Both in-tree transports implement it natively via their
// shared mailbox, so no helper goroutine is needed per receive.
type DeadlineRecver interface {
	// RecvTimeout is Recv bounded by a deadline; it fails with an error
	// wrapping ErrTimeout if no matching message arrives within d.
	// d <= 0 means block indefinitely, exactly like Recv.
	RecvTimeout(src, tag int, d time.Duration) (Message, error)
}

// ClosedReporter is the optional Transport capability that tells a
// closed endpoint from a dead peer: Closed reports whether this rank's
// own endpoint has been closed. Both transports implement it, and
// FaultTransport forwards it.
type ClosedReporter interface {
	Closed() bool
}

// closed reports whether t says its own endpoint is closed; false when
// t cannot say.
func closed(t Transport) bool {
	cr, ok := t.(ClosedReporter)
	return ok && cr.Closed()
}

// WriteDeadliner is the optional Transport capability for bounding
// individual frame writes (implemented by the TCP transport).
type WriteDeadliner interface {
	// SetWriteDeadline bounds each subsequent frame write to d from the
	// moment the write starts; d <= 0 restores the transport default.
	// Call before concurrent use of the transport begins.
	SetWriteDeadline(d time.Duration)
}

// RecvTimeout receives from t with a deadline, using the transport's
// native DeadlineRecver support when available. The fallback spawns a
// helper goroutine whose blocking Recv may outlive the deadline and
// consume one message that is then dropped; both in-tree transports
// implement DeadlineRecver, so the fallback only serves external
// Transport implementations.
func RecvTimeout(t Transport, src, tag int, d time.Duration) (Message, error) {
	if d <= 0 {
		return t.Recv(src, tag)
	}
	if dr, ok := t.(DeadlineRecver); ok {
		return dr.RecvTimeout(src, tag, d)
	}
	type result struct {
		msg Message
		err error
	}
	ch := make(chan result, 1)
	go func() {
		msg, err := t.Recv(src, tag)
		ch <- result{msg, err}
	}()
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case r := <-ch:
		return r.msg, r.err
	case <-timer.C:
		return Message{}, fmt.Errorf("%w: no message from rank %d tag %d within %v", ErrTimeout, src, tag, d)
	}
}

// --- fault-injection schedule ---

// FaultAction is one kind of injected fault.
type FaultAction uint8

const (
	// ActKill closes the rank's transport at the triggering op: every
	// later op fails locally and peers observe the death through their
	// own failure detection. Models a crashed process.
	ActKill FaultAction = iota
	// ActDrop silently discards outbound messages. Models loss.
	ActDrop
	// ActDelay sleeps before delivering outbound messages. Models a
	// straggler or congested link.
	ActDelay
	// ActDup sends outbound messages twice. Models retransmission.
	ActDup
)

var actionNames = map[FaultAction]string{
	ActKill:  "kill",
	ActDrop:  "drop",
	ActDelay: "delay",
	ActDup:   "dup",
}

func (a FaultAction) String() string {
	if s, ok := actionNames[a]; ok {
		return s
	}
	return fmt.Sprintf("FaultAction(%d)", uint8(a))
}

func parseFaultAction(s string) (FaultAction, error) {
	for a, name := range actionNames {
		if s == name {
			return a, nil
		}
	}
	return 0, fmt.Errorf("mpi: unknown fault action %q (want kill, drop, delay, dup)", s)
}

// FaultEvent is one scheduled fault against one rank.
type FaultEvent struct {
	Action FaultAction
	// Rank is the rank whose transport misbehaves.
	Rank int
	// Epoch arms the event once the rank's epoch (set via
	// FaultTransport.SetEpoch, typically the HF iteration) reaches this
	// value. Zero means armed from the start.
	Epoch int
	// After skips this many eligible transport ops once armed before
	// the event fires; it positions a kill mid-protocol (e.g. mid-CG).
	After int
	// Count is how many ops a drop/delay/dup affects (default 1); it is
	// meaningless for kill, which is terminal.
	Count int
	// Delay is the injected latency for ActDelay.
	Delay time.Duration
}

// String renders the event in the spec grammar accepted by
// ParseFaultSchedule, e.g. "kill:rank=2,epoch=3".
func (e FaultEvent) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s:rank=%d", e.Action, e.Rank)
	if e.Epoch > 0 {
		fmt.Fprintf(&b, ",epoch=%d", e.Epoch)
	}
	if e.After > 0 {
		fmt.Fprintf(&b, ",after=%d", e.After)
	}
	if e.Count > 1 {
		fmt.Fprintf(&b, ",n=%d", e.Count)
	}
	if e.Delay > 0 {
		fmt.Fprintf(&b, ",d=%s", e.Delay)
	}
	return b.String()
}

// FaultSchedule is an ordered list of fault events, typically parsed
// from a command-line spec.
type FaultSchedule struct {
	Events []FaultEvent
}

// String renders the schedule in the spec grammar; the output
// round-trips through ParseFaultSchedule.
func (s *FaultSchedule) String() string {
	if s == nil || len(s.Events) == 0 {
		return ""
	}
	parts := make([]string, len(s.Events))
	for i, e := range s.Events {
		parts[i] = e.String()
	}
	return strings.Join(parts, ";")
}

// forRank returns the events targeting one rank.
func (s *FaultSchedule) forRank(rank int) []FaultEvent {
	if s == nil {
		return nil
	}
	var evs []FaultEvent
	for _, e := range s.Events {
		if e.Rank == rank {
			evs = append(evs, e)
		}
	}
	return evs
}

// ParseFaultSchedule parses a fault-injection spec of semicolon-
// separated events:
//
//	kill:rank=2,epoch=3 ; delay:rank=1,d=50ms,n=3 ; drop:rank=3,after=2
//
// Each event is action:key=value[,key=value...] with action one of
// kill, drop, delay, dup and keys rank (required), epoch, after,
// n (repeat count) and d (delay duration). Parse and String round-trip.
func ParseFaultSchedule(spec string) (*FaultSchedule, error) {
	s := &FaultSchedule{}
	for _, part := range strings.Split(spec, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		ev, err := parseFaultEvent(part)
		if err != nil {
			return nil, err
		}
		s.Events = append(s.Events, ev)
	}
	if len(s.Events) == 0 {
		return nil, fmt.Errorf("mpi: empty fault schedule %q", spec)
	}
	return s, nil
}

func parseFaultEvent(part string) (FaultEvent, error) {
	head, rest, found := strings.Cut(part, ":")
	if !found {
		return FaultEvent{}, fmt.Errorf("mpi: fault event %q: want action:key=value,...", part)
	}
	action, err := parseFaultAction(strings.TrimSpace(head))
	if err != nil {
		return FaultEvent{}, err
	}
	ev := FaultEvent{Action: action, Rank: -1}
	if action != ActKill {
		ev.Count = 1
	}
	for _, kv := range strings.Split(rest, ",") {
		kv = strings.TrimSpace(kv)
		if kv == "" {
			continue
		}
		key, val, found := strings.Cut(kv, "=")
		if !found {
			return FaultEvent{}, fmt.Errorf("mpi: fault event %q: bad pair %q", part, kv)
		}
		key, val = strings.TrimSpace(key), strings.TrimSpace(val)
		switch key {
		case "rank", "epoch", "after", "n":
			n, err := strconv.Atoi(val)
			if err != nil || n < 0 {
				return FaultEvent{}, fmt.Errorf("mpi: fault event %q: %s=%q is not a non-negative integer", part, key, val)
			}
			switch key {
			case "rank":
				ev.Rank = n
			case "epoch":
				ev.Epoch = n
			case "after":
				ev.After = n
			case "n":
				if n < 1 {
					return FaultEvent{}, fmt.Errorf("mpi: fault event %q: n must be >= 1", part)
				}
				ev.Count = n
			}
		case "d":
			d, err := time.ParseDuration(val)
			if err != nil || d <= 0 {
				return FaultEvent{}, fmt.Errorf("mpi: fault event %q: d=%q is not a positive duration", part, val)
			}
			ev.Delay = d
		default:
			return FaultEvent{}, fmt.Errorf("mpi: fault event %q: unknown key %q (want rank, epoch, after, n, d)", part, key)
		}
	}
	if ev.Rank < 0 {
		return FaultEvent{}, fmt.Errorf("mpi: fault event %q: rank is required", part)
	}
	if ev.Action == ActDelay && ev.Delay <= 0 {
		return FaultEvent{}, fmt.Errorf("mpi: fault event %q: delay needs d=<duration>", part)
	}
	if ev.Action == ActKill && ev.Count != 0 {
		return FaultEvent{}, fmt.Errorf("mpi: fault event %q: n is meaningless for kill", part)
	}
	return ev, nil
}

// Ranks returns the sorted set of ranks the schedule targets.
func (s *FaultSchedule) Ranks() []int {
	if s == nil {
		return nil
	}
	set := map[int]bool{}
	for _, e := range s.Events {
		set[e.Rank] = true
	}
	ranks := make([]int, 0, len(set))
	for r := range set {
		ranks = append(ranks, r)
	}
	sort.Ints(ranks)
	return ranks
}

// --- fault-injecting transport ---

// FaultTransport wraps a Transport and applies the schedule's events
// for its own rank: dropping, delaying or duplicating outbound
// messages, or killing the rank outright (closing the underlying
// transport so every later op fails and peers observe the death).
//
// Events gate on an epoch the owner advances with SetEpoch — the
// elastic runtime advances it to the HF iteration as each rank learns
// it — so a schedule can say "kill rank 2 at iteration 3" precisely.
type FaultTransport struct {
	t Transport

	mu     sync.Mutex
	epoch  int
	killed bool
	evs    []*faultEventState
}

type faultEventState struct {
	FaultEvent
	seen    int // eligible ops observed while armed
	applied int // ops actually affected (drop/delay/dup)
}

// faultPlan is the resolved effect of the schedule on one transport op.
type faultPlan struct {
	kill  bool
	drop  bool
	dup   bool
	delay time.Duration
}

// InjectFaults wraps t with the schedule's events for t's own rank. If
// the schedule targets no event at t's rank, t is returned unchanged,
// so wrapping every rank of a fabric is cheap and uniform.
func InjectFaults(t Transport, s *FaultSchedule) Transport {
	evs := s.forRank(t.Rank())
	if len(evs) == 0 {
		return t
	}
	ft := &FaultTransport{t: t}
	for _, e := range evs {
		if e.Action != ActKill && e.Count < 1 {
			e.Count = 1 // programmatic literals often omit Count
		}
		ft.evs = append(ft.evs, &faultEventState{FaultEvent: e})
	}
	return ft
}

// SetEpoch advances the rank's fault epoch (monotonically); events with
// Epoch <= e become armed.
func (f *FaultTransport) SetEpoch(e int) {
	f.mu.Lock()
	if e > f.epoch {
		f.epoch = e
	}
	f.mu.Unlock()
}

// Epoch reports the current fault epoch.
func (f *FaultTransport) Epoch() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.epoch
}

// plan resolves the schedule against one transport op. Message-shaping
// actions (drop/delay/dup) apply only to sends; kill is eligible on any
// op so a killed rank dies at its very next transport call.
func (f *FaultTransport) plan(send bool) faultPlan {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.killed {
		return faultPlan{kill: true}
	}
	var p faultPlan
	for _, ev := range f.evs {
		if f.epoch < ev.Epoch {
			continue
		}
		if !send && ev.Action != ActKill {
			continue
		}
		ev.seen++
		if ev.seen <= ev.After {
			continue
		}
		switch ev.Action {
		case ActKill:
			f.killed = true
			p.kill = true
		case ActDrop:
			if ev.applied < ev.Count {
				ev.applied++
				p.drop = true
			}
		case ActDelay:
			if ev.applied < ev.Count {
				ev.applied++
				p.delay += ev.Delay
			}
		case ActDup:
			if ev.applied < ev.Count {
				ev.applied++
				p.dup = true
			}
		}
	}
	return p
}

func (f *FaultTransport) killErr(op string) error {
	_ = f.t.Close()
	return fmt.Errorf("mpi: rank %d %s: killed by fault injection: %w", f.Rank(), op, ErrClosed)
}

// Rank implements Transport.
func (f *FaultTransport) Rank() int { return f.t.Rank() }

// Size implements Transport.
func (f *FaultTransport) Size() int { return f.t.Size() }

// Send implements Transport, applying any armed events.
func (f *FaultTransport) Send(dst, tag int, data []byte) error {
	p := f.plan(true)
	if p.kill {
		return f.killErr("send")
	}
	if p.delay > 0 {
		time.Sleep(p.delay)
	}
	if p.drop {
		return nil
	}
	if err := f.t.Send(dst, tag, data); err != nil {
		return err
	}
	if p.dup {
		return f.t.Send(dst, tag, data)
	}
	return nil
}

// Recv implements Transport; only kill events apply to receives.
func (f *FaultTransport) Recv(src, tag int) (Message, error) {
	if p := f.plan(false); p.kill {
		return Message{}, f.killErr("recv")
	}
	return f.t.Recv(src, tag)
}

// RecvTimeout implements DeadlineRecver, forwarding to the underlying
// transport's native support when present.
func (f *FaultTransport) RecvTimeout(src, tag int, d time.Duration) (Message, error) {
	if p := f.plan(false); p.kill {
		return Message{}, f.killErr("recv")
	}
	return RecvTimeout(f.t, src, tag, d)
}

// SetWriteDeadline implements WriteDeadliner when the underlying
// transport does; otherwise it is a no-op.
func (f *FaultTransport) SetWriteDeadline(d time.Duration) {
	if w, ok := f.t.(WriteDeadliner); ok {
		w.SetWriteDeadline(d)
	}
}

// Close implements Transport.
func (f *FaultTransport) Close() error { return f.t.Close() }

// Closed implements ClosedReporter when the underlying transport does; a
// kill closes that transport, so a killed rank reports closed.
func (f *FaultTransport) Closed() bool { return closed(f.t) }

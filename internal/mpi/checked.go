package mpi

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// Cross-rank protocol conformance checking: the runtime half of
// commcheck. Every collective entry stamps a per-rank sequence number
// and a descriptor (kind, dtype, root, element count, call site); each
// message a checked collective exchanges carries that descriptor as a
// small piggybacked header. A receiver that observes a peer executing a
// *different* collective — wrong kind, wrong sequence number, wrong
// dtype, wrong root, wrong length — fails immediately with both ranks'
// call sites instead of deadlocking or silently folding mismatched
// buffers. Divergences that exchange no message (both ranks blocked in
// mismatched receives) are caught by a per-collective watchdog deadline
// that dumps the rank's recent protocol history through internal/obs.
//
// Checking is off by default and costs a single nil pointer test per
// collective operation; see CheckedComm and the checked build tag.

// CollKind identifies a collective operation in the checked protocol.
type CollKind uint8

const (
	collNone CollKind = iota
	// CollBcast is a broadcast from a root rank.
	CollBcast
	// CollReduce is a reduction to a root rank.
	CollReduce
	// CollAllreduce is a reduction delivered to every rank.
	CollAllreduce
	// CollBarrier is a full synchronization.
	CollBarrier
	// CollGather collects per-rank buffers at a root.
	CollGather
	// CollScatter distributes slices of a root buffer.
	CollScatter
	// CollAllgather concatenates per-rank buffers everywhere.
	CollAllgather
)

// String returns the lower-case collective name ("bcast", "reduce", ...).
func (k CollKind) String() string {
	switch k {
	case CollBcast:
		return "bcast"
	case CollReduce:
		return "reduce"
	case CollAllreduce:
		return "allreduce"
	case CollBarrier:
		return "barrier"
	case CollGather:
		return "gather"
	case CollScatter:
		return "scatter"
	case CollAllgather:
		return "allgather"
	default:
		return fmt.Sprintf("collective(%d)", int(k))
	}
}

// Dtype identifies the element type of a checked collective's payload.
type Dtype uint8

const (
	// DtypeNone marks payload-free collectives (Barrier).
	DtypeNone Dtype = iota
	// DtypeF32 marks float32 payloads.
	DtypeF32
	// DtypeF64 marks float64 payloads.
	DtypeF64
)

// String returns "none", "f32" or "f64".
func (d Dtype) String() string {
	switch d {
	case DtypeF32:
		return "f32"
	case DtypeF64:
		return "f64"
	case DtypeNone:
		return "none"
	default:
		return fmt.Sprintf("dtype(%d)", int(d))
	}
}

// ProtoEvent is one collective in a rank's protocol history: what the
// rank executed (or is executing), in op-loop order.
type ProtoEvent struct {
	// Seq is the 1-based per-rank collective sequence number. Ranks in
	// the same collective of a conforming run always agree on Seq.
	Seq uint64
	// Kind is the collective operation.
	Kind CollKind
	// Dtype is the payload element type.
	Dtype Dtype
	// Root is the tree root, or -1 for rootless collectives.
	Root int
	// Count is the payload element count.
	Count int
	// Site is the caller's file:line.
	Site string
	// Phase is the profiler phase label at entry (local only; not
	// carried on the wire).
	Phase string
}

// String renders the event as "#seq kind[dtype n=count root=r] at site".
func (e ProtoEvent) String() string {
	root := ""
	if e.Root >= 0 {
		root = fmt.Sprintf(" root=%d", e.Root)
	}
	return fmt.Sprintf("#%d %s[%s n=%d%s] at %s", e.Seq, e.Kind, e.Dtype, e.Count, root, e.Site)
}

// CheckConfig parameterizes a CheckedComm.
type CheckConfig struct {
	// Deadline bounds how long one collective may block in a receive
	// before the watchdog declares the ranks desynchronized. 0 selects
	// DefaultCheckDeadline; negative disables the watchdog (header
	// conformance checking stays on).
	Deadline time.Duration
	// History is the number of recent protocol events retained per rank
	// for the failure dump. 0 selects DefaultCheckHistory.
	History int
	// Obs, when non-nil, receives a "mpi.commcheck.violations" counter
	// bump and the rank's protocol-history dump (through the observer's
	// event log) whenever a violation or watchdog timeout fires.
	Obs *obs.Observer
}

// DefaultCheckDeadline is the watchdog deadline used when CheckConfig
// leaves Deadline zero: generous enough for multi-GB reductions on slow
// fabrics, small enough to turn a deadlock into a diagnosis.
const DefaultCheckDeadline = 30 * time.Second

// DefaultCheckHistory is the per-rank protocol-history depth used when
// CheckConfig leaves History zero.
const DefaultCheckHistory = 32

func (cfg CheckConfig) filled() CheckConfig {
	if cfg.Deadline == 0 {
		cfg.Deadline = DefaultCheckDeadline
	}
	if cfg.History <= 0 {
		cfg.History = DefaultCheckHistory
	}
	return cfg
}

// ProtocolError reports a cross-rank collective divergence detected from
// a peer's piggybacked header: the two ranks entered different
// collectives (or the same collective with incompatible arguments).
type ProtocolError struct {
	// Rank is the local (detecting) rank; Peer sent the diverging header.
	Rank, Peer int
	// Local is what this rank is executing; Remote is what the peer was
	// executing when it sent the message, including its call site.
	Local, Remote ProtoEvent
}

// Error implements error, naming the diverging collective, sequence
// numbers and both ranks' call sites.
func (e *ProtocolError) Error() string {
	return fmt.Sprintf("mpi: commcheck: rank %d executing %s diverges from rank %d executing %s",
		e.Rank, e.Local, e.Peer, e.Remote)
}

// WatchdogError reports a collective receive that blocked past the
// configured deadline — the signature of a desynchronized op loop or a
// dead peer whose transport cannot detect the failure.
type WatchdogError struct {
	// Rank is the stuck rank.
	Rank int
	// Deadline is the configured per-collective deadline that expired.
	Deadline time.Duration
	// Waiting is the collective this rank was blocked in.
	Waiting ProtoEvent
	// History is the rank's last-N protocol events, oldest first.
	History []ProtoEvent
}

// Error implements error, naming the stuck collective, its sequence
// number and call site, and the tail of the rank's protocol history.
func (e *WatchdogError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "mpi: commcheck: rank %d blocked >%v in %s (desynchronized op loop or dead peer)",
		e.Rank, e.Deadline, e.Waiting)
	if n := len(e.History); n > 0 {
		fmt.Fprintf(&b, "; last %d events:", n)
		for _, ev := range e.History {
			b.WriteString(" ")
			b.WriteString(ev.String())
		}
	}
	return b.String()
}

// protoChecker holds one rank's conformance state: the sequence counter,
// the collective currently executing, the bounded event history, and the
// first failure (which latches — after a violation every further checked
// operation fails fast instead of waiting out another deadline).
type protoChecker struct {
	rank int
	cfg  CheckConfig

	mu     sync.Mutex
	seq    uint64
	cur    ProtoEvent
	hist   []ProtoEvent
	failed error
}

func newProtoChecker(rank int, cfg CheckConfig) *protoChecker {
	return &protoChecker{rank: rank, cfg: cfg.filled()}
}

// trimSite shortens an absolute source path to its last two elements,
// keeping the diagnostic stable across checkouts.
func trimSite(file string) string {
	i := strings.LastIndexByte(file, '/')
	if i < 0 {
		return file
	}
	if j := strings.LastIndexByte(file[:i], '/'); j >= 0 {
		return file[j+1:]
	}
	return file[i+1:]
}

// enter records the start of a collective: bumps the sequence number,
// captures the caller's site, and makes the event current. skip is the
// number of frames between enter's caller and the user call site.
func (k *protoChecker) enter(phase string, kind CollKind, dt Dtype, root, count, skip int) {
	site := "?"
	if _, file, line, ok := runtime.Caller(skip + 1); ok {
		site = trimSite(file) + ":" + strconv.Itoa(line)
	}
	k.mu.Lock()
	k.seq++
	k.cur = ProtoEvent{Seq: k.seq, Kind: kind, Dtype: dt, Root: root, Count: count, Site: site, Phase: phase}
	if len(k.hist) < k.cfg.History {
		k.hist = append(k.hist, k.cur)
	} else {
		copy(k.hist, k.hist[1:])
		k.hist[len(k.hist)-1] = k.cur
	}
	k.mu.Unlock()
}

// snapshot returns the current event and latched failure.
func (k *protoChecker) snapshot() (ProtoEvent, error) {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.cur, k.failed
}

// fail latches the first failure and returns the latched error.
func (k *protoChecker) fail(err error) error {
	k.mu.Lock()
	if k.failed == nil {
		k.failed = err
	}
	err = k.failed
	k.mu.Unlock()
	return err
}

// history returns a copy of the rank's recent protocol events, oldest
// first.
func (k *protoChecker) history() []ProtoEvent {
	k.mu.Lock()
	out := make([]ProtoEvent, len(k.hist))
	copy(out, k.hist)
	k.mu.Unlock()
	return out
}

// dump routes a violation and the rank's protocol history through the
// configured observer: a violations counter plus one event-log line per
// history entry. Safe with a nil observer.
func (k *protoChecker) dump(reason string) {
	ob := k.cfg.Obs
	if reg := ob.Registry(); reg != nil {
		reg.Counter("mpi.commcheck.violations").Inc()
	}
	ob.Eventf(k.rank, "commcheck: %s", reason)
	for _, e := range k.history() {
		ob.Eventf(k.rank, "commcheck: rank %d history %s", k.rank, e)
	}
}

// --- piggybacked header wire format ---
//
// [magic 2][kind 1][dtype 1][root int32][seq uint64][count uint32]
// [siteLen uint16][site siteLen bytes][payload...]

const (
	protoMagic0   = 0xC4
	protoMagic1   = 0x11
	protoHdrFixed = 2 + 1 + 1 + 4 + 8 + 4 + 2
	// maxSiteLen bounds the call-site string carried per message.
	maxSiteLen = 255
)

// appendProtoHeader appends e's wire encoding to dst.
func appendProtoHeader(dst []byte, e ProtoEvent) []byte {
	site := e.Site
	if len(site) > maxSiteLen {
		site = site[len(site)-maxSiteLen:]
	}
	var fixed [protoHdrFixed]byte
	fixed[0], fixed[1] = protoMagic0, protoMagic1
	fixed[2] = byte(e.Kind)
	fixed[3] = byte(e.Dtype)
	binary.LittleEndian.PutUint32(fixed[4:], uint32(int32(e.Root)))
	binary.LittleEndian.PutUint64(fixed[8:], e.Seq)
	binary.LittleEndian.PutUint32(fixed[16:], uint32(e.Count))
	binary.LittleEndian.PutUint16(fixed[20:], uint16(len(site)))
	dst = append(dst, fixed[:]...)
	return append(dst, site...)
}

// splitProtoHeader parses a piggybacked header off data, returning the
// peer's event and the remaining payload.
func splitProtoHeader(data []byte) (ProtoEvent, []byte, error) {
	if len(data) < protoHdrFixed || data[0] != protoMagic0 || data[1] != protoMagic1 {
		return ProtoEvent{}, nil, fmt.Errorf("carries no commcheck header (is CheckedComm enabled on every rank?)")
	}
	siteLen := int(binary.LittleEndian.Uint16(data[20:]))
	if len(data) < protoHdrFixed+siteLen {
		return ProtoEvent{}, nil, fmt.Errorf("carries a truncated commcheck header")
	}
	e := ProtoEvent{
		Kind:  CollKind(data[2]),
		Dtype: Dtype(data[3]),
		Root:  int(int32(binary.LittleEndian.Uint32(data[4:]))),
		Seq:   binary.LittleEndian.Uint64(data[8:]),
		Count: int(binary.LittleEndian.Uint32(data[16:])),
		Site:  string(data[protoHdrFixed : protoHdrFixed+siteLen]),
	}
	return e, data[protoHdrFixed+siteLen:], nil
}

// send transmits data for the current collective with the piggybacked
// header prepended.
func (k *protoChecker) send(t Transport, dst, tag int, data []byte) error {
	cur, failed := k.snapshot()
	if failed != nil {
		return failed
	}
	frame := appendProtoHeader(make([]byte, 0, protoHdrFixed+len(cur.Site)+len(data)), cur)
	frame = append(frame, data...)
	return t.Send(dst, tag, frame)
}

// recv receives one collective message under the watchdog deadline,
// validates the peer's header against the current collective, and
// returns the message with the header stripped.
func (k *protoChecker) recv(t Transport, src, tag int) (Message, error) {
	cur, failed := k.snapshot()
	if failed != nil {
		return Message{}, failed
	}
	msg, err := k.recvDeadline(t, src, tag, cur)
	if err != nil {
		return msg, err
	}
	remote, payload, err := splitProtoHeader(msg.Data)
	if err != nil {
		return msg, k.fail(fmt.Errorf("mpi: commcheck: rank %d executing %s: message from rank %d %v",
			k.rank, cur, msg.Src, err))
	}
	if remote.Seq != cur.Seq || remote.Kind != cur.Kind || remote.Dtype != cur.Dtype ||
		remote.Root != cur.Root || remote.Count != cur.Count {
		perr := &ProtocolError{Rank: k.rank, Peer: msg.Src, Local: cur, Remote: remote}
		k.dump("protocol violation: " + perr.Error())
		return msg, k.fail(perr)
	}
	msg.Data = payload
	return msg, nil
}

// recvDeadline blocks for a message, failing with a WatchdogError when
// the per-collective deadline expires first. The receive itself runs in
// a helper goroutine; on timeout that goroutine stays blocked until the
// transport closes, which the failing caller is expected to trigger on
// its way down.
func (k *protoChecker) recvDeadline(t Transport, src, tag int, cur ProtoEvent) (Message, error) {
	if k.cfg.Deadline <= 0 {
		return t.Recv(src, tag)
	}
	type result struct {
		msg Message
		err error
	}
	ch := make(chan result, 1)
	go func() {
		m, e := t.Recv(src, tag)
		ch <- result{m, e}
	}()
	timer := time.NewTimer(k.cfg.Deadline)
	defer timer.Stop()
	select {
	case r := <-ch:
		return r.msg, r.err
	case <-timer.C:
		werr := &WatchdogError{Rank: k.rank, Deadline: k.cfg.Deadline, Waiting: cur, History: k.history()}
		k.dump("watchdog: " + werr.Error())
		return Message{}, k.fail(werr)
	}
}

// --- public surface ---

// CheckedComm is a Comm whose collectives carry cross-rank conformance
// headers and a blocking-receive watchdog — the runtime half of
// commcheck. All ranks of a communicator must agree on checking (the
// header changes the collective wire format), so enable it either on
// every rank explicitly or process-wide with the checked build tag.
//
// The embedded Comm is the working communicator: pass cc.Comm anywhere a
// *Comm is expected. Point-to-point operations are unaffected.
type CheckedComm struct{ *Comm }

// NewCheckedComm wraps transport t in a protocol-checked communicator.
func NewCheckedComm(t Transport, cfg CheckConfig) *CheckedComm {
	c := NewComm(t)
	c.chk = newProtoChecker(t.Rank(), cfg)
	return &CheckedComm{Comm: c}
}

// Checked reports whether protocol conformance checking is active on c.
func (c *Comm) Checked() bool { return c.chk != nil }

// ProtocolHistory returns this rank's last-N protocol events (oldest
// first), or nil when checking is off.
func (c *Comm) ProtocolHistory() []ProtoEvent {
	if c.chk == nil {
		return nil
	}
	return c.chk.history()
}

// enter marks the start of a collective on the checker; a single nil
// test when checking is off. skip counts frames from enter's caller to
// the user call site (1 when the collective method calls enter directly).
func (c *Comm) enter(kind CollKind, dt Dtype, root, count, skip int) {
	if c.chk == nil {
		return
	}
	c.chk.enter(c.prof.Phase(), kind, dt, root, count, skip+1)
}

// collSend is the transport send used inside collectives: direct when
// unchecked, header-prepending when checked.
func (c *Comm) collSend(dst, tag int, data []byte) error {
	if c.chk == nil {
		return c.t.Send(dst, tag, data)
	}
	return c.chk.send(c.t, dst, tag, data)
}

// collRecv is the transport receive used inside collectives: direct when
// unchecked, header-validating and watchdog-guarded when checked.
func (c *Comm) collRecv(src, tag int) (Message, error) {
	if c.chk == nil {
		return c.t.Recv(src, tag)
	}
	return c.chk.recv(c.t, src, tag)
}

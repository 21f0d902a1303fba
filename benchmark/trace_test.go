package main

import (
	"errors"
	"testing"
	"time"

	"repro/internal/mpi"
	"repro/internal/obs"
)

const ms = time.Millisecond

func TestSpanTreeParentsAndSelfTime(t *testing.T) {
	// Rank 0: a root with two children, one of which has a child of its
	// own; rank 1: a span inside the root's interval that must not become
	// its child; rank 0 again: two children that overlap each other.
	events := []obs.Event{
		{Name: "root", Rank: 0, Start: 0, Dur: 100 * ms},
		{Name: "a", Rank: 0, Start: 10 * ms, Dur: 30 * ms},
		{Name: "a.leaf", Rank: 0, Start: 15 * ms, Dur: 10 * ms},
		{Name: "b", Rank: 0, Start: 50 * ms, Dur: 20 * ms},
		{Name: "other", Rank: 1, Start: 20 * ms, Dur: 10 * ms},
		{Name: "late", Rank: 0, Start: 200 * ms, Dur: 50 * ms},
		{Name: "x", Rank: 0, Start: 210 * ms, Dur: 20 * ms},
		{Name: "y", Rank: 0, Start: 220 * ms, Dur: 20 * ms},
	}
	nodes := buildSpanTree(events)
	byName := map[string]spanNode{}
	index := map[string]int{}
	for i, n := range nodes {
		byName[n.Name], index[n.Name] = n, i
	}
	parent := func(name string) string {
		p := byName[name].Parent
		if p < 0 {
			return ""
		}
		return nodes[p].Name
	}
	wantParent := map[string]string{"root": "", "a": "root", "a.leaf": "a", "b": "root", "other": "", "late": "", "x": "late", "y": "late"}
	for name, want := range wantParent {
		if got := parent(name); got != want {
			t.Errorf("parent of %s = %q, want %q", name, got, want)
		}
	}
	wantSelf := map[string]time.Duration{
		"root":   50 * ms, // 100 − a(30) − b(20); a.leaf belongs to a
		"a":      20 * ms,
		"a.leaf": 10 * ms,
		"b":      20 * ms,
		"other":  10 * ms,
		"late":   20 * ms, // x and y cover 210–240 together: 30, not 40
	}
	for name, want := range wantSelf {
		if got := byName[name].Self; got != want {
			t.Errorf("self time of %s = %v, want %v", name, got, want)
		}
	}
	totals := spanTotals(nodes, onRank(0))
	if got := totals["root"]; got.Count != 1 || got.Dur != 100*ms || got.Self != 50*ms {
		t.Errorf("totals[root] = %+v", got)
	}
	if _, ok := totals["other"]; ok {
		t.Error("rank 1's span counted on rank 0")
	}
}

// fakeTransport is a scripted inner transport: it records what it is
// given and returns what it is told to.
type fakeTransport struct {
	rank, size int
	sent       []mpi.Message // Src holds the destination
	reply      mpi.Message
	err        error
	timeout    time.Duration // last RecvTimeout deadline seen
	writeDL    time.Duration // last SetWriteDeadline seen
	recvs      int
}

func (f *fakeTransport) Rank() int { return f.rank }
func (f *fakeTransport) Size() int { return f.size }
func (f *fakeTransport) Send(dst, tag int, data []byte) error {
	f.sent = append(f.sent, mpi.Message{Src: dst, Tag: tag, Data: data})
	return f.err
}
func (f *fakeTransport) Recv(src, tag int) (mpi.Message, error) {
	f.recvs++
	return f.reply, f.err
}
func (f *fakeTransport) RecvTimeout(src, tag int, d time.Duration) (mpi.Message, error) {
	f.timeout = d
	return f.Recv(src, tag)
}
func (f *fakeTransport) SetWriteDeadline(d time.Duration) { f.writeDL = d }
func (f *fakeTransport) Close() error                     { return nil }

func TestTracedTransportPassesThrough(t *testing.T) {
	inner := &fakeTransport{rank: 1, size: 3, reply: mpi.Message{Src: 0, Tag: 5, Data: []byte("pong")}}
	tracer, log := obs.NewTracer(), &msgLog{}
	var tt mpi.Transport = traced(inner, tracer, log)

	if tt.Rank() != 1 || tt.Size() != 3 {
		t.Fatalf("rank/size = %d/%d, want 1/3", tt.Rank(), tt.Size())
	}
	payload := []byte("ping-payload")
	if err := tt.Send(2, 9, payload); err != nil {
		t.Fatalf("Send: %v", err)
	}
	if len(inner.sent) != 1 || inner.sent[0].Src != 2 || inner.sent[0].Tag != 9 || string(inner.sent[0].Data) != "ping-payload" {
		t.Errorf("inner transport saw %+v", inner.sent)
	}
	msg, err := tt.Recv(0, 5)
	if err != nil || msg.Src != 0 || msg.Tag != 5 || string(msg.Data) != "pong" {
		t.Errorf("Recv = %+v, %v", msg, err)
	}

	// Errors come back unchanged.
	boom := errors.New("boom")
	inner.err = boom
	if err := tt.Send(0, 1, nil); err != boom {
		t.Errorf("Send error = %v, want the inner error", err)
	}
	if _, err := tt.Recv(0, 1); err != boom {
		t.Errorf("Recv error = %v, want the inner error", err)
	}
	inner.err = nil

	// Both optional capabilities are still there and reach the inner transport.
	dr, ok := tt.(mpi.DeadlineRecver)
	if !ok {
		t.Fatal("traced transport lost mpi.DeadlineRecver")
	}
	if _, err := dr.RecvTimeout(0, 5, 3*time.Second); err != nil || inner.timeout != 3*time.Second {
		t.Errorf("RecvTimeout: err %v, inner saw deadline %v", err, inner.timeout)
	}
	wd, ok := tt.(mpi.WriteDeadliner)
	if !ok {
		t.Fatal("traced transport lost mpi.WriteDeadliner")
	}
	wd.SetWriteDeadline(7 * time.Second)
	if inner.writeDL != 7*time.Second {
		t.Errorf("inner write deadline = %v, want 7s", inner.writeDL)
	}

	// Records and spans: 2 sends, 3 receives, with the bytes that moved.
	recs := log.records()
	var sends, recvs, sendBytes int
	for _, r := range recs {
		if r.Rank != 1 {
			t.Errorf("record on rank %d, want 1", r.Rank)
		}
		if r.End.Before(r.Start) {
			t.Errorf("record ends before it starts: %+v", r)
		}
		if r.Send {
			sends++
			sendBytes += r.Bytes
		} else {
			recvs++
		}
	}
	if sends != 2 || recvs != 3 || sendBytes != len(payload) {
		t.Errorf("%d sends (%d B), %d recvs; want 2 (%d B), 3", sends, sendBytes, recvs, len(payload))
	}
	names := map[string]int{}
	for _, ev := range tracer.Events() {
		names[ev.Name]++
	}
	if names[spanSend] != 2 || names[spanRecv] != 3 {
		t.Errorf("spans = %v, want 2 %s and 3 %s", names, spanSend, spanRecv)
	}
}

func TestTracedTransportWithoutCapabilities(t *testing.T) {
	// An inner transport with neither capability: SetWriteDeadline is a
	// no-op and a zero deadline falls through to a plain Recv.
	inner := &fakeTransport{reply: mpi.Message{Data: []byte("x")}}
	plain := struct{ mpi.Transport }{inner} // hides the optional methods
	tt := traced(plain, nil, &msgLog{})
	tt.SetWriteDeadline(time.Second)
	if inner.writeDL != 0 {
		t.Error("write deadline reached a transport that does not take one")
	}
	if msg, err := tt.RecvTimeout(0, 0, 0); err != nil || string(msg.Data) != "x" || inner.recvs != 1 {
		t.Errorf("RecvTimeout(0) = %+v, %v after %d inner receives", msg, err, inner.recvs)
	}
}

func TestSummarizeMsgs(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(d time.Duration) time.Time { return t0.Add(d) }
	recs := []msgRecord{
		// The master sends each worker a command.
		{Rank: 0, Peer: 1, Bytes: 8, Send: true, Start: at(0), End: at(1 * ms)},
		{Rank: 0, Peer: 2, Bytes: 8, Send: true, Start: at(1 * ms), End: at(2 * ms)},
		// Two gathers: worker 2 is 4 ms, then 2 ms, behind worker 1.
		{Rank: 1, Peer: 0, Bytes: 100, Send: true, Start: at(10 * ms), End: at(11 * ms)},
		{Rank: 2, Peer: 0, Bytes: 100, Send: true, Start: at(14 * ms), End: at(15 * ms)},
		{Rank: 2, Peer: 0, Bytes: 100, Send: true, Start: at(32 * ms), End: at(33 * ms)},
		{Rank: 1, Peer: 0, Bytes: 100, Send: true, Start: at(30 * ms), End: at(31 * ms)},
		// The master waits for them.
		{Rank: 0, Peer: 1, Bytes: 100, Start: at(2 * ms), End: at(11 * ms)},
		{Rank: 0, Peer: 2, Bytes: 100, Start: at(11 * ms), End: at(15 * ms)},
		{Rank: 1, Peer: 0, Bytes: 8, Start: at(0), End: at(1 * ms)},
	}
	st := summarizeMsgs(recs)
	if st.Sends != 6 || st.SendBytes != 416 {
		t.Errorf("sends = %d, bytes = %d; want 6, 416", st.Sends, st.SendBytes)
	}
	if st.RecvWait[0] != 13*ms || st.RecvWait[1] != 1*ms {
		t.Errorf("receive waits = %v", st.RecvWait)
	}
	if want := 0.003; st.StragglerS < want-1e-9 || st.StragglerS > want+1e-9 {
		t.Errorf("straggler gap = %v s, want %v", st.StragglerS, want)
	}
}

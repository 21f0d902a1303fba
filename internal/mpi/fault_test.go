package mpi

import (
	"errors"
	"net"
	"reflect"
	"testing"
	"time"
)

func TestFaultScheduleRoundTrip(t *testing.T) {
	spec := "kill:rank=2,epoch=3 ; delay:rank=1,epoch=2,d=50ms,n=3; drop:rank=3,after=2 ;dup:rank=0"
	s, err := ParseFaultSchedule(spec)
	if err != nil {
		t.Fatal(err)
	}
	want := []FaultEvent{
		{Action: ActKill, Rank: 2, Epoch: 3},
		{Action: ActDelay, Rank: 1, Epoch: 2, Delay: 50 * time.Millisecond, Count: 3},
		{Action: ActDrop, Rank: 3, After: 2, Count: 1},
		{Action: ActDup, Rank: 0, Count: 1},
	}
	if !reflect.DeepEqual(s.Events, want) {
		t.Fatalf("parsed %+v, want %+v", s.Events, want)
	}
	// String must round-trip to an identical schedule, and be stable.
	rendered := s.String()
	s2, err := ParseFaultSchedule(rendered)
	if err != nil {
		t.Fatalf("re-parse %q: %v", rendered, err)
	}
	if !reflect.DeepEqual(s2, s) {
		t.Fatalf("round trip: %+v != %+v (spec %q)", s2.Events, s.Events, rendered)
	}
	if got := s2.String(); got != rendered {
		t.Fatalf("String not stable: %q then %q", rendered, got)
	}
	if got := s.Ranks(); !reflect.DeepEqual(got, []int{0, 1, 2, 3}) {
		t.Fatalf("Ranks() = %v", got)
	}
}

// TestFaultConfigFilled: a deadline ≤ 0 selects its default, so no
// filled config asks for an unbounded reply wait or frame write.
func TestFaultConfigFilled(t *testing.T) {
	for _, tc := range []struct {
		name string
		in   FaultConfig
		want FaultConfig
	}{
		{"zero", FaultConfig{}, FaultConfig{DefaultOpDeadline, DefaultTCPWriteDeadline}},
		{"negative", FaultConfig{-time.Second, -time.Nanosecond}, FaultConfig{DefaultOpDeadline, DefaultTCPWriteDeadline}},
		{"positive", FaultConfig{300 * time.Millisecond, 2 * time.Second}, FaultConfig{300 * time.Millisecond, 2 * time.Second}},
		{"mixed", FaultConfig{-1, time.Second}, FaultConfig{DefaultOpDeadline, time.Second}},
	} {
		if got := tc.in.Filled(); got != tc.want {
			t.Errorf("%s: Filled(%+v) = %+v, want %+v", tc.name, tc.in, got, tc.want)
		}
	}
}

func TestFaultScheduleParseErrors(t *testing.T) {
	for _, spec := range []string{
		"",                        // empty
		"explode:rank=1",          // unknown action
		"kill:epoch=2",            // missing rank
		"kill:rank=1,n=2",         // n meaningless for kill
		"delay:rank=1",            // delay without duration
		"drop:rank=-1",            // negative rank
		"drop:rank=1,weird=3",     // unknown key
		"drop:rank=1,epoch",       // malformed pair
		"delay:rank=1,d=banana",   // bad duration
		"delay:rank=1,d=50ms,n=0", // zero count
	} {
		if _, err := ParseFaultSchedule(spec); err == nil {
			t.Errorf("ParseFaultSchedule(%q): want error, got nil", spec)
		}
	}
}

func TestRecvTimeoutInproc(t *testing.T) {
	f := NewInprocFabric(2)
	defer f.Close()
	r0, r1 := f.Transport(0), f.Transport(1)

	start := time.Now()
	_, err := RecvTimeout(r0, 1, 7, 30*time.Millisecond)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("want ErrTimeout, got %v", err)
	}
	if d := time.Since(start); d < 30*time.Millisecond {
		t.Fatalf("timed out after only %v", d)
	}
	if err := r1.Send(0, 7, []byte("late")); err != nil {
		t.Fatal(err)
	}
	msg, err := RecvTimeout(r0, 1, 7, time.Second)
	if err != nil || string(msg.Data) != "late" {
		t.Fatalf("got %q, %v", msg.Data, err)
	}
}

func TestRecvTimeoutTCP(t *testing.T) {
	trs, err := ConnectTCPLocal(2)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, tr := range trs {
			_ = tr.Close()
		}
	}()
	if _, err := RecvTimeout(trs[0], 1, 3, 30*time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Fatalf("want ErrTimeout, got %v", err)
	}
	if err := trs[1].Send(0, 3, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := RecvTimeout(trs[0], 1, 3, time.Second); err != nil {
		t.Fatal(err)
	}
}

func TestFaultTransportShaping(t *testing.T) {
	f := NewInprocFabric(2)
	defer f.Close()
	sched, err := ParseFaultSchedule("drop:rank=1,after=1; dup:rank=1,epoch=2")
	if err != nil {
		t.Fatal(err)
	}
	r0 := f.Transport(0)
	r1 := InjectFaults(f.Transport(1), sched)
	ft, ok := r1.(*FaultTransport)
	if !ok {
		t.Fatalf("InjectFaults returned %T, want *FaultTransport", r1)
	}
	// Rank 0 carries no events: wrapper must pass the transport through.
	if r0w := InjectFaults(r0, sched); r0w != r0 {
		t.Fatalf("InjectFaults wrapped an untargeted rank: %T", r0w)
	}

	// Op 1 precedes "after=1": delivered.
	if err := r1.Send(0, 1, []byte("a")); err != nil {
		t.Fatal(err)
	}
	// Op 2 is dropped.
	if err := r1.Send(0, 1, []byte("b")); err != nil {
		t.Fatal(err)
	}
	// Epoch 2 arms the dup event: op 3 is delivered twice.
	ft.SetEpoch(2)
	if err := r1.Send(0, 1, []byte("c")); err != nil {
		t.Fatal(err)
	}
	var got []string
	for i := 0; i < 3; i++ {
		msg, err := RecvTimeout(r0, 1, 1, time.Second)
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		got = append(got, string(msg.Data))
	}
	if want := []string{"a", "c", "c"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("delivered %v, want %v", got, want)
	}
}

func TestFaultTransportDelay(t *testing.T) {
	f := NewInprocFabric(2)
	defer f.Close()
	sched, err := ParseFaultSchedule("delay:rank=1,d=60ms")
	if err != nil {
		t.Fatal(err)
	}
	r1 := InjectFaults(f.Transport(1), sched)
	start := time.Now()
	if err := r1.Send(0, 1, []byte("slow")); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 60*time.Millisecond {
		t.Fatalf("send returned after %v, want >= 60ms", d)
	}
}

func TestFaultTransportKillAtEpoch(t *testing.T) {
	f := NewInprocFabric(2)
	defer f.Close()
	sched, err := ParseFaultSchedule("kill:rank=1,epoch=3")
	if err != nil {
		t.Fatal(err)
	}
	r0 := f.Transport(0)
	r1 := InjectFaults(f.Transport(1), sched)
	ft := r1.(*FaultTransport)

	// Below the trigger epoch the rank behaves normally.
	ft.SetEpoch(2)
	if err := r1.Send(0, 5, []byte("alive")); err != nil {
		t.Fatal(err)
	}
	if _, err := r0.Recv(1, 5); err != nil {
		t.Fatal(err)
	}

	// At epoch 3 the next op kills the rank.
	ft.SetEpoch(3)
	if err := r1.Send(0, 5, []byte("dead")); !errors.Is(err, ErrClosed) {
		t.Fatalf("want ErrClosed from killed rank, got %v", err)
	}
	// Every later op fails too, including receives.
	if _, err := r1.Recv(0, 5); !errors.Is(err, ErrClosed) {
		t.Fatalf("want ErrClosed, got %v", err)
	}
	// The survivor cannot deliver to the corpse (its mailbox is closed)…
	if err := r0.Send(1, 5, []byte("hello?")); !errors.Is(err, ErrClosed) {
		t.Fatalf("want ErrClosed sending to killed rank, got %v", err)
	}
	// …and a deadline receive from it fails immediately with peer-down —
	// closing an inproc endpoint marks the rank dead in every peer
	// mailbox, so survivors need not burn the full deadline.
	if _, err := RecvTimeout(r0, 1, 5, 40*time.Millisecond); !errors.Is(err, ErrPeerDown) {
		t.Fatalf("want ErrPeerDown, got %v", err)
	}
}

// TestTCPSendWriteDeadline wedges a fake peer — it completes the rank-1
// handshake but never reads another byte — and asserts that Send fails
// with a timeout once the socket buffers fill, instead of blocking
// forever (the pre-fault-layer behavior).
func TestTCPSendWriteDeadline(t *testing.T) {
	ln0, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln1, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln1.Close()
	wedged := make(chan net.Conn, 1)
	go func() {
		conn, err := ln1.Accept()
		if err != nil {
			return
		}
		wedged <- conn // hold the conn open, never read from it
	}()

	tr, err := connectTCPWithListener(0, []string{ln0.Addr().String(), ln1.Addr().String()}, ln0)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	defer func() {
		select {
		case c := <-wedged:
			c.Close()
		default:
		}
	}()

	tr.(WriteDeadliner).SetWriteDeadline(150 * time.Millisecond)
	payload := make([]byte, 1<<20)
	start := time.Now()
	var sendErr error
	for i := 0; i < 256; i++ {
		if sendErr = tr.Send(1, 1, payload); sendErr != nil {
			break
		}
	}
	if sendErr == nil {
		t.Fatal("256 MiB sent to a peer that never reads: write deadline not honored")
	}
	var nerr net.Error
	if !errors.As(sendErr, &nerr) || !nerr.Timeout() {
		t.Fatalf("want net timeout error, got %v", sendErr)
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Fatalf("deadline took %v to fire", d)
	}
	// The poisoned stream now fails fast: the peer is marked down.
	if err := tr.Send(1, 1, []byte("x")); err == nil {
		t.Fatal("send after write timeout succeeded; connection should be poisoned")
	}
	if _, err := tr.Recv(1, 1); !errors.Is(err, ErrPeerDown) {
		t.Fatalf("want ErrPeerDown after poisoned stream, got %v", err)
	}
}

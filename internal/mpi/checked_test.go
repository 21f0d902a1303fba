package mpi

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// runChecked runs fn on n ranks over an in-process fabric with protocol
// checking configured by cfg on every rank.
func runChecked(t *testing.T, n int, cfg CheckConfig, fn func(c *Comm)) {
	t.Helper()
	f := NewInprocFabric(n)
	defer f.Close()
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			fn(NewCheckedComm(f.Transport(r), cfg).Comm)
		}(r)
	}
	wg.Wait()
}

// TestCheckedCommClean runs every collective under checking on a
// conforming communicator: nothing may fail, results must match the
// unchecked path, and the history must record the sequence.
func TestCheckedCommClean(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4} {
		runChecked(t, n, CheckConfig{Deadline: 5 * time.Second}, func(c *Comm) {
			if !c.Checked() {
				t.Error("Checked() = false on CheckedComm")
			}
			buf := []float32{float32(c.Rank() + 1), 2}
			if err := c.Allreduce(OpSum, buf); err != nil {
				t.Errorf("rank %d allreduce: %v", c.Rank(), err)
			}
			want := float32(n*(n+1)) / 2
			if buf[0] != want {
				t.Errorf("rank %d allreduce sum = %v, want %v", c.Rank(), buf[0], want)
			}
			if err := c.Bcast(0, buf); err != nil {
				t.Errorf("rank %d bcast: %v", c.Rank(), err)
			}
			if err := c.Reduce(0, OpMax, []float32{float32(c.Rank())}); err != nil {
				t.Errorf("rank %d reduce: %v", c.Rank(), err)
			}
			d := []float64{float64(c.Rank()), 1}
			if err := c.AllreduceF64(OpSum, d); err != nil {
				t.Errorf("rank %d allreduceF64: %v", c.Rank(), err)
			}
			if d[1] != float64(n) {
				t.Errorf("rank %d allreduceF64 = %v, want %v", c.Rank(), d[1], float64(n))
			}
			if err := c.Barrier(); err != nil {
				t.Errorf("rank %d barrier: %v", c.Rank(), err)
			}
			send := []float32{float32(c.Rank())}
			recv := make([]float32, n)
			if err := c.Gather(0, send, recv); err != nil {
				t.Errorf("rank %d gather: %v", c.Rank(), err)
			}
			if err := c.Scatter(0, recv, send); err != nil {
				t.Errorf("rank %d scatter: %v", c.Rank(), err)
			}
			if err := c.Allgather(send, recv); err != nil {
				t.Errorf("rank %d allgather: %v", c.Rank(), err)
			}
			hist := c.ProtocolHistory()
			if len(hist) == 0 {
				t.Errorf("rank %d: empty protocol history", c.Rank())
			}
			for i := 1; i < len(hist); i++ {
				if hist[i].Seq != hist[i-1].Seq+1 {
					t.Errorf("rank %d: history seq %d follows %d", c.Rank(), hist[i].Seq, hist[i-1].Seq)
				}
			}
		})
	}
}

// TestCheckedCommDtypeMismatch desynchronizes two ranks on payload type:
// rank 0 runs ReduceF64 while rank 1 runs float32 Reduce at the same
// sequence number. The root must get a ProtocolError naming both sites.
func TestCheckedCommDtypeMismatch(t *testing.T) {
	runChecked(t, 2, CheckConfig{Deadline: 5 * time.Second}, func(c *Comm) {
		if c.Rank() == 0 {
			err := c.ReduceF64(0, OpSum, []float64{1, 2})
			var perr *ProtocolError
			if !errors.As(err, &perr) {
				t.Errorf("rank 0 err = %v, want *ProtocolError", err)
				return
			}
			if perr.Local.Dtype != DtypeF64 || perr.Remote.Dtype != DtypeF32 {
				t.Errorf("dtypes = %v vs %v, want f64 vs f32", perr.Local.Dtype, perr.Remote.Dtype)
			}
			for _, site := range []string{perr.Local.Site, perr.Remote.Site} {
				if !strings.Contains(site, "checked_test.go") {
					t.Errorf("site %q does not name the caller", site)
				}
			}
			if !strings.Contains(err.Error(), "rank 0") || !strings.Contains(err.Error(), "rank 1") {
				t.Errorf("error does not name both ranks: %v", err)
			}
		} else {
			// Same seq, same root, same count — only the dtype differs.
			_ = c.Reduce(0, OpSum, []float32{1, 2})
		}
	})
}

// TestCheckedCommSeqDivergence desynchronizes the op loop itself: rank 1
// runs one extra collective, so its Bcast is seq 2 against rank 0's
// seq 1. Whichever side receives first must observe the seq mismatch.
func TestCheckedCommSeqDivergence(t *testing.T) {
	var mu sync.Mutex
	var got []*ProtocolError
	runChecked(t, 2, CheckConfig{Deadline: 2 * time.Second}, func(c *Comm) {
		var err error
		if c.Rank() == 0 {
			err = c.Bcast(0, []float32{1}) // seq 1
		} else {
			// Extra collective: as root of this bcast, rank 1 only sends,
			// so it reaches the second bcast one sequence number ahead.
			_ = c.Bcast(1, []float32{1})   // seq 1
			err = c.Bcast(0, []float32{1}) // seq 2
		}
		var perr *ProtocolError
		if errors.As(err, &perr) {
			mu.Lock()
			got = append(got, perr)
			mu.Unlock()
		}
	})
	if len(got) == 0 {
		t.Fatal("no rank observed a ProtocolError")
	}
	for _, perr := range got {
		if perr.Local.Seq == perr.Remote.Seq {
			t.Errorf("seqs equal (%d) in %v", perr.Local.Seq, perr)
		}
	}
}

// TestCheckedCommRootMismatch has rank 1 disagree on the broadcast root
// at the same sequence number. On a 4-rank tree, Bcast(2)'s rank 1
// receives from rank 0 — which is broadcasting with root 0 — so the
// mismatched root arrives as a header and must fail as a ProtocolError.
func TestCheckedCommRootMismatch(t *testing.T) {
	runChecked(t, 4, CheckConfig{Deadline: 2 * time.Second}, func(c *Comm) {
		if c.Rank() != 1 {
			if err := c.Bcast(0, []float32{1}); err != nil {
				t.Errorf("rank %d bcast: %v", c.Rank(), err)
			}
			return
		}
		err := c.Bcast(2, []float32{1})
		var perr *ProtocolError
		if !errors.As(err, &perr) {
			t.Errorf("rank 1 err = %v, want *ProtocolError", err)
			return
		}
		if perr.Local.Root != 2 || perr.Remote.Root != 0 {
			t.Errorf("roots = %d vs %d, want 2 vs 0", perr.Local.Root, perr.Remote.Root)
		}
	})
}

// TestCheckedCommWatchdog blocks rank 0 in a Reduce that rank 1 never
// enters: the watchdog must fire within the deadline, name the stuck
// collective with its sequence number and site, and dump history into
// the observer's event log.
func TestCheckedCommWatchdog(t *testing.T) {
	ob := &obs.Observer{Metrics: obs.NewRegistry(), Events: obs.NewEventLog(64)}
	cfg := CheckConfig{Deadline: 300 * time.Millisecond, History: 8, Obs: ob}
	f := NewInprocFabric(2)
	defer f.Close()
	c := NewCheckedComm(f.Transport(0), cfg).Comm

	// Warm up the history: a root-side bcast only sends, so it succeeds
	// even though rank 1 never shows up. Then block in a reduce that
	// needs rank 1's contribution.
	if err := c.Bcast(0, []float32{1}); err != nil {
		t.Fatalf("warm-up bcast: %v", err)
	}
	start := time.Now()
	err := c.Reduce(0, OpSum, []float32{1, 2, 3})
	elapsed := time.Since(start)

	var werr *WatchdogError
	if !errors.As(err, &werr) {
		t.Fatalf("err = %v, want *WatchdogError", err)
	}
	if elapsed < cfg.Deadline || elapsed > 10*cfg.Deadline {
		t.Errorf("watchdog fired after %v with deadline %v", elapsed, cfg.Deadline)
	}
	if werr.Rank != 0 || werr.Waiting.Kind != CollReduce || werr.Waiting.Count != 3 {
		t.Errorf("watchdog event = %+v, want rank 0 reduce n=3", werr)
	}
	if !strings.Contains(werr.Waiting.Site, "checked_test.go") {
		t.Errorf("site %q does not name the caller", werr.Waiting.Site)
	}
	msg := err.Error()
	for _, want := range []string{"reduce", "blocked", "#2", "checked_test.go"} {
		if !strings.Contains(msg, want) {
			t.Errorf("error %q missing %q", msg, want)
		}
	}
	if len(werr.History) == 0 {
		t.Error("watchdog dumped no history")
	}
	if got := ob.Registry().Counter("mpi.commcheck.violations").Value(); got != 1 {
		t.Errorf("violations counter = %d, want 1", got)
	}
	if ob.EventLog().Len() == 0 {
		t.Error("no event-log lines dumped")
	}

	// The failure latches: the next collective fails immediately, without
	// waiting out another deadline.
	start = time.Now()
	if err := c.Barrier(); !errors.As(err, &werr) {
		t.Errorf("post-failure barrier err = %v, want latched watchdog error", err)
	}
	if d := time.Since(start); d > cfg.Deadline/2 {
		t.Errorf("latched failure took %v, want immediate", d)
	}
}

// TestCheckedCommMixedHeaderDetected covers a checked rank talking to an
// unchecked one: the missing header must produce a diagnostic, not a
// decode of garbage.
func TestCheckedCommMixedHeaderDetected(t *testing.T) {
	if checkedByDefault {
		t.Skip("checked build: every comm is checked, no mixed configuration possible")
	}
	f := NewInprocFabric(2)
	defer f.Close()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		c := NewCheckedComm(f.Transport(0), CheckConfig{Deadline: 2 * time.Second}).Comm
		err := c.Reduce(0, OpSum, []float32{1})
		if err == nil || !strings.Contains(err.Error(), "commcheck header") {
			t.Errorf("err = %v, want missing-header diagnostic", err)
		}
	}()
	go func() {
		defer wg.Done()
		c := NewComm(f.Transport(1)) // unchecked
		_ = c.Reduce(0, OpSum, []float32{1})
	}()
	wg.Wait()
}

// TestUncheckedCommHasNoChecker pins the zero-cost-off contract.
func TestUncheckedCommHasNoChecker(t *testing.T) {
	f := NewInprocFabric(1)
	defer f.Close()
	c := NewComm(f.Transport(0))
	if checkedByDefault {
		if !c.Checked() {
			t.Fatal("checked build: NewComm not checked")
		}
		return
	}
	if c.Checked() {
		t.Fatal("NewComm is checked without the checked tag")
	}
	if h := c.ProtocolHistory(); h != nil {
		t.Fatalf("ProtocolHistory = %v on unchecked comm", h)
	}
}

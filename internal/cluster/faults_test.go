package cluster

import (
	"errors"
	"fmt"
	"math"
	"testing"
)

// testInjector is a hand-wired FaultInjector for unit tests: table-driven
// verdicts instead of hashing, so each test controls exactly which attempt
// fails.
type testInjector struct {
	scale func(rank int, cat Category) float64
	get   func(origin, target int, attempt int) AttemptOutcome
	leg   func(origin, root int, attempt int) AttemptOutcome
	crash map[int]float64
	retry RetryPolicy
}

func (t *testInjector) ScaleCharge(rank int, cat Category) float64 {
	if t.scale == nil {
		return 1
	}
	return t.scale(rank, cat)
}

func (t *testInjector) GetAttempt(origin, target int, firstOff, elems int64, attempt int) AttemptOutcome {
	if t.get == nil {
		return AttemptOutcome{}
	}
	return t.get(origin, target, attempt)
}

func (t *testInjector) LegAttempt(origin, root int, off, elems int64, syncClock float64, attempt int) AttemptOutcome {
	if t.leg == nil {
		return AttemptOutcome{}
	}
	return t.leg(origin, root, attempt)
}

func (t *testInjector) CrashTime(rank int) float64 {
	if at, ok := t.crash[rank]; ok {
		return at
	}
	return math.Inf(1)
}

func (t *testInjector) Retry() RetryPolicy { return t.retry }

// TestWindowErrorPaths is the table-driven satellite: every window.go error
// path must fail with its typed sentinel, checkable with errors.Is.
func TestWindowErrorPaths(t *testing.T) {
	cases := []struct {
		name    string
		call    func(r *Rank, dst []float64) error
		wantErr error
	}{
		{
			name: "target negative",
			call: func(r *Rank, dst []float64) error {
				_, err := r.GetIndexed(-1, "w", []Region{{Off: 0, Elems: 1}}, dst)
				return err
			},
			wantErr: ErrWindowMissing,
		},
		{
			name: "target past cluster",
			call: func(r *Rank, dst []float64) error {
				_, err := r.GetIndexed(99, "w", []Region{{Off: 0, Elems: 1}}, dst)
				return err
			},
			wantErr: ErrWindowMissing,
		},
		{
			name: "window never exposed",
			call: func(r *Rank, dst []float64) error {
				_, err := r.GetIndexed(0, "nope", []Region{{Off: 0, Elems: 1}}, dst)
				return err
			},
			wantErr: ErrWindowMissing,
		},
		{
			name: "region past window end",
			call: func(r *Rank, dst []float64) error {
				_, err := r.GetIndexed(0, "w", []Region{{Off: 2, Elems: 5}}, dst)
				return err
			},
			wantErr: ErrRegionOOB,
		},
		{
			name: "region negative offset",
			call: func(r *Rank, dst []float64) error {
				_, err := r.GetIndexed(0, "w", []Region{{Off: -1, Elems: 1}}, dst)
				return err
			},
			wantErr: ErrRegionOOB,
		},
		{
			name: "dst too small",
			call: func(r *Rank, dst []float64) error {
				_, err := r.GetIndexed(0, "w", []Region{{Off: 0, Elems: 4}}, dst[:2])
				return err
			},
			wantErr: ErrDstTooSmall,
		},
		{
			name: "multicast window missing",
			call: func(r *Rank, dst []float64) error {
				_, _, err := r.MulticastPull(0, "nope", 0, 1, into(dst))
				return err
			},
			wantErr: ErrWindowMissing,
		},
		{
			name: "fallback window missing",
			call: func(r *Rank, dst []float64) error {
				_, err := r.SyncFallbackPull(0, "nope", []Region{{Off: 0, Elems: 1}}, dst)
				return err
			},
			wantErr: ErrWindowMissing,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := mustNew(t, 2)
			err := c.Run(func(r *Rank) error {
				r.Expose("w", make([]float64, 4))
				if err := r.Barrier(); err != nil {
					return err
				}
				if r.ID != 1 {
					return nil
				}
				err := tc.call(r, make([]float64, 8))
				if !errors.Is(err, tc.wantErr) {
					return fmt.Errorf("got %v, want errors.Is(%v)", err, tc.wantErr)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestResetClearsEverything is the other window satellite: Reset must leave
// no trace of the previous run — windows, staging slots, clocks, transfer
// counters, resilience counters, abort state.
func TestResetClearsEverything(t *testing.T) {
	c := mustNew(t, 2)
	inj := &testInjector{get: func(origin, target, attempt int) AttemptOutcome {
		return AttemptOutcome{Fail: attempt == 1} // every get retried once
	}}
	c.SetFaultInjector(inj)
	err := c.Run(func(r *Rank) error {
		r.Expose("w", []float64{1, 2, 3, 4})
		r.Charge(SyncComp, 1.0)
		if err := r.Barrier(); err != nil {
			return err
		}
		dst := make([]float64, 4)
		if _, err := r.GetIndexed((r.ID+1)%2, "w", []Region{{Off: 0, Elems: 4}}, dst); err != nil {
			return err
		}
		if _, err := r.Sendrecv(dst, (r.ID+1)%2, (r.ID+1)%2); err != nil {
			return err
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if c.TotalTime() == 0 || !c.TotalResilience().Faulted() {
		t.Fatal("run left no state to clear; test is vacuous")
	}

	c.Reset()

	mt := c.Transport().(*memTransport)
	for i := 0; i < c.P(); i++ {
		if len(mt.windows[i]) != 0 {
			t.Errorf("rank %d still has %d windows after Reset", i, len(mt.windows[i]))
		}
		if mt.staging[i] != nil {
			t.Errorf("rank %d staging slot not cleared", i)
		}
	}
	if got := c.TotalTime(); got != 0 {
		t.Errorf("clocks not cleared: TotalTime = %v", got)
	}
	for i, bd := range c.Breakdowns() {
		if bd != (Breakdown{}) {
			t.Errorf("rank %d breakdown not zeroed: %+v", i, bd)
		}
	}
	for i, ts := range c.TransferStats() {
		if ts != (TransferStats{}) {
			t.Errorf("rank %d transfer counters not zeroed: %+v", i, ts)
		}
	}
	for i, rs := range c.ResilienceStats() {
		if rs != (ResilienceStats{}) {
			t.Errorf("rank %d resilience counters not zeroed: %+v", i, rs)
		}
	}
	if c.abortedErr() != nil {
		t.Error("abort state survived Reset")
	}
	if c.FaultInjector() != inj {
		t.Error("fault injector must survive Reset")
	}
}

// TestGetRetryChargesBackoff: transient failures retry with exponential
// backoff charged to AsyncComm and counted in ResilienceStats.
func TestGetRetryChargesBackoff(t *testing.T) {
	pol := RetryPolicy{MaxAttempts: 4, BaseBackoff: 1e-3, Multiplier: 2}
	c := mustNew(t, 2)
	c.SetFaultInjector(&testInjector{
		retry: pol,
		get: func(origin, target, attempt int) AttemptOutcome {
			return AttemptOutcome{Fail: origin == 1 && attempt <= 2}
		},
	})
	err := c.Run(func(r *Rank) error {
		r.Expose("w", []float64{7, 8})
		if err := r.Barrier(); err != nil {
			return err
		}
		if r.ID != 1 {
			return nil
		}
		dst := make([]float64, 2)
		if _, err := r.GetIndexed(0, "w", []Region{{Off: 0, Elems: 2}}, dst); err != nil {
			return err
		}
		if dst[0] != 7 || dst[1] != 8 {
			return fmt.Errorf("retried get returned %v", dst)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	rs := c.ResilienceStats()[1]
	if rs.GetRetries != 2 {
		t.Errorf("GetRetries = %d, want 2", rs.GetRetries)
	}
	wantBackoff := pol.Backoff(1) + pol.Backoff(2) // 1e-3 + 2e-3
	if math.Abs(rs.BackoffSeconds-wantBackoff) > 1e-15 {
		t.Errorf("BackoffSeconds = %v, want %v", rs.BackoffSeconds, wantBackoff)
	}
	if got := c.Breakdowns()[1].AsyncComm; math.Abs(got-wantBackoff) > 1e-15 {
		t.Errorf("AsyncComm = %v, want the backoff %v charged to the clock", got, wantBackoff)
	}
	if other := c.ResilienceStats()[0]; other.Faulted() {
		t.Errorf("rank 0 should be untouched, got %+v", other)
	}
}

// TestGetExhaustionAndFallback: a persistently failing get exhausts the
// budget with ErrRetryExhausted; SyncFallbackPull then moves the same data,
// reclassified as collective traffic.
func TestGetExhaustionAndFallback(t *testing.T) {
	c := mustNew(t, 2)
	c.SetFaultInjector(&testInjector{
		retry: RetryPolicy{MaxAttempts: 3, BaseBackoff: 1e-6, Multiplier: 2},
		get: func(origin, target, attempt int) AttemptOutcome {
			return AttemptOutcome{Fail: origin == 1}
		},
	})
	err := c.Run(func(r *Rank) error {
		r.Expose("w", []float64{1, 2, 3})
		if err := r.Barrier(); err != nil {
			return err
		}
		if r.ID != 1 {
			return nil
		}
		dst := make([]float64, 3)
		_, err := r.GetIndexed(0, "w", []Region{{Off: 0, Elems: 3}}, dst)
		if !errors.Is(err, ErrRetryExhausted) {
			return fmt.Errorf("got %v, want ErrRetryExhausted", err)
		}
		n, err := r.SyncFallbackPull(0, "w", []Region{{Off: 0, Elems: 3}}, dst)
		if err != nil {
			return err
		}
		if n != 3 || dst[0] != 1 || dst[2] != 3 {
			return fmt.Errorf("fallback moved %d elems, dst %v", n, dst)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	rs := c.ResilienceStats()[1]
	if rs.GetExhausted != 1 || rs.Degradations != 1 || rs.DegradedElems != 3 {
		t.Errorf("resilience = %+v, want 1 exhausted, 1 degradation of 3 elems", rs)
	}
	if rs.GetRetries != 2 { // attempts 1 and 2 retried; attempt 3 exhausts
		t.Errorf("GetRetries = %d, want 2", rs.GetRetries)
	}
	ts := c.TransferStats()[1]
	if ts.OneSidedBytes != 0 || ts.CollectiveBytes != 3*8 {
		t.Errorf("fallback traffic misclassified: %+v (want 24 collective bytes, 0 one-sided)", ts)
	}
}

// TestMulticastLegRetry: failed legs re-pull with backoff charged to
// SyncComm; injected delay lands on the clock too.
func TestMulticastLegRetry(t *testing.T) {
	c := mustNew(t, 2)
	c.SetFaultInjector(&testInjector{
		retry: RetryPolicy{MaxAttempts: 4, BaseBackoff: 1e-3, Multiplier: 2},
		leg: func(origin, root, attempt int) AttemptOutcome {
			if origin != 1 {
				return AttemptOutcome{}
			}
			if attempt == 1 {
				return AttemptOutcome{Fail: true}
			}
			return AttemptOutcome{Delay: 5e-3}
		},
	})
	err := c.Run(func(r *Rank) error {
		r.Expose("w", []float64{4, 5})
		if err := r.Barrier(); err != nil {
			return err
		}
		if r.ID != 1 {
			return nil
		}
		got, _, err := r.MulticastPull(0, "w", 0, 2, into(make([]float64, 2)))
		if err != nil {
			return err
		}
		if got[0] != 4 || got[1] != 5 {
			return fmt.Errorf("leg retry returned %v", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	rs := c.ResilienceStats()[1]
	if rs.LegRetries != 1 || rs.DelaySeconds != 5e-3 {
		t.Errorf("resilience = %+v, want 1 leg retry and 5e-3 delay", rs)
	}
	want := 1e-3 + 5e-3 // backoff after attempt 1 + injected delay
	if got := c.Breakdowns()[1].SyncComm; math.Abs(got-want) > 1e-15 {
		t.Errorf("SyncComm = %v, want %v", got, want)
	}
}

// TestMulticastLegExhaustion: a leg that fails on every attempt is given
// exactly MaxAttempts attempts, retried after all but the last, and then
// fails with ErrRetryExhausted.
func TestMulticastLegExhaustion(t *testing.T) {
	c := mustNew(t, 2)
	var attempts []int // appended only by rank 1, the one pulling
	c.SetFaultInjector(&testInjector{
		retry: RetryPolicy{MaxAttempts: 3},
		leg: func(origin, root, attempt int) AttemptOutcome {
			attempts = append(attempts, attempt)
			return AttemptOutcome{Fail: true}
		},
	})
	err := c.Run(func(r *Rank) error {
		r.Expose("w", []float64{4, 5})
		if err := r.Barrier(); err != nil {
			return err
		}
		if r.ID != 1 {
			return nil
		}
		if _, _, err := r.MulticastPull(0, "w", 0, 2, into(make([]float64, 2))); !errors.Is(err, ErrRetryExhausted) {
			return fmt.Errorf("leg failing every attempt returned %v, want ErrRetryExhausted", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(attempts) != "[1 2 3]" {
		t.Errorf("injector saw attempts %v, want [1 2 3]", attempts)
	}
	if rs := c.ResilienceStats()[1]; rs.LegRetries != 2 {
		t.Errorf("LegRetries = %d, want 2 (attempts 1 and 2 retried; attempt 3 exhausts)", rs.LegRetries)
	}
}

// TestStragglerScalesCharges: ScaleCharge multiplies the afflicted rank's
// charges in the matching categories only.
func TestStragglerScalesCharges(t *testing.T) {
	c := mustNew(t, 2)
	c.SetFaultInjector(&testInjector{
		scale: func(rank int, cat Category) float64 {
			if rank == 1 && cat == SyncComp {
				return 3
			}
			return 1
		},
	})
	err := c.Run(func(r *Rank) error {
		r.Charge(SyncComp, 1.0)
		r.Charge(AsyncComm, 1.0)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	bds := c.Breakdowns()
	if bds[0].SyncComp != 1 || bds[1].SyncComp != 3 {
		t.Errorf("SyncComp = %v / %v, want 1 / 3", bds[0].SyncComp, bds[1].SyncComp)
	}
	if bds[1].AsyncComm != 1 {
		t.Errorf("AsyncComm = %v, want 1 (unscaled)", bds[1].AsyncComm)
	}
}

// TestCrashAbortsWithoutDeadlock is the abort-path regression satellite: a
// rank crashing mid-SpMM must fail the run with ErrCrashed while every
// surviving rank — including ones already blocked in a barrier — observes
// ErrAborted instead of hanging. The test deadlocks (and times out) if
// abort propagation ever regresses.
func TestCrashAbortsWithoutDeadlock(t *testing.T) {
	const p = 4
	c := mustNew(t, p)
	c.SetFaultInjector(&testInjector{crash: map[int]float64{2: 0.5}})
	err := c.Run(func(r *Rank) error {
		r.Expose("w", make([]float64, 8))
		if err := r.Barrier(); err != nil {
			return err
		}
		r.Charge(SyncComp, 1.0) // pushes rank 2 past its crash time
		dst := make([]float64, 8)
		for i := 0; ; i++ {
			if _, err := r.GetIndexed((r.ID+1)%p, "w", []Region{{Off: 0, Elems: 8}}, dst); err != nil {
				return err
			}
			if err := r.Barrier(); err != nil {
				return err
			}
		}
	})
	if err == nil {
		t.Fatal("crash plan must fail the run")
	}
	if !errors.Is(err, ErrCrashed) {
		t.Errorf("joined error %v does not wrap ErrCrashed", err)
	}
	if !errors.Is(err, ErrAborted) {
		t.Errorf("joined error %v does not wrap ErrAborted (peers must see the abort)", err)
	}
	// The cluster must stay usable for an unrelated run after Reset.
	c.Reset()
	c.SetFaultInjector(nil)
	if err := c.Run(func(r *Rank) error { return r.Barrier() }); err != nil {
		t.Fatalf("cluster unusable after crash + Reset: %v", err)
	}
}

// TestAbortObservedByRetryLoop: a rank spinning in the get retry loop must
// observe a peer's abort instead of burning its full backoff budget.
func TestAbortObservedByRetryLoop(t *testing.T) {
	c := mustNew(t, 2)
	c.SetFaultInjector(&testInjector{
		retry: RetryPolicy{MaxAttempts: 1 << 20, BaseBackoff: 1e-9, Multiplier: 1.0000001},
		get: func(origin, target, attempt int) AttemptOutcome {
			return AttemptOutcome{Fail: origin == 0}
		},
	})
	boom := errors.New("boom")
	err := c.Run(func(r *Rank) error {
		r.Expose("w", make([]float64, 2))
		if err := r.Barrier(); err != nil {
			return err
		}
		if r.ID == 1 {
			return boom
		}
		dst := make([]float64, 2)
		_, err := r.GetIndexed(1, "w", []Region{{Off: 0, Elems: 2}}, dst)
		return err
	})
	if !errors.Is(err, boom) || !errors.Is(err, ErrAborted) {
		t.Fatalf("joined error %v should wrap both the cause and ErrAborted", err)
	}
}

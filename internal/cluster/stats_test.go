package cluster

import (
	"fmt"
	"testing"
)

func TestTransferStatsOneSided(t *testing.T) {
	c := mustNew(t, 2)
	err := c.Run(func(r *Rank) error {
		r.Expose("w", make([]float64, 100))
		if err := r.Barrier(); err != nil {
			return err
		}
		if r.ID == 1 {
			dst := make([]float64, 30)
			if _, err := r.GetIndexed(0, "w", []Region{{Off: 0, Elems: 10}, {Off: 50, Elems: 20}}, dst); err != nil {
				return err
			}
		}
		return r.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	stats := c.TransferStats()
	if stats[0].OneSidedBytes != 0 {
		t.Fatalf("rank 0 moved nothing but counted %+v", stats[0])
	}
	if stats[1].OneSidedBytes != 30*8 || stats[1].OneSidedMsgs != 2 {
		t.Fatalf("rank 1 stats = %+v, want 240 bytes / 2 msgs", stats[1])
	}
	total := c.TotalTransfer()
	if total.TotalBytes() != 240 {
		t.Fatalf("TotalTransfer = %+v", total)
	}
}

func TestTransferStatsMulticastReclassifies(t *testing.T) {
	c := mustNew(t, 2)
	err := c.Run(func(r *Rank) error {
		r.Expose("b", make([]float64, 64))
		if err := r.Barrier(); err != nil {
			return err
		}
		if r.ID == 1 {
			dst := make([]float64, 16)
			if _, _, err := r.MulticastPull(0, "b", 8, 16, into(dst)); err != nil {
				return err
			}
		}
		return r.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	s := c.TransferStats()[1]
	if s.OneSidedBytes != 0 || s.OneSidedMsgs != 0 {
		t.Fatalf("multicast pull leaked into one-sided counters: %+v", s)
	}
	if s.CollectiveBytes != 16*8 || s.CollectiveMsgs != 1 {
		t.Fatalf("collective counters = %+v", s)
	}
}

func TestTransferStatsCollectives(t *testing.T) {
	const p = 3
	c := mustNew(t, p)
	err := c.Run(func(r *Rank) error {
		// Allgather of 10 elements each: every rank receives 20 remote.
		if _, err := r.Allgather(make([]float64, 10)); err != nil {
			return err
		}
		// One ring shift of 5 elements.
		if _, err := r.Sendrecv(make([]float64, 5), (r.ID+1)%p, (r.ID-1+p)%p); err != nil {
			return err
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range c.TransferStats() {
		wantBytes := int64((2*10 + 5) * 8)
		if s.CollectiveBytes != wantBytes {
			t.Fatalf("rank %d collective bytes = %d, want %d", i, s.CollectiveBytes, wantBytes)
		}
		if s.CollectiveMsgs != int64(p-1)+1 {
			t.Fatalf("rank %d collective msgs = %d", i, s.CollectiveMsgs)
		}
	}
}

func TestTransferStatsReset(t *testing.T) {
	c := mustNew(t, 1)
	_ = c.Run(func(r *Rank) error {
		r.Expose("w", make([]float64, 8))
		if err := r.Barrier(); err != nil {
			return err
		}
		_, err := r.Get(0, "w", Region{Off: 0, Elems: 8}, make([]float64, 8))
		return err
	})
	if c.TotalTransfer().TotalBytes() == 0 {
		t.Fatal("expected counted bytes")
	}
	c.Reset()
	if c.TotalTransfer().TotalBytes() != 0 {
		t.Fatal("Reset should clear transfer counters")
	}
}

func TestTransferStatsPlus(t *testing.T) {
	a := TransferStats{CollectiveBytes: 1, CollectiveMsgs: 2, OneSidedBytes: 3, OneSidedMsgs: 4}
	b := a.Plus(a)
	if b.CollectiveBytes != 2 || b.OneSidedMsgs != 8 {
		t.Fatalf("Plus = %+v", b)
	}
	if a.TotalBytes() != 4 {
		t.Fatalf("TotalBytes = %d", a.TotalBytes())
	}
}

func TestTransferStatsConcurrent(t *testing.T) {
	c := mustNew(t, 4)
	err := c.Run(func(r *Rank) error {
		r.Expose("w", make([]float64, 1000))
		if err := r.Barrier(); err != nil {
			return err
		}
		// Every rank hammers every other rank's window concurrently.
		errs := make(chan error, 8)
		for g := 0; g < 8; g++ {
			go func() {
				dst := make([]float64, 10)
				for i := 0; i < 50; i++ {
					_, err := r.Get((r.ID+1)%r.P, "w", Region{Off: int64(i), Elems: 10}, dst)
					if err != nil {
						errs <- err
						return
					}
				}
				errs <- nil
			}()
		}
		for g := 0; g < 8; g++ {
			if err := <-errs; err != nil {
				return err
			}
		}
		return r.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range c.TransferStats() {
		if s.OneSidedBytes != 8*50*10*8 {
			t.Fatal(fmt.Sprintf("rank %d lost counter updates: %+v", i, s))
		}
	}
}

func TestTargetContentionCharging(t *testing.T) {
	net := Default()
	net.TargetContention = 0.5
	c, err := New(2, net)
	if err != nil {
		t.Fatal(err)
	}
	err = c.Run(func(r *Rank) error {
		r.Expose("w", make([]float64, 100))
		if err := r.Barrier(); err != nil {
			return err
		}
		if r.ID == 1 {
			dst := make([]float64, 50)
			if _, err := r.GetIndexed(0, "w", []Region{{Off: 0, Elems: 50}}, dst); err != nil {
				return err
			}
		}
		return r.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	bds := c.Breakdowns()
	if bds[0].AsyncComm <= 0 {
		t.Fatal("target should be charged contention")
	}
	want := 0.5 * net.OneSidedCost(1, 50)
	if d := bds[0].AsyncComm - want; d > 1e-18 || d < -1e-18 {
		t.Fatalf("target charge %v, want %v", bds[0].AsyncComm, want)
	}
	// With the default model (contention 0), targets stay free.
	c2, _ := New(2, Default())
	_ = c2.Run(func(r *Rank) error {
		r.Expose("w", make([]float64, 10))
		if err := r.Barrier(); err != nil {
			return err
		}
		if r.ID == 1 {
			if _, err := r.Get(0, "w", Region{Off: 0, Elems: 5}, make([]float64, 5)); err != nil {
				return err
			}
		}
		return r.Barrier()
	})
	if c2.Breakdowns()[0].AsyncComm != 0 {
		t.Fatal("default model must not charge targets")
	}
}

// Target contention is charged only for a true one-sided get from a peer.
// A rank reading its own window charges nothing, and neither do the
// record=false re-fetches (the degraded fallback and the recovery pull),
// which model root-driven collectives whose cost the root carries.
func TestTargetContentionSkipsSelfAndRefetch(t *testing.T) {
	net := Default()
	net.TargetContention = 0.5
	regions := []Region{{Off: 0, Elems: 50}}
	for _, tc := range []struct {
		name string
		get  func(r *Rank, dst []float64) (int64, error)
	}{
		{"self-get", func(r *Rank, dst []float64) (int64, error) { return r.GetIndexed(r.ID, "w", regions, dst) }},
		{"fallback", func(r *Rank, dst []float64) (int64, error) { return r.SyncFallbackPull(0, "w", regions, dst) }},
		{"recover", func(r *Rank, dst []float64) (int64, error) { return r.RecoverPull(0, "w", regions, dst) }},
	} {
		c, err := New(2, net)
		if err != nil {
			t.Fatal(err)
		}
		err = c.Run(func(r *Rank) error {
			r.Expose("w", make([]float64, 100))
			if err := r.Barrier(); err != nil {
				return err
			}
			if r.ID == 1 {
				if n, err := tc.get(r, make([]float64, 50)); err != nil || n != 50 {
					return fmt.Errorf("moved %d elems: %v", n, err)
				}
			}
			return r.Barrier()
		})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for rank, bd := range c.Breakdowns() {
			if bd.AsyncComm != 0 {
				t.Errorf("%s: rank %d charged %v AsyncComm, want no target contention", tc.name, rank, bd.AsyncComm)
			}
		}
	}
}

func TestOneSidedGetsCounting(t *testing.T) {
	c := mustNew(t, 2)
	err := c.Run(func(r *Rank) error {
		r.Expose("w", make([]float64, 100))
		if err := r.Barrier(); err != nil {
			return err
		}
		if r.ID == 1 {
			// One aggregated request carrying three regions: one get.
			dst := make([]float64, 30)
			regs := []Region{{Off: 0, Elems: 10}, {Off: 40, Elems: 10}, {Off: 80, Elems: 10}}
			if _, err := r.GetIndexed(0, "w", regs, dst); err != nil {
				return err
			}
			// A multicast pull is collective: no get counted.
			if _, _, err := r.MulticastPull(0, "w", 0, 8, into(make([]float64, 8))); err != nil {
				return err
			}
		}
		return r.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	s := c.TransferStats()[1]
	if s.OneSidedGets != 1 {
		t.Fatalf("OneSidedGets = %d, want 1 (one request, regardless of regions)", s.OneSidedGets)
	}
	if s.OneSidedMsgs != 3 {
		t.Fatalf("OneSidedMsgs = %d, want 3 (one per region)", s.OneSidedMsgs)
	}
	a := TransferStats{OneSidedGets: 2}
	if a.Plus(a).OneSidedGets != 4 {
		t.Fatal("Plus must sum OneSidedGets")
	}
}

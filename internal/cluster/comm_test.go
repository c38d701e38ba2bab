package cluster

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestExposeAndGetIndexed(t *testing.T) {
	c := mustNew(t, 3)
	err := c.Run(func(r *Rank) error {
		data := make([]float64, 10)
		for i := range data {
			data[i] = float64(r.ID*100 + i)
		}
		r.Expose("b", data)
		if err := r.Barrier(); err != nil {
			return err
		}
		target := (r.ID + 1) % r.P
		dst := make([]float64, 5)
		n, err := r.GetIndexed(target, "b", []Region{{Off: 2, Elems: 3}, {Off: 8, Elems: 2}}, dst)
		if err != nil {
			return err
		}
		if n != 5 {
			return fmt.Errorf("read %d elems, want 5", n)
		}
		want := []float64{float64(target*100 + 2), float64(target*100 + 3), float64(target*100 + 4),
			float64(target*100 + 8), float64(target*100 + 9)}
		for i := range want {
			if dst[i] != want[i] {
				return fmt.Errorf("dst = %v, want %v", dst, want)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGetIndexedErrors(t *testing.T) {
	c := mustNew(t, 2)
	err := c.Run(func(r *Rank) error {
		r.Expose("w", make([]float64, 4))
		if err := r.Barrier(); err != nil {
			return err
		}
		dst := make([]float64, 8)
		if _, err := r.GetIndexed(5, "w", nil, dst); err == nil {
			return fmt.Errorf("out-of-range target should fail")
		}
		if _, err := r.GetIndexed(0, "nope", nil, dst); err == nil {
			return fmt.Errorf("unknown window should fail")
		}
		if _, err := r.GetIndexed(0, "w", []Region{{Off: 2, Elems: 5}}, dst); err == nil {
			return fmt.Errorf("region past end should fail")
		}
		if _, err := r.GetIndexed(0, "w", []Region{{Off: -1, Elems: 1}}, dst); err == nil {
			return fmt.Errorf("negative offset should fail")
		}
		if _, err := r.GetIndexed(0, "w", []Region{{Off: 0, Elems: 4}}, make([]float64, 2)); err == nil {
			return fmt.Errorf("small destination should fail")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMulticastPull(t *testing.T) {
	c := mustNew(t, 4)
	windows := make([][]float64, 4)
	err := c.Run(func(r *Rank) error {
		windows[r.ID] = []float64{float64(r.ID), float64(r.ID) * 2, float64(r.ID) * 3}
		r.Expose("stripe", windows[r.ID])
		if err := r.Barrier(); err != nil {
			return err
		}
		// Everyone pulls rank 2's window. The simulator hands back the
		// window's own memory, so the copy destination is never asked for.
		got, _, err := r.MulticastPull(2, "stripe", 1, 2, func(int64) []float64 {
			panic("the simulator's multicast copied instead of reading the root's window in place")
		})
		if err != nil {
			return err
		}
		if len(got) != 2 || cap(got) != 2 || &got[0] != &windows[2][1] || got[1] != 6 {
			return fmt.Errorf("rank %d pulled %v (cap %d), not a view of rank 2's window", r.ID, got, cap(got))
		}
		return r.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	if s := c.TransferStats()[0]; s.CollectiveBytes != 16 || s.CollectiveMsgs != 1 || s.OneSidedBytes != 0 {
		t.Fatalf("rank 0 counters after one view: %+v", s)
	}
}

// Behind a decorator the cluster never reads a window in place: the
// decorator must see every byte its backend moves, so the stripe is Read
// into the caller's buffer, with the same counters as a view.
func TestMulticastPullThroughDecoratorCopies(t *testing.T) {
	mem, err := NewMemTransport(2)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewWithTransport(struct{ Transport }{mem}, Default())
	if err != nil {
		t.Fatal(err)
	}
	window := []float64{1, 2, 3, 4}
	err = c.Run(func(r *Rank) error {
		if r.ID == 1 {
			r.Expose("stripe", window)
		}
		if err := r.Barrier(); err != nil {
			return err
		}
		if r.ID == 0 {
			dst := make([]float64, 8)
			got, _, err := r.MulticastPull(1, "stripe", 1, 3, into(dst))
			if err != nil {
				return err
			}
			if len(got) != 3 || cap(got) != 3 || &got[0] != &dst[0] || got[0] != 2 || got[2] != 4 {
				return fmt.Errorf("pulled %v (cap %d), want [2 3 4] copied into dst", got, cap(got))
			}
		}
		return r.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	if s := c.TransferStats()[0]; s.CollectiveBytes != 24 || s.CollectiveMsgs != 1 || s.OneSidedBytes != 0 || s.OneSidedMsgs != 0 {
		t.Fatalf("rank 0 counters after one copied pull: %+v", s)
	}
}

// A view passes the checks Read makes before it hands out any memory, and an
// aborted cluster hands out none.
func TestMemTransportViewRefusals(t *testing.T) {
	tr, err := NewMemTransport(2)
	if err != nil {
		t.Fatal(err)
	}
	mt := tr.(*memTransport)
	mt.Expose(1, "B", []float64{1, 2, 3, 4, 5, 6})
	for _, tc := range []struct {
		name   string
		target int
		window string
		reg    Region
		want   error
	}{
		{"oob", 1, "B", Region{Off: 4, Elems: 3}, ErrRegionOOB},
		{"negative offset", 1, "B", Region{Off: -1, Elems: 2}, ErrRegionOOB},
		{"negative length", 1, "B", Region{Off: 0, Elems: -1}, ErrRegionOOB},
		{"missing window", 1, "nope", Region{Off: 0, Elems: 1}, ErrWindowMissing},
		{"bad target", 9, "B", Region{Off: 0, Elems: 1}, ErrWindowMissing},
	} {
		if got, err := mt.view(0, tc.target, tc.window, tc.reg); !errors.Is(err, tc.want) || got != nil {
			t.Errorf("%s: view = %v, err = %v; want %v", tc.name, got, err, tc.want)
		}
	}

	c := mustNew(t, 2)
	c.tr.Expose(1, "B", []float64{1, 2})
	cause := errors.New("view boom")
	c.tr.Abort(cause)
	got, _, err := c.ranks[0].MulticastPull(1, "B", 0, 2, into(nil))
	if !errors.Is(err, ErrAborted) || !errors.Is(err, cause) || got != nil {
		t.Fatalf("pull after abort = %v, err = %v; want the abort error", got, err)
	}
}

// into returns a MulticastPull destination that always hands out dst.
func into(dst []float64) func(int64) []float64 {
	return func(int64) []float64 { return dst }
}

func TestSendrecvRing(t *testing.T) {
	c := mustNew(t, 4)
	err := c.Run(func(r *Rank) error {
		payload := []float64{float64(r.ID * 10)}
		to := (r.ID + 1) % r.P
		from := (r.ID - 1 + r.P) % r.P
		got, err := r.Sendrecv(payload, to, from)
		if err != nil {
			return err
		}
		if len(got) != 1 || got[0] != float64(from*10) {
			return fmt.Errorf("rank %d got %v, want [%d]", r.ID, got, from*10)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendrecvMultipleRounds(t *testing.T) {
	// Cyclic shifting across several rounds: after p rounds every rank's
	// value returns home. This exercises slot reuse between rounds.
	const p = 5
	c := mustNew(t, p)
	err := c.Run(func(r *Rank) error {
		val := []float64{float64(r.ID)}
		for round := 0; round < p; round++ {
			got, err := r.Sendrecv(val, (r.ID+1)%p, (r.ID-1+p)%p)
			if err != nil {
				return err
			}
			val = got
		}
		if val[0] != float64(r.ID) {
			return fmt.Errorf("rank %d: value did not return home: %v", r.ID, val)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendrecvBadPeers(t *testing.T) {
	c := mustNew(t, 1)
	err := c.Run(func(r *Rank) error {
		if _, err := r.Sendrecv(nil, 3, 0); err == nil {
			return fmt.Errorf("bad peer should fail")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllgather(t *testing.T) {
	c := mustNew(t, 3)
	err := c.Run(func(r *Rank) error {
		local := []float64{float64(r.ID), float64(r.ID + 100)}
		all, err := r.Allgather(local)
		if err != nil {
			return err
		}
		for i := 0; i < r.P; i++ {
			if all[i][0] != float64(i) || all[i][1] != float64(i+100) {
				return fmt.Errorf("rank %d: all[%d] = %v", r.ID, i, all[i])
			}
		}
		// Returned slices must be copies.
		all[(r.ID+1)%r.P][0] = -1
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllgatherIsolation(t *testing.T) {
	// Mutating a received buffer must not affect other ranks' receptions in
	// a later round.
	c := mustNew(t, 2)
	err := c.Run(func(r *Rank) error {
		local := []float64{float64(r.ID)}
		first, err := r.Allgather(local)
		if err != nil {
			return err
		}
		first[0][0] = 999
		second, err := r.Allgather(local)
		if err != nil {
			return err
		}
		if second[0][0] != 0 {
			return fmt.Errorf("allgather leaked mutation: %v", second[0])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGetIndexedRoundtripProperty(t *testing.T) {
	// Arbitrary region lists read back exactly the selected elements.
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, seed))
		win := make([]float64, 64)
		for i := range win {
			win[i] = rng.Float64()
		}
		var regions []Region
		var want []float64
		off := int64(0)
		for off < 64 {
			l := int64(rng.IntN(5))
			if off+l > 64 {
				l = 64 - off
			}
			if rng.IntN(2) == 0 && l > 0 {
				regions = append(regions, Region{Off: off, Elems: l})
				want = append(want, win[off:off+l]...)
			}
			off += l + int64(rng.IntN(3))
		}
		c, err := New(2, Default())
		if err != nil {
			return false
		}
		ok := true
		err = c.Run(func(r *Rank) error {
			if r.ID == 0 {
				r.Expose("w", win)
			}
			if err := r.Barrier(); err != nil {
				return err
			}
			if r.ID == 1 {
				dst := make([]float64, len(want))
				n, err := r.GetIndexed(0, "w", regions, dst)
				if err != nil {
					return err
				}
				if n != int64(len(want)) {
					ok = false
				}
				for i := range want {
					if dst[i] != want[i] {
						ok = false
					}
				}
			}
			return r.Barrier()
		})
		return err == nil && ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestSingleNodeCollectivesTrivial(t *testing.T) {
	c := mustNew(t, 1)
	err := c.Run(func(r *Rank) error {
		all, err := r.Allgather([]float64{7})
		if err != nil || len(all) != 1 || all[0][0] != 7 {
			return fmt.Errorf("allgather p=1: %v %v", all, err)
		}
		got, err := r.Sendrecv([]float64{3}, 0, 0)
		if err != nil || got[0] != 3 {
			return fmt.Errorf("sendrecv p=1: %v %v", got, err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

package cluster

import (
	"strings"
	"testing"
)

func TestTraceDisabledByDefault(t *testing.T) {
	c := mustNew(t, 2)
	_ = c.Run(func(r *Rank) error {
		r.Expose("w", make([]float64, 8))
		if err := r.Barrier(); err != nil {
			return err
		}
		_, err := r.Get((r.ID+1)%2, "w", Region{Off: 0, Elems: 4}, make([]float64, 4))
		return err
	})
	ev, dropped := c.Trace()
	if len(ev) != 0 || dropped != 0 {
		t.Fatalf("tracing should be off by default: %d events", len(ev))
	}
}

func TestTraceRecordsAllOps(t *testing.T) {
	const p = 2
	c := mustNew(t, p)
	c.EnableTrace(0)
	err := c.Run(func(r *Rank) error {
		r.Expose("w", make([]float64, 16))
		if err := r.Barrier(); err != nil {
			return err
		}
		peer := (r.ID + 1) % p
		if _, err := r.GetIndexed(peer, "w", []Region{{Off: 0, Elems: 2}, {Off: 8, Elems: 2}}, make([]float64, 4)); err != nil {
			return err
		}
		if _, _, err := r.MulticastPull(peer, "w", 0, 4, into(make([]float64, 4))); err != nil {
			return err
		}
		if _, err := r.Sendrecv(make([]float64, 3), peer, peer); err != nil {
			return err
		}
		if _, err := r.Allgather(make([]float64, 5)); err != nil {
			return err
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	ev, dropped := c.Trace()
	if dropped != 0 {
		t.Fatalf("%d events dropped", dropped)
	}
	counts := map[TraceOp]int{}
	for _, e := range ev {
		counts[e.Op]++
		if e.Op == TraceGet && (e.Elems != 4 || e.Msgs != 2) {
			t.Fatalf("get event wrong: %+v", e)
		}
		if e.Op == TraceMulticast && e.Elems != 4 {
			t.Fatalf("multicast event wrong: %+v", e)
		}
	}
	// Every rank performed each op once.
	for _, op := range []TraceOp{TraceGet, TraceMulticast, TraceSendrecv, TraceAllgather} {
		if counts[op] != p {
			t.Fatalf("op %s recorded %d times, want %d (all: %v)", op, counts[op], p, counts)
		}
	}
	if !strings.Contains(ev[0].String(), "rank") {
		t.Fatal("Event.String is empty")
	}
}

func TestTraceCapAndDisable(t *testing.T) {
	c := mustNew(t, 1)
	c.EnableTrace(3)
	err := c.Run(func(r *Rank) error {
		r.Expose("w", make([]float64, 4))
		if err := r.Barrier(); err != nil {
			return err
		}
		for i := 0; i < 10; i++ {
			if _, err := r.Get(0, "w", Region{Off: 0, Elems: 1}, make([]float64, 1)); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	ev, dropped := c.Trace()
	if len(ev) != 3 || dropped != 7 {
		t.Fatalf("cap: %d events, %d dropped", len(ev), dropped)
	}
	c.DisableTrace()
	ev, _ = c.Trace()
	if len(ev) != 0 {
		t.Fatal("DisableTrace should clear events")
	}
}

package core

import (
	"cmp"
	"math"
	"slices"
	"testing"

	"twoface/internal/chaos"
	"twoface/internal/cluster"
	"twoface/internal/dense"
	"twoface/internal/gen"
)

// copyingTransport decorates the simulator's transport and changes nothing,
// but the cluster reads a window in place only through the simulator's own
// transport, so behind it every multicast receive copies the root's stripe
// into the receive arena — the path a TCP rank takes.
type copyingTransport struct{ cluster.Transport }

// viewAndCopyClusters returns two p-rank simulator clusters: one whose
// multicast receivers read the root's window in place, and one forced to copy.
func viewAndCopyClusters(t *testing.T, p int) (view, copied *cluster.Cluster) {
	t.Helper()
	mk := func(wrap bool) *cluster.Cluster {
		tr, err := cluster.NewMemTransport(p)
		if err != nil {
			t.Fatal(err)
		}
		if wrap {
			tr = copyingTransport{tr}
		}
		clu, err := cluster.NewWithTransport(tr, cluster.Default())
		if err != nil {
			t.Fatal(err)
		}
		clu.EnableTrace(1 << 20)
		return clu
	}
	return mk(false), mk(true)
}

// runRecord is what one run moved and charged, read off its cluster.
type runRecord struct {
	c          []float64
	transfer   cluster.TransferStats
	ledgers    []cluster.Breakdown
	resilience []cluster.ResilienceStats
	trace      []cluster.Event // sorted: a rank's workers record concurrently
	dropped    int64
}

func record(clu *cluster.Cluster, c []float64) runRecord {
	trace, dropped := clu.Trace()
	slices.SortFunc(trace, func(a, b cluster.Event) int {
		return cmp.Or(cmp.Compare(a.Rank, b.Rank), cmp.Compare(a.Op, b.Op), cmp.Compare(a.Peer, b.Peer),
			cmp.Compare(a.Elems, b.Elems), cmp.Compare(a.Msgs, b.Msgs))
	})
	return runRecord{c: c, transfer: clu.TotalTransfer(), ledgers: clu.Breakdowns(),
		resilience: clu.ResilienceStats(), trace: trace, dropped: dropped}
}

// sameRun requires two runs of one plan to agree on everything a multicast's
// data path could move: C bit for bit, the transfer counters, the per-rank
// ledgers and resilience counters, and the trace. The one exception is C's
// rows that async stripes also write (shared, k elements per row; nil for
// none): those sum their atomic adds in arrival order, which varies run to
// run on any transport (ROADMAP item 8), so they are held to 1e-12 relative.
func sameRun(t *testing.T, what string, view, copied runRecord, shared []bool, k int) {
	t.Helper()
	for i := range view.c {
		v, c := view.c[i], copied.c[i]
		if shared != nil && shared[i/k] {
			if math.Abs(v-c) > 1e-12*math.Max(1, math.Abs(c)) {
				t.Fatalf("%s: C[%d] (a shared row) view %v, copy %v", what, i, v, c)
			}
			continue
		}
		if math.Float64bits(v) != math.Float64bits(c) {
			t.Fatalf("%s: C[%d] view %x, copy %x", what, i, math.Float64bits(v), math.Float64bits(c))
		}
	}
	if view.transfer != copied.transfer {
		t.Fatalf("%s: view moved %+v, copy %+v", what, view.transfer, copied.transfer)
	}
	if !slices.Equal(view.ledgers, copied.ledgers) {
		t.Fatalf("%s: view ledgers %+v, copy %+v", what, view.ledgers, copied.ledgers)
	}
	if !slices.Equal(view.resilience, copied.resilience) {
		t.Fatalf("%s: view resilience %+v, copy %+v", what, view.resilience, copied.resilience)
	}
	if !slices.Equal(view.trace, copied.trace) || view.dropped != copied.dropped {
		t.Fatalf("%s: traces differ: %d events (%d dropped) vs %d (%d)", what, len(view.trace), view.dropped, len(copied.trace), copied.dropped)
	}
}

// sharedRows marks, by global row, the C rows async stripes also write.
func sharedRows(prep *Prep) []bool {
	var out []bool
	for i := range prep.Nodes {
		out = append(out, prep.Nodes[i].sharedRows()...)
	}
	return out
}

// unchanged requires m to hold exactly the bits of its snapshot: a panel
// reading the root's window in place must never write through it.
func unchanged(t *testing.T, what string, m *dense.Matrix, snap []float64) {
	t.Helper()
	for i, v := range m.Data {
		if math.Float64bits(v) != math.Float64bits(snap[i]) {
			t.Fatalf("%s: input element %d changed during the run", what, i)
		}
	}
}

// TestMulticastViewMatchesCopy: on the simulator a multicast receiver reads
// the root's window in place; forced to copy, it must produce the same C,
// counters, ledgers and trace, for SpMM and SDDMM alike, and neither path may
// modify the dense inputs. Each matrix runs its own plan and an all-sync plan,
// in which every remote stripe rides a multicast and every C row has one
// writer, so C is compared bit for bit throughout. Pinned workers fix each
// ledger's order of addition, and the row cache is off so the runs are
// independent.
func TestMulticastViewMatchesCopy(t *testing.T) {
	allSync := 0.0
	for _, spec := range gen.Specs() {
		t.Run(spec.Short, func(t *testing.T) {
			t.Parallel()
			const scale, k = 0.004, 16
			a := spec.Build(scale, 7)
			b := dense.Random(int(a.NumCols), k, 9)
			x := dense.Random(int(a.NumRows), k, 8)
			bSnap, xSnap := slices.Clone(b.Data), slices.Clone(x.Data)
			opts := ExecOptions{SyncWorkers: 1, AsyncWorkers: 1}
			for _, p := range []int{2, 4} {
				for _, split := range []*float64{nil, &allSync} {
					prep, err := Preprocess(a, Params{P: p, K: k, W: spec.ScaledWidth(scale), RowCacheElems: -1, ForceSplit: split})
					if err != nil {
						t.Fatal(err)
					}
					view, copied := viewAndCopyClusters(t, p)
					var mul, sd [2]runRecord
					for i, clu := range []*cluster.Cluster{view, copied} {
						res, err := Exec(prep, b, clu, opts)
						if err != nil {
							t.Fatalf("p=%d: %v", p, err)
						}
						unchanged(t, "Exec", b, bSnap)
						mul[i] = record(clu, res.C.Data)
						r, err := ExecSDDMM(prep, x, b, clu, opts)
						if err != nil {
							t.Fatalf("p=%d: %v", p, err)
						}
						unchanged(t, "ExecSDDMM X", x, xSnap)
						unchanged(t, "ExecSDDMM Y", b, bSnap)
						vals := make([]float64, len(r.C.Entries))
						for j, e := range r.C.Entries {
							vals[j] = e.Val
						}
						sd[i] = record(clu, vals)
					}
					shared := sharedRows(prep)
					if split != nil {
						if slices.Contains(shared, true) {
							t.Fatalf("p=%d: an all-sync plan has rows async stripes write", p)
						}
						if mul[0].transfer.CollectiveMsgs == 0 {
							t.Fatalf("p=%d: an all-sync plan sent no multicast", p)
						}
					}
					sameRun(t, "Exec", mul[0], mul[1], shared, k)
					sameRun(t, "ExecSDDMM", sd[0], sd[1], nil, k)
				}
			}
		})
	}
}

// TestMulticastViewMatchesCopyUnderFaults: the multicast-leg fault loop runs
// before the receive, so straggling and retried legs charge the same ledger
// and count the same retries whether the stripe then arrives as a view or as
// a copy.
func TestMulticastViewMatchesCopyUnderFaults(t *testing.T) {
	const scale, k, p = 0.02, 8, 4
	spec, err := gen.ByName("queen")
	if err != nil {
		t.Fatal(err)
	}
	a := spec.Build(scale, 42)
	b := dense.Random(int(a.NumCols), k, 1)
	opts := ExecOptions{SyncWorkers: 1, AsyncWorkers: 1}
	var legFaults int64
	for _, seed := range []uint64{3, 11, 27} {
		prep, err := Preprocess(a, Params{P: p, K: k, W: spec.ScaledWidth(scale), RowCacheElems: -1})
		if err != nil {
			t.Fatal(err)
		}
		view, copied := viewAndCopyClusters(t, p)
		var runs [2]runRecord
		for i, clu := range []*cluster.Cluster{view, copied} {
			inj, err := chaos.RandomPlan(seed, p).Injector(p)
			if err != nil {
				t.Fatal(err)
			}
			clu.SetFaultInjector(inj)
			res, err := Exec(prep, b, clu, opts)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			runs[i] = record(clu, res.C.Data)
		}
		for _, rs := range runs[0].resilience {
			legFaults += rs.LegRetries
		}
		sameRun(t, "faulted Exec", runs[0], runs[1], sharedRows(prep), k)
	}
	if legFaults == 0 {
		t.Fatal("no multicast leg was retried under any seed; the fault plans are vacuous here")
	}
}

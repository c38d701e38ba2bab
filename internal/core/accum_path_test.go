package core

import (
	"math"
	"sync"
	"testing"

	"twoface/internal/atomicfloat"
	"twoface/internal/cluster"
	"twoface/internal/dense"
	"twoface/internal/gen"
)

// The stripe-local accumulation path must match the sequential reference on
// every registry matrix archetype — banded, uniform, hub-traffic, community
// web, and RMAT structures stress different stripe shapes and touched-row
// densities. 1e-9 absorbs the reassociation the per-stripe buffering
// introduces relative to per-element atomic adds.
func TestExecAccumulationExactOnRegistry(t *testing.T) {
	for _, spec := range gen.Specs() {
		spec := spec
		t.Run(spec.Short, func(t *testing.T) {
			t.Parallel()
			const scale, k = 0.004, 16
			a := spec.Build(scale, 7)
			b := dense.Random(int(a.NumCols), k, 8)
			want, err := a.ToCSR().Mul(b)
			if err != nil {
				t.Fatal(err)
			}
			params := Params{P: 4, K: k, W: spec.ScaledWidth(scale)}
			prep, err := Preprocess(a, params)
			if err != nil {
				t.Fatal(err)
			}
			clu, err := cluster.New(4, cluster.Default())
			if err != nil {
				t.Fatal(err)
			}
			res, err := Exec(prep, b, clu, ExecOptions{AsyncWorkers: 3, SyncWorkers: 3})
			if err != nil {
				t.Fatal(err)
			}
			if !res.C.AlmostEqual(want, 1e-9) {
				d, _ := res.C.MaxAbsDiff(want)
				t.Fatalf("%s: Two-Face differs from reference by %v", spec.Short, d)
			}
		})
	}
}

// Force every remote stripe asynchronous with many workers per node so
// several stripe-local accumulators flush concurrently into the same C rows;
// run under -race by scripts/check.sh, and check the sums survive the
// concurrent AddRange flushes.
func TestExecConcurrentStripeFlushRace(t *testing.T) {
	frac := 1.0
	m := buildCase(t, 160, 4000, 8, 91)
	params := basicParams(4, 8, 4)
	params.ForceSplit = &frac
	prep, err := Preprocess(m.coo, params)
	if err != nil {
		t.Fatal(err)
	}
	clu, err := cluster.New(4, cluster.Default())
	if err != nil {
		t.Fatal(err)
	}
	res, err := Exec(prep, m.b, clu, ExecOptions{AsyncWorkers: 8, SyncWorkers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !res.C.AlmostEqual(m.want, 1e-9) {
		d, _ := res.C.MaxAbsDiff(m.want)
		t.Fatalf("concurrent flush corrupted C by %v", d)
	}
}

// rowMixCases are one plan per mix of sync-row writers: every sync row written
// by its panel alone (nothing async), every sync row also written by async
// stripes (all remote stripes async on a matrix dense enough that every row
// has remote nonzeros), and both kinds side by side.
type rowMixCase struct {
	name string
	m    *testMatrix
	prep *Prep
}

func rowMixCases(t *testing.T) []rowMixCase {
	t.Helper()
	none, all, half := 0.0, 1.0, 0.5
	cases := []rowMixCase{
		{name: "single-writer", m: buildCase(t, 160, 4000, 8, 91)},
		{name: "shared", m: buildCase(t, 160, 4000, 8, 91)},
		{name: "mixed", m: buildCase(t, 400, 1600, 8, 92)},
	}
	for i, frac := range []*float64{&none, &all, &half} {
		params := basicParams(4, 8, 4)
		params.ForceSplit = frac
		prep, err := Preprocess(cases[i].m.coo, params)
		if err != nil {
			t.Fatal(err)
		}
		cases[i].prep = prep
		var inPlace, shared int
		for n := range prep.Nodes {
			np := &prep.Nodes[n]
			marks := np.sharedRows()
			for j, e := range np.Sync.Entries {
				if j > 0 && np.Sync.Entries[j-1].Row == e.Row {
					continue
				}
				if marks[e.Row] {
					shared++
				} else {
					inPlace++
				}
			}
		}
		switch cases[i].name {
		case "single-writer":
			if shared != 0 || inPlace == 0 {
				t.Fatalf("single-writer plan has %d in-place and %d shared sync rows", inPlace, shared)
			}
		case "shared":
			if inPlace != 0 || shared == 0 {
				t.Fatalf("shared plan has %d in-place and %d shared sync rows", inPlace, shared)
			}
		default:
			if inPlace == 0 || shared == 0 {
				t.Fatalf("mixed plan has %d in-place and %d shared sync rows", inPlace, shared)
			}
		}
	}
	return cases
}

// Panel workers summing single-writer rows in place while async workers CAS
// into the shared rows of the same C must neither race nor disturb each
// other's sums. scripts/check.sh runs this under -race in both kernel-dispatch
// modes; the forced-generic one is what watches the in-place writes, because
// the race detector does not see stores made by the assembly kernels.
func TestExecRowMixesMatchReference(t *testing.T) {
	for _, tc := range rowMixCases(t) {
		clu, err := cluster.New(4, cluster.Default())
		if err != nil {
			t.Fatal(err)
		}
		res, err := Exec(tc.prep, tc.m.b, clu, ExecOptions{SyncWorkers: 4, AsyncWorkers: 2})
		if err != nil {
			t.Fatal(err)
		}
		if !res.C.AlmostEqual(tc.m.want, 1e-9) {
			d, _ := res.C.MaxAbsDiff(tc.m.want)
			t.Fatalf("%s: Two-Face differs from reference by %v", tc.name, d)
		}
	}
}

// replayUnits runs every rank's work units one at a time in canonical order
// (async batches, then sync panels) into a fresh C — either handing the units
// C itself, or staging each unit and flushing it before the next, as the
// doomed-rank and recovery paths do.
func replayUnits(t *testing.T, prep *Prep, b *dense.Matrix, staged bool) *dense.Matrix {
	t.Helper()
	clu, err := cluster.New(prep.Params.P, cluster.Default())
	if err != nil {
		t.Fatal(err)
	}
	k := prep.Params.K
	c := dense.New(int(prep.Layout.NumRows), k)
	out := newLiveOutput(c)
	err = clu.Run(func(r *cluster.Rank) error {
		np := &prep.Nodes[r.ID]
		if err := beginNode(prep, b, r, np); err != nil {
			return err
		}
		recvBufs := make([][]float64, prep.Layout.NumStripes())
		if err := syncTransfers(prep, r, np, recvBufs, &recvArena{}, k, newSyncPipeline(len(np.RecvStripes)), nil); err != nil {
			return err
		}
		var sink accumSink = out
		stage := &stagedSink{}
		if staged {
			sink = stage
		}
		ur := newUnitRunner(prep, b, r, np, ExecOptions{})
		ur.resolver = makeRowResolver(prep, b, r.ID, recvBufs, k)
		for u := 0; u < ur.units(); u++ {
			if err := ur.run(u, sink); err != nil {
				return err
			}
			stage.flush(out)
		}
		return r.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// Summing a row in place and summing it in scratch then adding it onto zero
// must store the same bits, whatever the mix of single-writer and shared
// rows: the recovery paths replay through a staged sink what the live run
// wrote directly, and their C is compared bit for bit.
func TestLiveAndStagedSinksBitIdentical(t *testing.T) {
	for _, tc := range rowMixCases(t) {
		live := replayUnits(t, tc.prep, tc.m.b, false)
		staged := replayUnits(t, tc.prep, tc.m.b, true)
		if !live.AlmostEqual(tc.m.want, 1e-9) {
			t.Fatalf("%s: replayed C differs from the reference", tc.name)
		}
		for i, v := range live.Data {
			if math.Float64bits(v) != math.Float64bits(staged.Data[i]) {
				t.Fatalf("%s: C[%d] live %x != staged %x", tc.name, i, math.Float64bits(v), math.Float64bits(staged.Data[i]))
			}
		}
	}
}

// Pooled workspaces from different goroutines flushing through
// atomicfloat.AddRange into one shared slice: the minimal reproduction of
// the executor's write pattern, independent of the cluster machinery.
func TestStripeFlushSharedOutputRace(t *testing.T) {
	const rows, k, workers, rounds = 32, 8, 8, 25
	c := make([]float64, rows*k)
	out := atomicfloat.View(c)
	x := make([]float64, k)
	for i := range x {
		x[i] = 0.5
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ws := asyncScratchPool.Get().(*asyncScratch)
			defer asyncScratchPool.Put(ws)
			for round := 0; round < rounds; round++ {
				ws.acc.Begin(rows, k)
				for row := int32(0); row < rows; row++ {
					ws.acc.Accumulate(row, 1, x)
					ws.acc.Accumulate(row, 1, x)
				}
				for i, row := range ws.acc.Touched() {
					out.AddRange(int(row)*k, ws.acc.Vals(i))
				}
			}
		}()
	}
	wg.Wait()
	want := float64(workers * rounds)
	for i := 0; i < rows*k; i++ {
		if got := c[i]; got != want {
			t.Fatalf("out[%d] = %v, want %v", i, got, want)
		}
	}
}

// The pooled-scratch wrappers must agree with the allocating variants.
func TestScratchVariantsMatch(t *testing.T) {
	entries := randomCOO(50, 40, 300, 5).Entries
	// Column-major order, as async stripes store entries.
	for i := 1; i < len(entries); i++ {
		for j := i; j > 0 && (entries[j].Col < entries[j-1].Col ||
			(entries[j].Col == entries[j-1].Col && entries[j].Row < entries[j-1].Row)); j-- {
			entries[j], entries[j-1] = entries[j-1], entries[j]
		}
	}
	want := uniqueCols(entries)

	wantReg, wantBuf, wantFetched := coalesceRegions(want, 2, 0, 4)
	gotReg, gotBuf, gotFetched := coalesceRegionsInto(make([]cluster.Region, 0, 1), make([]int32, 1), want, 2, 0, 4)
	if gotFetched != wantFetched || len(gotReg) != len(wantReg) || len(gotBuf) != len(wantBuf) {
		t.Fatalf("coalesceRegionsInto shape mismatch")
	}
	for i := range wantReg {
		if gotReg[i] != wantReg[i] {
			t.Fatalf("region %d: %+v != %+v", i, gotReg[i], wantReg[i])
		}
	}
	for i := range wantBuf {
		if gotBuf[i] != wantBuf[i] {
			t.Fatalf("bufRow %d: %d != %d", i, gotBuf[i], wantBuf[i])
		}
	}
}

// A panel workspace's column table must serve repeats from the table and
// reset across panels (epochs).
func TestPanelScratchResolvedTable(t *testing.T) {
	ws := panelScratchPool.Get().(*panelScratch)
	defer panelScratchPool.Put(ws)
	calls := 0
	resolve := func(col int32) ([]float64, error) {
		calls++
		return []float64{float64(col)}, nil
	}
	ws.begin(10, 1)
	for _, c := range []int32{3, 7, 3, 3, 7} {
		row, err := ws.resolved(c, resolve)
		if err != nil {
			t.Fatal(err)
		}
		if row[0] != float64(c) {
			t.Fatalf("resolved(%d) = %v", c, row)
		}
	}
	if calls != 2 {
		t.Fatalf("resolver called %d times, want 2 (once per distinct column)", calls)
	}
	ws.begin(10, 1)
	if _, err := ws.resolved(3, resolve); err != nil {
		t.Fatal(err)
	}
	if calls != 3 {
		t.Fatalf("new panel must re-resolve; calls = %d", calls)
	}
}

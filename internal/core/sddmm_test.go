package core

import (
	"math"
	"testing"
	"testing/quick"

	"twoface/internal/cluster"
	"twoface/internal/dense"
	"twoface/internal/gen"
	"twoface/internal/sparse"
)

func sddmmFixture(t *testing.T, rows int32, nnz, k, p int, seed uint64) (*sparse.COO, *dense.Matrix, *dense.Matrix, *Prep, *cluster.Cluster) {
	t.Helper()
	a := randomCOO(rows, rows, nnz, seed)
	x := dense.Random(int(rows), k, seed+1)
	y := dense.Random(int(rows), k, seed+2)
	prep, err := Preprocess(a, basicParams(p, k, 8))
	if err != nil {
		t.Fatal(err)
	}
	clu, err := cluster.New(p, cluster.Default())
	if err != nil {
		t.Fatal(err)
	}
	return a, x, y, prep, clu
}

// sddmmEqual requires got to hold want's entries, sorted row-major, with
// bit-identical values.
func sddmmEqual(t *testing.T, got, want *sparse.COO) {
	t.Helper()
	if len(got.Entries) != len(want.Entries) {
		t.Fatalf("SDDMM entry counts: %d vs %d", len(got.Entries), len(want.Entries))
	}
	want.SortRowMajor()
	for i := range want.Entries {
		g, w := got.Entries[i], want.Entries[i]
		if g.Row != w.Row || g.Col != w.Col {
			t.Fatalf("entry %d coordinates (%d,%d) vs (%d,%d)", i, g.Row, g.Col, w.Row, w.Col)
		}
		if math.Float64bits(g.Val) != math.Float64bits(w.Val) {
			t.Fatalf("entry %d (%d,%d) value %x vs %x", i, g.Row, g.Col, math.Float64bits(g.Val), math.Float64bits(w.Val))
		}
	}
}

func TestSDDMMMatchesReference(t *testing.T) {
	a, x, y, prep, clu := sddmmFixture(t, 120, 1500, 8, 4, 1)
	res, err := ExecSDDMM(prep, x, y, clu, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := a.SDDMM(x, y)
	if err != nil {
		t.Fatal(err)
	}
	sddmmEqual(t, res.C, want)
	if res.ModeledSeconds <= 0 {
		t.Fatal("no modeled time")
	}
}

func TestSDDMMProperty(t *testing.T) {
	f := func(seed uint64, pRaw uint8) bool {
		p := int(pRaw)%5 + 1
		rows := int32(50 + seed%50)
		a := randomCOO(rows, rows, 500, seed)
		x := dense.Random(int(rows), 4, seed+1)
		y := dense.Random(int(rows), 4, seed+2)
		prep, err := Preprocess(a, basicParams(p, 4, 4))
		if err != nil {
			return false
		}
		clu, err := cluster.New(p, cluster.Default())
		if err != nil {
			return false
		}
		res, err := ExecSDDMM(prep, x, y, clu, ExecOptions{})
		if err != nil {
			return false
		}
		want, err := a.SDDMM(x, y)
		if err != nil {
			return false
		}
		want.SortRowMajor()
		if len(res.C.Entries) != len(want.Entries) {
			return false
		}
		for i := range want.Entries {
			g, w := res.C.Entries[i], want.Entries[i]
			if g.Row != w.Row || g.Col != w.Col {
				return false
			}
			if math.Float64bits(g.Val) != math.Float64bits(w.Val) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestSDDMMValidation(t *testing.T) {
	_, x, y, prep, clu := sddmmFixture(t, 60, 400, 4, 2, 3)
	if _, err := ExecSDDMM(prep, dense.New(60, 3), y, clu, ExecOptions{}); err == nil {
		t.Fatal("wrong X shape should fail")
	}
	if _, err := ExecSDDMM(prep, x, dense.New(59, 4), clu, ExecOptions{}); err == nil {
		t.Fatal("wrong Y shape should fail")
	}
	wrongClu, _ := cluster.New(3, cluster.Default())
	if _, err := ExecSDDMM(prep, x, y, wrongClu, ExecOptions{}); err == nil {
		t.Fatal("wrong cluster size should fail")
	}
}

func TestSDDMMSkipCompute(t *testing.T) {
	_, x, y, prep, clu := sddmmFixture(t, 80, 600, 4, 4, 5)
	res, err := ExecSDDMM(prep, x, y, clu, ExecOptions{SkipCompute: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.C.Entries) != 0 {
		t.Fatal("timing-only SDDMM should not emit entries")
	}
	if res.ModeledSeconds <= 0 {
		t.Fatal("timing-only SDDMM should still model time")
	}
}

func TestSDDMMReusesSpMMPlan(t *testing.T) {
	// The same Prep must serve both kernels.
	a, x, y, prep, clu := sddmmFixture(t, 100, 1200, 8, 4, 7)
	spmm, err := Exec(prep, y, clu, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	wantSpMM, _ := a.ToCSR().Mul(y)
	if !spmm.C.AlmostEqual(wantSpMM, 1e-9) {
		t.Fatal("SpMM on shared prep wrong")
	}
	sd, err := ExecSDDMM(prep, x, y, clu, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	wantSD, _ := a.SDDMM(x, y)
	sddmmEqual(t, sd.C, wantSD)
}

func TestSDDMMSequentialReferenceShapes(t *testing.T) {
	a := randomCOO(10, 20, 30, 9)
	x := dense.Random(10, 4, 1)
	y := dense.Random(20, 4, 2)
	out, err := a.SDDMM(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if out.NNZ() != a.NNZ() {
		t.Fatal("SDDMM must preserve sparsity structure")
	}
	if _, err := a.SDDMM(dense.New(9, 4), y); err == nil {
		t.Fatal("bad X rows should fail")
	}
	if _, err := a.SDDMM(x, dense.New(20, 5)); err == nil {
		t.Fatal("K mismatch should fail")
	}
}

// Every SDDMM value is one entry's multiplier times the dot of two dense
// rows, computed once by one writer with the reference's own scalar dot, so
// the distributed C equals the sequential reference bit for bit at any
// worker count.
func TestSDDMMBitIdenticalToReference(t *testing.T) {
	for _, spec := range gen.Specs() {
		t.Run(spec.Short, func(t *testing.T) {
			t.Parallel()
			const scale = 0.004
			a := spec.Build(scale, 7)
			for _, p := range []int{1, 4} {
				for _, k := range []int{16, 37} {
					x := dense.Random(int(a.NumRows), k, 8)
					y := dense.Random(int(a.NumCols), k, 9)
					want, err := a.SDDMM(x, y)
					if err != nil {
						t.Fatal(err)
					}
					prep, err := Preprocess(a, Params{P: p, K: k, W: spec.ScaledWidth(scale)})
					if err != nil {
						t.Fatal(err)
					}
					for _, opts := range []ExecOptions{{SyncWorkers: 1, AsyncWorkers: 1}, {}} {
						clu, err := cluster.New(p, cluster.Default())
						if err != nil {
							t.Fatal(err)
						}
						res, err := ExecSDDMM(prep, x, y, clu, opts)
						if err != nil {
							t.Fatalf("p=%d k=%d workers %d/%d: %v", p, k, opts.SyncWorkers, opts.AsyncWorkers, err)
						}
						sddmmEqual(t, res.C, want)
					}
				}
			}
		})
	}
}

// SDDMM is the SpMM executor with another per-unit kernel, so on one plan
// (with Y in B's role) it moves the same bytes in the same requests and
// charges the same ledger, rank by rank. Fresh plans with the row cache off
// keep the runs independent, and pinned workers fix each ledger's order of
// addition.
func TestSDDMMSharesTheSpMMEngine(t *testing.T) {
	for _, spec := range gen.Specs() {
		t.Run(spec.Short, func(t *testing.T) {
			t.Parallel()
			const scale, p, k = 0.004, 4, 32
			a := spec.Build(scale, 7)
			x := dense.Random(int(a.NumRows), k, 8)
			y := dense.Random(int(a.NumCols), k, 9)
			fresh := func() (*Prep, *cluster.Cluster) {
				prep, err := Preprocess(a, Params{P: p, K: k, W: spec.ScaledWidth(scale), RowCacheElems: -1})
				if err != nil {
					t.Fatal(err)
				}
				clu, err := cluster.New(p, cluster.Default())
				if err != nil {
					t.Fatal(err)
				}
				return prep, clu
			}
			opts := ExecOptions{SyncWorkers: 1, AsyncWorkers: 1}
			prep, clu := fresh()
			sd, err := ExecSDDMM(prep, x, y, clu, opts)
			if err != nil {
				t.Fatal(err)
			}
			prep, clu = fresh()
			mul, err := Exec(prep, y, clu, opts)
			if err != nil {
				t.Fatal(err)
			}
			if sd.TotalTransfer != mul.TotalTransfer {
				t.Errorf("SDDMM moved %+v, Multiply %+v", sd.TotalTransfer, mul.TotalTransfer)
			}
			for r := range mul.Breakdowns {
				if sd.Breakdowns[r] != mul.Breakdowns[r] {
					t.Errorf("rank %d: SDDMM ledger %+v, Multiply's %+v", r, sd.Breakdowns[r], mul.Breakdowns[r])
				}
			}
		})
	}
}

package twoface

import (
	"math"
	"path/filepath"
	"testing"

	"twoface/internal/core"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(Options{Nodes: 0, DenseColumns: 8}); err == nil {
		t.Fatal("Nodes=0 should fail")
	}
	if _, err := New(Options{Nodes: 4, DenseColumns: 0}); err == nil {
		t.Fatal("DenseColumns=0 should fail")
	}
	sys, err := New(Options{Nodes: 4, DenseColumns: 8})
	if err != nil {
		t.Fatal(err)
	}
	// Paper-size matrices get the unscaled machine; small analogs get fixed
	// overheads scaled down proportionally.
	if sys.Net(50e6) != DefaultNet() {
		t.Fatal("paper-size matrix should use DefaultNet unscaled")
	}
	small := sys.Net(50e3)
	if small.AlphaS >= DefaultNet().AlphaS || small.BetaS != DefaultNet().BetaS {
		t.Fatalf("small-matrix net not scaled correctly: %+v", small)
	}
}

func TestQuickstartFlow(t *testing.T) {
	a := Generate("queen", 0.02, 42)
	b := RandomDense(int(a.NumCols), 8, 1)
	sys, err := New(Options{Nodes: 4, DenseColumns: 8})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := sys.Preprocess(a)
	if err != nil {
		t.Fatal(err)
	}
	res, err := plan.Multiply(b)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Reference(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !res.C.AlmostEqual(want, 1e-9) {
		t.Fatal("Two-Face result differs from reference")
	}
	if res.ModeledSeconds <= 0 || len(res.Breakdowns) != 4 {
		t.Fatalf("result metadata: %v, %d breakdowns", res.ModeledSeconds, len(res.Breakdowns))
	}
	if plan.Stats().TotalNNZ != int64(a.NNZ()) {
		t.Fatal("prep stats missing")
	}
}

func TestPlanReuse(t *testing.T) {
	a := Generate("stokes", 0.02, 7)
	sys, err := New(Options{Nodes: 4, DenseColumns: 4})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := sys.Preprocess(a)
	if err != nil {
		t.Fatal(err)
	}
	for seed := uint64(1); seed <= 3; seed++ {
		b := RandomDense(int(a.NumCols), 4, seed)
		res, err := plan.Multiply(b)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := Reference(a, b)
		if !res.C.AlmostEqual(want, 1e-9) {
			t.Fatalf("reused plan wrong for seed %d", seed)
		}
	}
}

func TestOneShotMultiply(t *testing.T) {
	a := Generate("kmer", 0.01, 3)
	b := RandomDense(int(a.NumCols), 4, 9)
	res, err := Multiply(a, b, Options{Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := Reference(a, b)
	if !res.C.AlmostEqual(want, 1e-9) {
		t.Fatal("one-shot Multiply wrong")
	}
}

func TestBaselinesAgreeWithTwoFace(t *testing.T) {
	a := Generate("arabic", 0.02, 11)
	k := 4
	b := RandomDense(int(a.NumCols), k, 2)
	sys, err := New(Options{Nodes: 4, DenseColumns: k})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := Reference(a, b)
	for _, alg := range []Baseline{DenseShift1, DenseShift2, DenseShift4, Allgather, AsyncCoarse, AsyncFine} {
		res, err := sys.RunBaseline(alg, a, b)
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if !res.C.AlmostEqual(want, 1e-9) {
			t.Fatalf("%s differs from reference", alg)
		}
	}
	if _, err := sys.RunBaseline(Baseline("bogus"), a, b); err == nil {
		t.Fatal("unknown baseline should fail")
	}
}

func TestIsOutOfMemory(t *testing.T) {
	a := Generate("kmer", 0.05, 4)
	k := 64
	b := RandomDense(int(a.NumCols), k, 5)
	sys, err := New(Options{Nodes: 4, DenseColumns: k, MemBudgetElems: int64(k) * 2048, TimingOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	_, err = sys.RunBaseline(Allgather, a, b)
	if !IsOutOfMemory(err) {
		t.Fatalf("want OOM, got %v", err)
	}
	if IsOutOfMemory(nil) {
		t.Fatal("nil is not OOM")
	}
}

func TestTimingOnlyMode(t *testing.T) {
	a := Generate("web", 0.02, 5)
	b := RandomDense(int(a.NumCols), 8, 6)
	sys, err := New(Options{Nodes: 4, DenseColumns: 8, TimingOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := sys.Preprocess(a)
	if err != nil {
		t.Fatal(err)
	}
	res, err := plan.Multiply(b)
	if err != nil {
		t.Fatal(err)
	}
	if res.C.FrobeniusNorm() != 0 {
		t.Fatal("timing-only mode must leave C zero")
	}
	if res.ModeledSeconds <= 0 {
		t.Fatal("timing-only mode must still model time")
	}
}

func TestAutoWidth(t *testing.T) {
	if w := core.AutoWidth(100); w != 8 {
		t.Fatalf("AutoWidth(100) = %d, want floor 8", w)
	}
	if w := core.AutoWidth(512 * 128); w != 128 {
		t.Fatalf("AutoWidth = %d, want 128", w)
	}
}

func TestGenerateAndRegistryHelpers(t *testing.T) {
	names := Matrices()
	if len(names) != 8 {
		t.Fatalf("Matrices = %v", names)
	}
	for _, n := range names {
		if w := StripeWidthFor(n, 0.1); w < 8 {
			t.Fatalf("StripeWidthFor(%s) = %d", n, w)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Generate with unknown name should panic")
		}
	}()
	Generate("bogus", 1, 1)
}

func TestIOHelpers(t *testing.T) {
	dir := t.TempDir()
	a := Generate("queen", 0.01, 8)

	mm := filepath.Join(dir, "a.mtx")
	if err := WriteMatrixMarketFile(mm, a); err != nil {
		t.Fatal(err)
	}
	back, err := ReadMatrixMarketFile(mm)
	if err != nil || back.NNZ() != a.NNZ() {
		t.Fatalf("MatrixMarket roundtrip: %v, %d vs %d nnz", err, back.NNZ(), a.NNZ())
	}

	bin := filepath.Join(dir, "a.bin")
	if err := WriteBinaryFile(bin, a); err != nil {
		t.Fatal(err)
	}
	back2, err := ReadBinaryFile(bin)
	if err != nil || back2.NNZ() != a.NNZ() {
		t.Fatalf("binary roundtrip: %v", err)
	}
}

func TestDeriveCoefficients(t *testing.T) {
	c := DeriveCoefficients(DefaultNet())
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.BetaA != DefaultNet().BetaA {
		t.Fatal("BetaA should carry over from the machine")
	}
}

func TestCustomNetAndCoefficients(t *testing.T) {
	net := DefaultNet()
	net.BetaA *= 10 // make one-sided transfers terrible
	coef := DeriveCoefficients(net)
	a := Generate("web", 0.02, 13)
	b := RandomDense(int(a.NumCols), 8, 14)
	sys, err := New(Options{Nodes: 4, DenseColumns: 8, Net: &net, Coefficients: &coef})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := sys.Preprocess(a)
	if err != nil {
		t.Fatal(err)
	}
	res, err := plan.Multiply(b)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := Reference(a, b)
	if !res.C.AlmostEqual(want, 1e-9) {
		t.Fatal("custom-net run wrong")
	}
	if math.IsNaN(res.ModeledSeconds) {
		t.Fatal("NaN modeled time")
	}
}

func TestMultiplySampled(t *testing.T) {
	a := Generate("stokes", 0.02, 21)
	b := RandomDense(int(a.NumCols), 4, 22)
	sys, err := New(Options{Nodes: 4, DenseColumns: 4})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := sys.Preprocess(a)
	if err != nil {
		t.Fatal(err)
	}
	const keep, seed = 0.4, uint64(5)
	res, err := plan.MultiplySampled(b, keep, seed)
	if err != nil {
		t.Fatal(err)
	}
	// Reference: filter A by the same mask and multiply.
	filtered := NewSparse(a.NumRows, a.NumCols)
	for _, e := range a.Entries {
		if Sampled(e.Row, e.Col, seed, keep) {
			filtered.Append(e.Row, e.Col, e.Val)
		}
	}
	want, _ := Reference(filtered, b)
	if !res.C.AlmostEqual(want, 1e-9) {
		t.Fatal("sampled multiply differs from filtered reference")
	}
	// Different seeds give different samples.
	res2, err := plan.MultiplySampled(b, keep, seed+1)
	if err != nil {
		t.Fatal(err)
	}
	if d, _ := res.C.MaxAbsDiff(res2.C); d == 0 {
		t.Fatal("different seeds should sample differently")
	}
}

func TestColumnClassifierOption(t *testing.T) {
	a := Generate("twitter", 0.02, 31)
	b := RandomDense(int(a.NumCols), 8, 32)
	sys, err := New(Options{Nodes: 4, DenseColumns: 8, UseColumnClassifier: true})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := sys.Preprocess(a)
	if err != nil {
		t.Fatal(err)
	}
	res, err := plan.Multiply(b)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := Reference(a, b)
	if !res.C.AlmostEqual(want, 1e-9) {
		t.Fatal("column classifier result wrong")
	}
}

func TestPlanSDDMMViaAPI(t *testing.T) {
	a := Generate("arabic", 0.02, 41)
	n := int(a.NumRows)
	x := RandomDense(n, 8, 1)
	y := RandomDense(n, 8, 2)
	sys, err := New(Options{Nodes: 4, DenseColumns: 8})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := sys.Preprocess(a)
	if err != nil {
		t.Fatal(err)
	}
	res, err := plan.SDDMM(x, y)
	if err != nil {
		t.Fatal(err)
	}
	want, err := a.SDDMM(x, y)
	if err != nil {
		t.Fatal(err)
	}
	want.SortRowMajor()
	if res.C.NNZ() != want.NNZ() {
		t.Fatalf("SDDMM nnz %d vs %d", res.C.NNZ(), want.NNZ())
	}
	for i := range want.Entries {
		if d := res.C.Entries[i].Val - want.Entries[i].Val; math.Abs(d) > 1e-9 {
			t.Fatalf("SDDMM entry %d off by %v", i, d)
		}
	}
}

func TestPlanSaveLoad(t *testing.T) {
	dir := t.TempDir()
	a := Generate("queen", 0.02, 51)
	b := RandomDense(int(a.NumCols), 8, 52)
	sys, err := New(Options{Nodes: 4, DenseColumns: 8})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := sys.Preprocess(a)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "plan.tfp")
	if err := plan.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := sys.LoadPlan(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.NumRows() != plan.NumRows() || loaded.NumCols() != plan.NumCols() {
		t.Fatal("loaded plan has wrong shape")
	}
	r1, err := plan.Multiply(b)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := loaded.Multiply(b)
	if err != nil {
		t.Fatal(err)
	}
	if d, _ := r1.C.MaxAbsDiff(r2.C); d > 1e-12 {
		t.Fatalf("loaded plan computes differently: %v", d)
	}
	// Mismatched systems must be rejected.
	other, _ := New(Options{Nodes: 2, DenseColumns: 8})
	if _, err := other.LoadPlan(path); err == nil {
		t.Fatal("wrong node count should fail")
	}
	other2, _ := New(Options{Nodes: 4, DenseColumns: 16})
	if _, err := other2.LoadPlan(path); err == nil {
		t.Fatal("wrong K should fail")
	}
}

// A plan file whose sync entry names a column past the matrix used to load
// and then panic inside Multiply; LoadPlan must reject it instead.
func TestLoadPlanRejectsOutOfRangeColumn(t *testing.T) {
	a := Generate("web", 0.05, 1)
	sys, err := New(Options{Nodes: 2, DenseColumns: 8})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := sys.Preprocess(a)
	if err != nil {
		t.Fatal(err)
	}
	plan.prep.Nodes[0].Sync.Entries[0].Col = a.NumCols + 5
	path := filepath.Join(t.TempDir(), "plan.tfp")
	if err := plan.Save(path); err != nil {
		t.Fatal(err)
	}
	if loaded, err := sys.LoadPlan(path); err == nil {
		t.Fatalf("corrupt plan loaded (%d rows)", loaded.NumRows())
	}
}

func TestPlanTraceSummaries(t *testing.T) {
	a := Generate("kmer", 0.02, 61)
	b := RandomDense(int(a.NumCols), 8, 62)
	sys, err := New(Options{Nodes: 4, DenseColumns: 8})
	if err != nil {
		t.Fatal(err)
	}
	if sys.DenseColumns() != 8 {
		t.Fatal("DenseColumns accessor wrong")
	}
	plan, err := sys.Preprocess(a)
	if err != nil {
		t.Fatal(err)
	}
	plan.EnableTrace(0)
	if _, err := plan.Multiply(b); err != nil {
		t.Fatal(err)
	}
	sums := plan.TraceSummaries()
	if len(sums) != 4 {
		t.Fatalf("%d summaries", len(sums))
	}
	var events int
	var bytes int64
	for i, s := range sums {
		if s.Rank != i {
			t.Fatalf("summary %d has rank %d", i, s.Rank)
		}
		events += s.Events
		bytes += s.CollectiveElems + s.OneSidedElems
	}
	if events == 0 || bytes == 0 {
		t.Fatal("tracing recorded nothing for a 4-node SpMM")
	}
}

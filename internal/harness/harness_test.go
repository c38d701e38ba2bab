package harness

import (
	"encoding/json"
	"math"
	"strings"
	"testing"

	"twoface"
	"twoface/internal/gen"
)

// testCfg is a fast timing-only configuration for exercising the experiment
// plumbing.
func testCfg() Config {
	return Config{Scale: 0.02, Seed: 7, Options: twoface.Options{Nodes: 4, Workers: 2, TimingOnly: true}}
}

func TestRunAllAlgorithms(t *testing.T) {
	cfg := testCfg()
	spec, err := gen.ByName("stokes")
	if err != nil {
		t.Fatal(err)
	}
	w := cfg.BuildWorkload(spec)
	for _, algo := range append(FigureAlgos, AlgoDS1, AlgoTwoFace) {
		if algo == AlgoDS8 {
			continue // 8 does not divide the 4-node test cluster
		}
		out := cfg.Run(algo, w, 8, cfg.Nodes)
		if out.Err != nil {
			t.Fatalf("%s: %v", algo, out.Err)
		}
		if !out.OOM && out.Modeled <= 0 {
			t.Fatalf("%s: no modeled time", algo)
		}
		if !out.OOM && len(out.Breakdowns) != cfg.Nodes {
			t.Fatalf("%s: %d breakdowns", algo, len(out.Breakdowns))
		}
	}
}

func TestRunUnknownAlgo(t *testing.T) {
	cfg := testCfg()
	spec, _ := gen.ByName("queen")
	w := cfg.BuildWorkload(spec)
	if out := cfg.Run(Algo("nope"), w, 4, 2); out.Err == nil {
		t.Fatal("unknown algorithm should error")
	}
}

func TestRunVerifyMode(t *testing.T) {
	// With the arithmetic on, the C that Run computes must match the
	// reference kernel to twoface-run -verify's tolerance. Run folds C
	// away, so this calls execute, its body, with the options Run builds.
	cfg := testCfg()
	cfg.TimingOnly = false
	spec, _ := gen.ByName("queen")
	w := cfg.BuildWorkload(spec)
	want, err := w.A.ToCSR().Mul(w.B(8))
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range []Algo{AlgoTwoFace, AlgoDS2} {
		res, _, err := execute(algo, w, cfg.options(w, 8, cfg.Nodes))
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if !res.C.AlmostEqual(want, 1e-9) {
			t.Fatalf("%s: C differs from the reference kernel", algo)
		}
	}
}

func TestSpeedupNaN(t *testing.T) {
	good := Outcome{Modeled: 2}
	if got := Speedup(good, Outcome{Modeled: 1}); got != 2 {
		t.Fatalf("Speedup = %v", got)
	}
	if !math.IsNaN(Speedup(good, Outcome{OOM: true})) {
		t.Fatal("OOM should give NaN")
	}
	if !math.IsNaN(Speedup(Outcome{OOM: true}, good)) {
		t.Fatal("OOM base should give NaN")
	}
}

func TestMemBudgetScalesWithScale(t *testing.T) {
	a := Config{Scale: 1.0}.MemBudget()
	b := Config{Scale: 0.25}.MemBudget()
	if a != 4*b {
		t.Fatalf("budget should scale linearly: %d vs %d", a, b)
	}
}

func TestCoefMatchesScaledMachine(t *testing.T) {
	cfg := Config{Scale: 0.5}
	coef := cfg.Coef()
	net := cfg.Net()
	if coef.BetaA != net.BetaA || coef.BetaS != 2*net.BetaS {
		t.Fatalf("classifier coefficients diverge from machine: %+v vs %+v", coef, net)
	}
	if err := coef.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestWorkloadCachesB(t *testing.T) {
	cfg := testCfg()
	spec, _ := gen.ByName("kmer")
	w := cfg.BuildWorkload(spec)
	b1 := w.B(4)
	b2 := w.B(4)
	if b1 != b2 {
		t.Fatal("B should be cached per K")
	}
	if w.B(8) == b1 {
		t.Fatal("different K must give a different B")
	}
}

func TestTableRendering(t *testing.T) {
	tab := NewTable("Title", []string{"r1", "r2"}, []string{"c1", "c2"})
	tab.Set(0, 0, 1.234, "%.2f")
	tab.Set(1, 1, math.NaN(), "%.2f")
	tab.SetText(0, 1, "x")
	s := tab.String()
	for _, want := range []string{"Title", "r1", "c2", "1.23", "OOM", "x"} {
		if !strings.Contains(s, want) {
			t.Fatalf("rendered table missing %q:\n%s", want, s)
		}
	}
	if got := tab.Value("r1", "c1"); got != 1.234 {
		t.Fatalf("Value = %v", got)
	}
	if !math.IsNaN(tab.Value("r9", "c1")) || !math.IsNaN(tab.Value("r1", "c9")) {
		t.Fatal("missing labels should give NaN")
	}
}

func TestTable1Populates(t *testing.T) {
	tab := testCfg().Table1()
	if len(tab.RowHead) != 8 {
		t.Fatalf("%d rows", len(tab.RowHead))
	}
	for i := range tab.RowHead {
		if math.IsNaN(tab.Values[i][0]) || tab.Values[i][0] <= 0 {
			t.Fatalf("row %s has no dimension", tab.RowHead[i])
		}
	}
}

func TestFigure2SmallScale(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment test")
	}
	tab := testCfg().Figure2()
	// Every cell is either a positive speedup or OOM.
	for i := range tab.RowHead {
		for j := range tab.ColHead {
			v := tab.Values[i][j]
			if !math.IsNaN(v) && v <= 0 {
				t.Fatalf("cell (%d,%d) = %v", i, j, v)
			}
		}
	}
}

func TestSpeedupFigureDS2IsUnity(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment test")
	}
	tab := testCfg().SpeedupFigure(8)
	for i, r := range tab.RowHead {
		if r == "avg" {
			continue
		}
		v := tab.Value(r, "DS2")
		if !math.IsNaN(v) && math.Abs(v-1) > 1e-9 {
			t.Fatalf("row %d DS2 speedup = %v, want 1", i, v)
		}
	}
}

func TestFigure10RowsPresent(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment test")
	}
	tab := testCfg().Figure10()
	if len(tab.ColHead) != 9 {
		t.Fatalf("%d columns", len(tab.ColHead))
	}
	// At least half the matrices must have a breakdown (none should OOM at
	// this tiny scale with the scaled budget).
	filled := 0
	for i := range tab.RowHead {
		if !math.IsNaN(tab.Values[i][0]) {
			filled++
		}
	}
	if filled < 4 {
		t.Fatalf("only %d matrices have breakdowns", filled)
	}
}

func TestFigure11Structure(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment test")
	}
	tables := testCfg().Figure11([]int{1, 2, 4})
	if len(tables) != 8 {
		t.Fatalf("%d tables", len(tables))
	}
	for _, tab := range tables {
		// DS4 must be blank at p=1,2 (replication factor doesn't divide p).
		if !math.IsNaN(tab.Value("DS4", "p=1")) || !math.IsNaN(tab.Value("DS4", "p=2")) {
			t.Fatalf("%s: DS4 should be blank below p=4", tab.Title)
		}
		if v := tab.Value("TwoFace", "p=4"); math.IsNaN(v) || v <= 0 {
			t.Fatalf("%s: TwoFace p=4 = %v", tab.Title, v)
		}
	}
}

func TestTable6Positive(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment test")
	}
	tab := testCfg().Table6()
	for i, r := range tab.RowHead {
		io, no := tab.Values[i][0], tab.Values[i][1]
		if math.IsNaN(io) || math.IsNaN(no) {
			continue
		}
		if io <= no || no <= 0 {
			t.Fatalf("%s: t_norm_io=%v t_norm=%v (io must exceed no-io)", r, io, no)
		}
	}
}

func TestCalibrateRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment test")
	}
	fitted, truth, diag, err := testCfg().Calibrate()
	if err != nil {
		t.Fatal(err)
	}
	if err := fitted.Validate(); err != nil {
		t.Fatalf("fitted coefficients invalid: %v", err)
	}
	// The compute-side fit has no unmodeled effects, so it must recover the
	// machine truth almost exactly.
	if rel := math.Abs(fitted.GammaA-truth.GammaA) / truth.GammaA; rel > 0.05 {
		t.Fatalf("gammaA fit off by %.1f%%", rel*100)
	}
	if diag.R2CompA < 0.99 {
		t.Fatalf("R2(CompA) = %.3f, want the near-perfect compute-side fit", diag.R2CompA)
	}
}

func TestFigure12Structure(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment test")
	}
	tables := testCfg().Figure12()
	if len(tables) != 3 {
		t.Fatalf("%d sensitivity grids", len(tables))
	}
	for _, tab := range tables {
		v := tab.Value("1.0x", "1.0x")
		if math.IsNaN(v) || math.Abs(v-1) > 1e-9 {
			t.Fatalf("%s: default cell = %v, want 1.00", tab.Title, v)
		}
	}
}

func TestMatrixNames(t *testing.T) {
	names := MatrixNames()
	if len(names) != 8 || names[0] != "mawi" || names[7] != "friendster" {
		t.Fatalf("MatrixNames = %v", names)
	}
}

func TestCommVolumeTwoFaceMovesLess(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment test")
	}
	tab := testCfg().CommVolume(16)
	// DS2 is the unit; on the locality-heavy web analog Two-Face must move
	// a small fraction of it.
	if v := tab.Value("web", "DS2"); math.Abs(v-1) > 1e-9 {
		t.Fatalf("DS2 column should be 1.0, got %v", v)
	}
	if v := tab.Value("web", "TwoFace"); math.IsNaN(v) || v >= 0.9 {
		t.Fatalf("Two-Face on web moved %.3f of DS2's bytes, want < 0.9", v)
	}
	// Allgather moves at least as much as DS2 (full replication).
	if v := tab.Value("kmer", "Allgather"); !math.IsNaN(v) && v < 0.99 {
		t.Fatalf("Allgather moved less than DS2: %v", v)
	}
}

func TestTableJSON(t *testing.T) {
	tab := NewTable("T", []string{"r"}, []string{"a", "b"})
	tab.Set(0, 0, 1.5, "%.1f")
	tab.Set(0, 1, math.NaN(), "%.1f")
	b, err := tab.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Title string           `json:"title"`
		Rows  []map[string]any `json:"rows"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, b)
	}
	if doc.Title != "T" || len(doc.Rows) != 1 {
		t.Fatalf("doc = %+v", doc)
	}
	if doc.Rows[0]["a"] != 1.5 {
		t.Fatalf("a = %v", doc.Rows[0]["a"])
	}
	if v, present := doc.Rows[0]["b"]; !present || v != nil {
		t.Fatalf("NaN should serialize as null, got %v", v)
	}
}

func TestSeedSweepStability(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment test")
	}
	tab := testCfg().SeedSweep(16, []uint64{7, 8})
	for i, r := range tab.RowHead {
		mean, min, max := tab.Values[i][0], tab.Values[i][1], tab.Values[i][2]
		if math.IsNaN(mean) {
			continue
		}
		if !(min <= mean && mean <= max) {
			t.Fatalf("%s: min/mean/max out of order: %v %v %v", r, min, mean, max)
		}
		if min <= 0 {
			t.Fatalf("%s: non-positive speedup %v", r, min)
		}
	}
}

func TestCommAggregationSmoke(t *testing.T) {
	cfg := Config{Scale: 0.05, Options: twoface.Options{Nodes: 4}}
	rows, table, err := cfg.CommAggregation(32)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 || table == nil {
		t.Fatal("no aggregation rows")
	}
	for _, r := range rows {
		if !r.ResultsAgree {
			t.Fatalf("%s: batched C diverged from the per-stripe twin (max rel diff %.2g)", r.Matrix, r.MaxRelDiff)
		}
		if r.BatchedGets > r.LegacyGets {
			t.Fatalf("%s: batching increased requests (%d > %d)", r.Matrix, r.BatchedGets, r.LegacyGets)
		}
		if r.LegacyGets > 0 && r.WarmBytes > r.ColdBytes {
			t.Fatalf("%s: warm run moved more bytes than cold (%d > %d)", r.Matrix, r.WarmBytes, r.ColdBytes)
		}
		// At this scale the classifier's split does not move with the batch
		// estimate (it does for mawi and stokes at scale 0.25, see
		// BENCH_comm.json), so the per-stripe twin fetches exactly the rows
		// the batched cold run fetches.
		if r.LegacyBytes != r.ColdBytes {
			t.Fatalf("%s: per-stripe twin moved %d bytes, batched cold run %d", r.Matrix, r.LegacyBytes, r.ColdBytes)
		}
		if r.ModeledSerial < r.ModeledPipelined {
			t.Fatalf("%s: serial sync accounting %g beats the pipelined %g", r.Matrix, r.ModeledSerial, r.ModeledPipelined)
		}
	}
}

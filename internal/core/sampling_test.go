package core

import (
	"math"
	"testing"
	"testing/quick"

	"twoface/internal/cluster"
	"twoface/internal/dense"
	"twoface/internal/sparse"
)

func TestSampleMaskDeterministic(t *testing.T) {
	for i := 0; i < 100; i++ {
		row, col := int32(i*7), int32(i*13)
		a := SampleMask(row, col, 42, 0.5)
		b := SampleMask(row, col, 42, 0.5)
		if a != b {
			t.Fatal("mask must be deterministic")
		}
	}
}

func TestSampleMaskEdgeCases(t *testing.T) {
	if !SampleMask(1, 2, 3, 1.0) || !SampleMask(1, 2, 3, 1.5) {
		t.Fatal("keep >= 1 must keep everything")
	}
	if SampleMask(1, 2, 3, 0) || SampleMask(1, 2, 3, -1) {
		t.Fatal("keep <= 0 must drop everything")
	}
}

func TestSampleMaskRate(t *testing.T) {
	for _, keep := range []float64{0.25, 0.5, 0.9} {
		kept := 0
		const n = 20000
		for i := 0; i < n; i++ {
			if SampleMask(int32(i), int32(i*31+7), 9, keep) {
				kept++
			}
		}
		got := float64(kept) / n
		if math.Abs(got-keep) > 0.02 {
			t.Fatalf("keep=%.2f: observed rate %.3f", keep, got)
		}
	}
}

func TestSampleMaskSeedVariesSample(t *testing.T) {
	same := 0
	const n = 2000
	for i := 0; i < n; i++ {
		if SampleMask(int32(i), 0, 1, 0.5) == SampleMask(int32(i), 0, 2, 0.5) {
			same++
		}
	}
	// Independent 50% masks agree about half the time; 90%+ agreement means
	// the seed isn't being mixed in.
	if same > n*3/4 {
		t.Fatalf("masks for different seeds agree on %d/%d entries", same, n)
	}
}

// maskedReference computes the expected sampled result by filtering the
// matrix first and running the reference kernel.
func maskedReference(t *testing.T, a *sparse.COO, b *dense.Matrix, seed uint64, keep float64) *dense.Matrix {
	t.Helper()
	filtered := sparse.NewCOO(a.NumRows, a.NumCols, 0)
	for _, e := range a.Entries {
		if SampleMask(e.Row, e.Col, seed, keep) {
			filtered.Entries = append(filtered.Entries, e)
		}
	}
	want, err := filtered.ToCSR().Mul(b)
	if err != nil {
		t.Fatal(err)
	}
	return want
}

func TestSampledExecMatchesFilteredReference(t *testing.T) {
	a := randomCOO(120, 120, 1600, 3)
	b := dense.Random(120, 8, 4)
	prep, err := Preprocess(a, basicParams(4, 8, 8))
	if err != nil {
		t.Fatal(err)
	}
	clu, _ := cluster.New(4, cluster.Default())
	for _, keep := range []float64{0.2, 0.5, 0.8} {
		for seed := uint64(1); seed <= 3; seed++ {
			res, err := Exec(prep, b, clu, ExecOptions{SampleKeep: keep, SampleSeed: seed})
			if err != nil {
				t.Fatal(err)
			}
			want := maskedReference(t, a, b, seed, keep)
			if !res.C.AlmostEqual(want, 1e-9) {
				d, _ := res.C.MaxAbsDiff(want)
				t.Fatalf("keep=%.1f seed=%d: sampled result off by %v", keep, seed, d)
			}
		}
	}
}

func TestSampledExecProperty(t *testing.T) {
	f := func(seedRaw uint64, keepRaw uint8) bool {
		keep := 0.1 + 0.8*float64(keepRaw)/255
		a := randomCOO(60, 60, 500, seedRaw)
		b := dense.Random(60, 4, seedRaw+1)
		prep, err := Preprocess(a, basicParams(3, 4, 8))
		if err != nil {
			return false
		}
		clu, err := cluster.New(3, cluster.Default())
		if err != nil {
			return false
		}
		res, err := Exec(prep, b, clu, ExecOptions{SampleKeep: keep, SampleSeed: seedRaw})
		if err != nil {
			return false
		}
		filtered := sparse.NewCOO(a.NumRows, a.NumCols, 0)
		for _, e := range a.Entries {
			if SampleMask(e.Row, e.Col, seedRaw, keep) {
				filtered.Entries = append(filtered.Entries, e)
			}
		}
		want, err := filtered.ToCSR().Mul(b)
		if err != nil {
			return false
		}
		return res.C.AlmostEqual(want, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestSampledExecReducesComputeCharge(t *testing.T) {
	a := randomCOO(200, 200, 5000, 5)
	b := dense.Random(200, 8, 6)
	params := basicParams(4, 8, 8)
	// The comparison below runs the same prep twice; disable the remote-row
	// cache so the second run's transfers aren't served from it.
	params.RowCacheElems = -1
	prep, err := Preprocess(a, params)
	if err != nil {
		t.Fatal(err)
	}
	clu, _ := cluster.New(4, cluster.Default())
	full, err := Exec(prep, b, clu, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sampled, err := Exec(prep, b, clu, ExecOptions{SampleKeep: 0.25, SampleSeed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var fullComp, sampComp float64
	for i := range full.Breakdowns {
		fullComp += full.Breakdowns[i].SyncComp + full.Breakdowns[i].AsyncComp
		sampComp += sampled.Breakdowns[i].SyncComp + sampled.Breakdowns[i].AsyncComp
	}
	if sampComp >= fullComp*0.5 {
		t.Fatalf("sampling should scale modeled compute: full %v, sampled %v", fullComp, sampComp)
	}
	// Communication is unchanged (the conservative schedule).
	var fullComm, sampComm float64
	for i := range full.Breakdowns {
		fullComm += full.Breakdowns[i].SyncComm + full.Breakdowns[i].AsyncComm
		sampComm += sampled.Breakdowns[i].SyncComm + sampled.Breakdowns[i].AsyncComm
	}
	if math.Abs(fullComm-sampComm) > 1e-15 {
		t.Fatalf("sampling must not change transfers: %v vs %v", fullComm, sampComm)
	}
}

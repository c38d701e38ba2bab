package core

import (
	"bytes"
	"testing"

	"twoface/internal/cluster"
	"twoface/internal/gen"
	"twoface/internal/sparse"
)

var benchPrepSink *Prep

// queenSetup is the sim-banded benchmark input: queen at scale 4 (32 400
// rows, 2.1 M nonzeros) for P=4, K=128, with the stripe width and
// classifier coefficients twoface.System.Preprocess would pick.
func queenSetup(b *testing.B) (*sparse.COO, Params) {
	b.Helper()
	spec, err := gen.ByName("queen")
	if err != nil {
		b.Fatal(err)
	}
	a := spec.Build(4, 42)
	coef := CoefficientsFromNet(cluster.Default().Scaled(50e6/float64(a.NumRows)), 8)
	return a, Params{P: 4, K: 128, W: spec.ScaledWidth(4), Coef: coef}
}

func BenchmarkPreprocess(b *testing.B) {
	a, params := queenSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prep, err := Preprocess(a, params)
		if err != nil {
			b.Fatal(err)
		}
		benchPrepSink = prep
	}
}

// BenchmarkReadPrep decodes the plan BenchmarkPreprocess builds, from
// memory: the plan-file path's alternative to preprocessing.
func BenchmarkReadPrep(b *testing.B) {
	a, params := queenSetup(b)
	prep, err := Preprocess(a, params)
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WritePrep(&buf, prep); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		back, err := ReadPrep(bytes.NewReader(buf.Bytes()))
		if err != nil {
			b.Fatal(err)
		}
		benchPrepSink = back
	}
}

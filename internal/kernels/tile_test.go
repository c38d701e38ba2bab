package kernels

import (
	"math"
	"math/rand/v2"
	"testing"
)

// The register-tiled kernels are drop-in replacements for sequences of Axpy
// calls: Axpy2 must equal two chained Axpys and AxpyQuad four independent
// ones, bit for bit, under EVERY variant — including FMA, where both sides
// fuse identically. This equivalence is what lets the executor use the tiled
// formulations unconditionally without a ForceGeneric branch. Axpy2's
// operands include signed zeros, infinities, NaNs and subnormals, so the
// pair matches the chain even in which NaN payload survives.
func TestAxpy2EquivalentToTwoAxpys(t *testing.T) {
	for _, v := range Implementations() {
		t.Run(v.Variant.String(), func(t *testing.T) {
			rng := rand.New(rand.NewPCG(29, uint64(v.Variant)))
			for _, n := range []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 19, 32, 127, 128} {
				x0, x1 := randSlice(n, rng), randSlice(n, rng)
				y := randSlice(n, rng)
				a0, a1 := 2*rng.Float64()-1, 2*rng.Float64()-1
				for _, s := range [][]float64{x0, x1, y} {
					for i := range s {
						if rng.IntN(4) == 0 {
							s[i] = gatherValue(rng)
						}
					}
				}

				want := append([]float64(nil), y...)
				v.Axpy(a0, x0, want)
				v.Axpy(a1, x1, want)

				got := append([]float64(nil), y...)
				v.Axpy2(a0, x0, a1, x1, got)

				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("n=%d i=%d: %x != %x", n, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
					}
				}
			}
		})
	}
}

func TestAxpyQuadEquivalentToFourAxpys(t *testing.T) {
	for _, v := range Implementations() {
		t.Run(v.Variant.String(), func(t *testing.T) {
			rng := rand.New(rand.NewPCG(31, uint64(v.Variant)))
			for _, n := range []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 19, 32, 127, 128} {
				x := randSlice(n, rng)
				ys := [4][]float64{randSlice(n, rng), randSlice(n, rng), randSlice(n, rng), randSlice(n, rng)}
				as := [4]float64{2*rng.Float64() - 1, 2*rng.Float64() - 1, 2*rng.Float64() - 1, 2*rng.Float64() - 1}

				var want, got [4][]float64
				for j := range ys {
					want[j] = append([]float64(nil), ys[j]...)
					got[j] = append([]float64(nil), ys[j]...)
					v.Axpy(as[j], x, want[j])
				}
				v.AxpyQuad(x, as[0], got[0], as[1], got[1], as[2], got[2], as[3], got[3])

				for j := range want {
					for i := range want[j] {
						if got[j][i] != want[j][i] {
							t.Fatalf("n=%d dst=%d i=%d: %v != %v", n, j, i, got[j][i], want[j][i])
						}
					}
				}
			}
		})
	}
}

// Package-level Axpy2/AxpyQuad trim to the common length like every other
// kernel.
func TestTiledKernelsTruncate(t *testing.T) {
	y := []float64{1, 2, 3, 4, 5}
	Axpy2(1, []float64{10, 10}, 1, []float64{100, 100, 100}, y)
	if y[0] != 111 || y[1] != 112 || y[2] != 3 {
		t.Fatalf("Axpy2 truncation: %v", y)
	}
	y0 := []float64{1, 2, 3}
	y1 := []float64{1, 2, 3}
	AxpyQuad([]float64{5, 5}, 1, y0, 2, y1, 0, y0[:0], 0, nil)
	if y0[0] != 1 || y1[0] != 1 || y0[2] != 3 {
		t.Fatalf("AxpyQuad empty dst must truncate all: %v %v", y0, y1)
	}
}

// Row hands out the same buffer Accumulate fills, with the first-touch flag
// deciding assign-vs-accumulate, and Reserve keeps outstanding buffers valid
// across first-touch growth — the contract the tiled async path depends on.
func TestRowAccumulatorRowAndReserve(t *testing.T) {
	var a RowAccumulator
	a.Begin(8, 4)
	x := []float64{1, 2, 3, 4}

	vals, first := a.Row(3)
	if !first {
		t.Fatal("first touch not reported")
	}
	ScaleTo(vals, 2, x)
	vals, first = a.Row(3)
	if first {
		t.Fatal("second touch reported as first")
	}
	Axpy(1, x, vals)
	if got := a.Vals(0); got[0] != 3 || got[3] != 12 {
		t.Fatalf("accumulated row: %v", got)
	}
	if rows := a.Touched(); len(rows) != 1 || rows[0] != 3 {
		t.Fatalf("touched: %v", rows)
	}

	// Reserve must keep an outstanding buffer valid while new rows grow the
	// accumulator past its current capacity.
	a.Begin(64, 4)
	a.Reserve(64)
	held, _ := a.Row(0)
	ScaleTo(held, 1, x)
	for r := int32(1); r < 64; r++ {
		vals, first := a.Row(r)
		if !first {
			t.Fatalf("row %d: expected first touch", r)
		}
		ScaleTo(vals, 1, x)
	}
	held[0] = 42 // must still alias slot 0
	if got := a.Vals(0); got[0] != 42 {
		t.Fatalf("Reserve did not keep the buffer valid: %v", got)
	}

	// Epoch reuse: a new Begin forgets everything without clearing.
	a.Begin(8, 4)
	if _, first := a.Row(3); !first {
		t.Fatal("row 3 should be first-touch again after Begin")
	}
	if len(a.Touched()) != 1 {
		t.Fatalf("touched after Begin: %v", a.Touched())
	}
}

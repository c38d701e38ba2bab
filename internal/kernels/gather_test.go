package kernels

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"
)

// gatherValue draws from a pool that mixes ordinary values with the inputs
// whose rounding and propagation are easiest to get wrong: signed zeros,
// infinities, NaNs with distinct payloads, and subnormals.
func gatherValue(rng *rand.Rand) float64 {
	switch rng.IntN(12) {
	case 0:
		return math.Copysign(0, -1)
	case 1:
		return math.Inf(1)
	case 2:
		return math.Inf(-1)
	case 3:
		return math.Float64frombits(0x7ff8000000000000 | rng.Uint64()&0xffff)
	case 4:
		return math.Float64frombits(0xfff8000000000000 | rng.Uint64()&0xffff)
	case 5:
		return math.Float64frombits(rng.Uint64() & 0x000fffffffffffff) // subnormal
	case 6:
		return -math.Float64frombits(rng.Uint64() & 0x000fffffffffffff)
	}
	return 2*rng.Float64() - 1
}

// Every implementation's AxpyGather must store exactly the bits of the same
// implementation's Axpy chained over the terms in order — the FMA set
// included, whose gather fuses each term as its Axpy does — on every
// forEachGatherCase input.
func TestAxpyGatherMatchesChainedAxpy(t *testing.T) {
	for _, v := range Implementations() {
		t.Run(v.Variant.String(), func(t *testing.T) {
			rng := rand.New(rand.NewPCG(11, uint64(v.Variant)))
			forEachGatherCase(rng, func(c gatherCase) {
				want := append([]float64(nil), c.y...)
				for j, s := range c.slots {
					v.Axpy(c.vals[j*c.stride], c.rows[s], want)
				}
				got := append([]float64(nil), c.y...)
				v.AxpyGather(got, c.vals, c.stride, c.slots, c.rows)
				if i := firstBitDiff(got, want); i >= 0 {
					t.Fatalf("%v: y[%d] = %x, chained Axpy %x",
						c, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
				}
			})
		})
	}
}

// Every bit-exact variant's AxpyGather stores the generic set's bits, not only
// those of its own Axpy chain: C's bit-identity across hosts rests on it. The
// FMA set rounds once per term by design and is held to its own chain above.
func TestAxpyGatherMatchesGeneric(t *testing.T) {
	ref := genericRef()
	for _, v := range Implementations() {
		if v.Variant == VariantGeneric || v.Variant == VariantAVX2FMA {
			continue
		}
		t.Run(v.Variant.String(), func(t *testing.T) {
			rng := rand.New(rand.NewPCG(13, uint64(v.Variant)))
			forEachGatherCase(rng, func(c gatherCase) {
				want := append([]float64(nil), c.y...)
				ref.AxpyGather(want, c.vals, c.stride, c.slots, c.rows)
				got := append([]float64(nil), c.y...)
				v.AxpyGather(got, c.vals, c.stride, c.slots, c.rows)
				if i := firstBitDiff(got, want); i >= 0 {
					t.Fatalf("%v: y[%d] = %x, generic %x",
						c, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
				}
			})
		})
	}
}

// gatherCase is one AxpyGather input: y, and m terms over repeated rows.
type gatherCase struct {
	k, m, stride int
	special      bool
	y, vals      []float64
	slots        []int32
	rows         [][]float64
}

func (c gatherCase) String() string {
	return fmt.Sprintf("k=%d m=%d stride=%d special=%v", c.k, c.m, c.stride, c.special)
}

// forEachGatherCase calls f on lengths that hit every tile and tail of every
// gather body (the 512-bit body's 128/64/32/8 tiles, the 256-bit body's
// 32/16/8/4 tiles, and their scalar tails), term counts on both sides of a
// pair, repeated slots, strided multipliers, and non-finite and subnormal
// inputs.
func forEachGatherCase(rng *rand.Rand, f func(gatherCase)) {
	ks := []int{1, 3, 4, 5, 8, 16, 31, 32, 33, 63, 64, 65, 96, 127, 128, 130, 192, 200, 256, 512}
	ms := []int{1, 2, 3, 65}
	for _, k := range ks {
		for _, m := range ms {
			for _, special := range []bool{false, true} {
				for _, stride := range []int{1, 2} {
					draw := func() float64 {
						if special && rng.IntN(4) == 0 {
							return gatherValue(rng)
						}
						return 2*rng.Float64() - 1
					}
					c := gatherCase{k: k, m: m, stride: stride, special: special}
					// Fewer rows than terms, so slots repeat.
					c.rows = make([][]float64, max(1, m/2))
					for r := range c.rows {
						c.rows[r] = make([]float64, k)
						for i := range c.rows[r] {
							c.rows[r][i] = draw()
						}
					}
					c.slots = make([]int32, m)
					c.vals = make([]float64, (m-1)*stride+1)
					for j := range c.slots {
						c.slots[j] = int32(rng.IntN(len(c.rows)))
						c.vals[j*stride] = draw()
					}
					c.y = make([]float64, k)
					for i := range c.y {
						c.y[i] = draw()
					}
					f(c)
				}
			}
		}
	}
}

// firstBitDiff returns the first index where got and want differ in their
// bits, or -1.
func firstBitDiff(got, want []float64) int {
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return i
		}
	}
	return -1
}

// The package-level AxpyGather answers through the active set, and a short
// multiplier view panics instead of reading past it.
func TestAxpyGatherDispatchAndBounds(t *testing.T) {
	rows := [][]float64{{1, 2, 3}, {4, 5, 6}}
	y := []float64{1, 1, 1}
	AxpyGather(y, []float64{2, 99, -1}, 2, []int32{1, 0}, rows)
	for i, want := range []float64{1 + 8 - 1, 1 + 10 - 2, 1 + 12 - 3} {
		if y[i] != want {
			t.Fatalf("y[%d] = %v, want %v", i, y[i], want)
		}
	}
	AxpyGather(nil, nil, 2, []int32{0}, rows) // empty y: no work, no check
	AxpyGather(y, nil, 2, nil, rows)          // no terms
	for _, v := range Implementations() {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: vals too short for the slots did not panic", v.Variant)
				}
			}()
			v.AxpyGather(y, []float64{1, 2}, 2, []int32{0, 1}, rows)
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("AxpyGather: vals too short for the slots did not panic")
			}
		}()
		AxpyGather(y, []float64{1, 2}, 2, []int32{0, 1}, rows)
	}()
}

func ExampleAxpyGather() {
	rows := [][]float64{{1, 2}, {10, 20}}
	y := []float64{0.5, 0.5}
	AxpyGather(y, []float64{2, 3, 1}, 1, []int32{0, 1, 0}, rows)
	fmt.Println(y)
	// Output: [33.5 66.5]
}

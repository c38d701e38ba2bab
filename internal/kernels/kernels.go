// Package kernels provides the shared float64 inner-loop kernels of every
// SpMM/matmul hot path in this repository: AXPY-style row updates, fused
// scale-assign, dot products, and the register-tiled multi-source/multi-
// destination variants the panel and stripe paths are built from.
//
// The package is a dispatching layer. At init it detects the host CPU and
// binds each kernel to the best available implementation: hand-written Go
// assembly (AVX2 on amd64, with a 512-bit AxpyGather where AVX-512 is
// usable; NEON on arm64; plus an opt-in FMA variant on amd64) or the pure-Go
// 4-way unrolls that remain the always-available fallback on every
// architecture. Except for the explicitly opt-in FMA variant (SetAllowFMA /
// TWOFACE_ALLOW_FMA), every implementation of a kernel is bit-identical to
// the generic one on every input, so results do not depend on the host or
// its vector width: the assembly mirrors the generic code's exact
// operation order and rounding (separate multiply and add on amd64, fused
// multiply-add on arm64 where the Go compiler itself fuses). SetForceGeneric
// or TWOFACE_FORCE_GENERIC=1 pins the generic implementations for A/B runs.
//
// Length contract: every kernel that takes two or more slices operates on
// the common (minimum) length of its operands, so callers can pass
// full-capacity scratch buffers without trimming. The one exception is
// Scale, which has a single operand and scales the full slice.
package kernels

// Axpy computes y[i] += alpha * x[i] over the common length of x and y.
func Axpy(alpha float64, x, y []float64) {
	n := min(len(x), len(y))
	if n == 0 {
		return
	}
	active.Load().axpy(alpha, x[:n], y[:n])
}

// ScaleTo computes dst[i] = alpha * x[i] (fused scale-assign) over the
// common length of dst and x. Accumulators use it on the first touch of a
// row so scratch buffers never need zeroing.
func ScaleTo(dst []float64, alpha float64, x []float64) {
	n := min(len(dst), len(x))
	if n == 0 {
		return
	}
	active.Load().scaleTo(dst[:n], alpha, x[:n])
}

// AxpyTo computes dst[i] = y[i] + alpha * x[i] (fused scale-add into a
// separate destination) over the common length of the three slices. dst may
// alias x or y exactly (same base and length); partial overlaps are not
// supported.
func AxpyTo(dst []float64, alpha float64, x, y []float64) {
	n := min(len(dst), len(x), len(y))
	if n == 0 {
		return
	}
	active.Load().axpyTo(dst[:n], alpha, x[:n], y[:n])
}

// Add computes dst[i] += x[i] over the common length of x and dst.
func Add(dst, x []float64) {
	n := min(len(dst), len(x))
	if n == 0 {
		return
	}
	active.Load().add(dst[:n], x[:n])
}

// Scale computes x[i] *= alpha in place, over the FULL slice.
//
// Unlike every other kernel in this package, Scale has no second operand
// and therefore no min-length truncation: all len(x) elements are scaled.
// Callers passing a full-capacity scratch buffer must trim it themselves.
// This contract was implicit in the original pure-Go loop; it is documented
// (and tested) so the assembly ports cannot silently diverge on short
// buffers.
func Scale(alpha float64, x []float64) {
	if len(x) == 0 {
		return
	}
	active.Load().scale(alpha, x)
}

// Dot returns the inner product of x and y over their common length, using
// four independent partial sums to break the accumulation dependency chain.
// Every implementation reproduces the generic code's exact grouping — lane
// j accumulates elements j mod 4 and the partials reduce in the fixed order
// ((s0+s1)+s2)+s3 before the sequential remainder — so the result is
// bit-identical across variants (except opt-in FMA).
func Dot(x, y []float64) float64 {
	n := min(len(x), len(y))
	if n == 0 {
		return 0
	}
	return active.Load().dot(x[:n], y[:n])
}

// Axpy2 computes y[i] += a0*x0[i] + a1*x1[i] over the common length of the
// three slices, as two chained multiply-adds per element — bit-identical to
// Axpy(a0, x0, y) followed by Axpy(a1, x1, y), but with the accumulator
// K-tile held in registers across both sources. This is the register-tiled
// panel kernel: processing a row's nonzeros two at a time halves the
// accumulator load/store traffic of the per-nonzero AXPY formulation.
func Axpy2(a0 float64, x0 []float64, a1 float64, x1 []float64, y []float64) {
	n := min(len(x0), len(x1), len(y))
	if n == 0 {
		return
	}
	active.Load().axpy2(a0, x0[:n], a1, x1[:n], y[:n])
}

// AxpyGather computes, for every i < len(y),
//
//	y[i] += vals[0]·rows[slots[0]][i], then vals[stride]·rows[slots[1]][i], …
//
// one term per slot in slot order, each a multiply then an add (one fused
// multiply-add under the FMA opt-in) — bit-identical to the chained calls
// Axpy(vals[j·stride], rows[slots[j]], y) for j = 0…len(slots)−1. This is the
// sync panel kernel: the amd64 bodies hold a tile of y in registers across
// every term (32 elements at 256 bits, 128 at 512), so y is loaded and
// stored once per call
// rather than once per term (Axpy) or per pair of terms (Axpy2). stride lets
// vals view the multipliers inside larger records, read in place.
//
// Unlike the other kernels it does not truncate to a common length: every
// rows[slots[j]] must hold at least len(y) elements and every slot must index
// rows. The assembly bodies trust that (the others panic on a short row);
// vals is checked.
func AxpyGather(y []float64, vals []float64, stride int, slots []int32, rows [][]float64) {
	m := len(slots)
	if len(y) == 0 || m == 0 {
		return
	}
	_ = vals[(m-1)*stride]
	active.Load().gather(y, vals, stride, slots, rows)
}

// AxpyQuad computes yR[i] += aR*x[i] for each of the four destination rows
// y0..y3, over the common length of all five slices — bit-identical to four
// Axpy calls, but with each x K-tile loaded once and spread to all four
// destinations while in registers. This is the multi-row tiled kernel: the
// async stripe path and the dense matmuls use it to update four C rows per
// pass against the same dense source row. The destinations must not alias
// each other.
func AxpyQuad(x []float64, a0 float64, y0 []float64, a1 float64, y1 []float64, a2 float64, y2 []float64, a3 float64, y3 []float64) {
	n := min(len(x), len(y0), len(y1), len(y2), len(y3))
	if n == 0 {
		return
	}
	active.Load().axpyQuad(x[:n], a0, y0[:n], a1, y1[:n], a2, y2[:n], a3, y3[:n])
}

package kernels

// Declarations for the AVX2, FMA and AVX-512 assembly kernels in
// kernels_amd64.s and the slice wrappers that bind them into the dispatch
// table. All assembly entry points take raw base pointers plus an element
// count n >= 1; the wrappers receive equal-length non-empty slices from the
// dispatch layer.
//
// The AVX2 variants use separate VMULPD/VADDPD so every element rounds
// twice, exactly like the generic Go code (the compiler does not fuse on
// the amd64 v1 baseline) — results are bit-identical to generic. The FMA
// variants (VFMADD231PD) round once per multiply-add and are only reachable
// through the explicit AllowFMA opt-in. ScaleTo/Add/Scale have no
// multiply-add to fuse, so the FMA implementation set reuses their AVX2
// bodies. The AVX512 set is the AVX2 set with one 512-bit body, AxpyGather:
// it is the sync-panel kernel and the only one hot on any workload, so no
// other kernel has a 512-bit form.

//go:noescape
func axpyAVX2(alpha float64, x, y *float64, n int)

//go:noescape
func axpyFMA(alpha float64, x, y *float64, n int)

//go:noescape
func axpyToAVX2(dst *float64, alpha float64, x, y *float64, n int)

//go:noescape
func axpyToFMA(dst *float64, alpha float64, x, y *float64, n int)

//go:noescape
func scaleToAVX2(dst *float64, alpha float64, x *float64, n int)

//go:noescape
func addAVX2(dst, x *float64, n int)

//go:noescape
func scaleAVX2(alpha float64, x *float64, n int)

//go:noescape
func dotAVX2(x, y *float64, n int) float64

//go:noescape
func dotFMA(x, y *float64, n int) float64

//go:noescape
func axpy2AVX2(a0 float64, x0 *float64, a1 float64, x1 *float64, y *float64, n int)

//go:noescape
func axpy2FMA(a0 float64, x0 *float64, a1 float64, x1 *float64, y *float64, n int)

//go:noescape
func axpyQuadAVX2(x *float64, a0 float64, y0 *float64, a1 float64, y1 *float64, a2 float64, y2 *float64, a3 float64, y3 *float64, n int)

//go:noescape
func axpyQuadFMA(x *float64, a0 float64, y0 *float64, a1 float64, y1 *float64, a2 float64, y2 *float64, a3 float64, y3 *float64, n int)

//go:noescape
func axpyGatherAVX2(y *float64, n int, vals *float64, stride int, slots *int32, m int, rows *[]float64)

//go:noescape
func axpyGatherAVX512(y *float64, n int, vals *float64, stride int, slots *int32, m int, rows *[]float64)

//go:noescape
func axpyGatherFMA(y *float64, n int, vals *float64, stride int, slots *int32, m int, rows *[]float64)

var avx2Impl = impl{
	variant: VariantAVX2,
	axpy: func(alpha float64, x, y []float64) {
		axpyAVX2(alpha, &x[0], &y[0], len(x))
	},
	axpyTo: func(dst []float64, alpha float64, x, y []float64) {
		axpyToAVX2(&dst[0], alpha, &x[0], &y[0], len(x))
	},
	scaleTo: func(dst []float64, alpha float64, x []float64) {
		scaleToAVX2(&dst[0], alpha, &x[0], len(x))
	},
	add: func(dst, x []float64) {
		addAVX2(&dst[0], &x[0], len(x))
	},
	scale: func(alpha float64, x []float64) {
		scaleAVX2(alpha, &x[0], len(x))
	},
	dot: func(x, y []float64) float64 {
		return dotAVX2(&x[0], &y[0], len(x))
	},
	axpy2: func(a0 float64, x0 []float64, a1 float64, x1 []float64, y []float64) {
		axpy2AVX2(a0, &x0[0], a1, &x1[0], &y[0], len(y))
	},
	axpyQuad: func(x []float64, a0 float64, y0 []float64, a1 float64, y1 []float64, a2 float64, y2 []float64, a3 float64, y3 []float64) {
		axpyQuadAVX2(&x[0], a0, &y0[0], a1, &y1[0], a2, &y2[0], a3, &y3[0], len(x))
	},
	axpyGather: func(y, vals []float64, stride int, slots []int32, rows [][]float64) {
		axpyGatherAVX2(&y[0], len(y), &vals[0], stride, &slots[0], len(slots), &rows[0])
	},
}

var avx512Impl = func() impl {
	t := avx2Impl
	t.variant = VariantAVX512
	t.axpyGather = func(y, vals []float64, stride int, slots []int32, rows [][]float64) {
		axpyGatherAVX512(&y[0], len(y), &vals[0], stride, &slots[0], len(slots), &rows[0])
	}
	return t
}()

var fmaImpl = impl{
	variant: VariantAVX2FMA,
	axpy: func(alpha float64, x, y []float64) {
		axpyFMA(alpha, &x[0], &y[0], len(x))
	},
	axpyTo: func(dst []float64, alpha float64, x, y []float64) {
		axpyToFMA(&dst[0], alpha, &x[0], &y[0], len(x))
	},
	scaleTo: avx2Impl.scaleTo,
	add:     avx2Impl.add,
	scale:   avx2Impl.scale,
	dot: func(x, y []float64) float64 {
		return dotFMA(&x[0], &y[0], len(x))
	},
	axpy2: func(a0 float64, x0 []float64, a1 float64, x1 []float64, y []float64) {
		axpy2FMA(a0, &x0[0], a1, &x1[0], &y[0], len(y))
	},
	axpyQuad: func(x []float64, a0 float64, y0 []float64, a1 float64, y1 []float64, a2 float64, y2 []float64, a3 float64, y3 []float64) {
		axpyQuadFMA(&x[0], a0, &y0[0], a1, &y1[0], a2, &y2[0], a3, &y3[0], len(x))
	},
	axpyGather: func(y, vals []float64, stride int, slots []int32, rows [][]float64) {
		axpyGatherFMA(&y[0], len(y), &vals[0], stride, &slots[0], len(slots), &rows[0])
	},
}

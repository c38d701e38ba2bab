package kernels

// Pure-Go kernel implementations: 4-way unrolled with bounds checks hoisted
// by re-slicing, the standard construction (cf. gonum's f64 fallbacks).
// These are the always-available dispatch fallback and the bit-exactness
// reference for every assembly port. All impl-level functions receive
// equal-length, non-empty slices (the public wrappers trim).
//
// Rounding note for porters: on amd64 the Go compiler emits a separate
// multiply and add for `y += a*x` (the v1 baseline has no FMA), so the AVX2
// ports use separate VMULPD/VADDPD. On arm64 the compiler fuses the same
// expression into FMADDD, so the NEON ports use FMLA. Either way the
// assembly reproduces the generic code's exact per-element rounding.

var genericImpl = impl{
	variant:  VariantGeneric,
	axpy:     axpyGeneric,
	axpyTo:   axpyToGeneric,
	scaleTo:  scaleToGeneric,
	add:      addGeneric,
	scale:    scaleGeneric,
	dot:      dotGeneric,
	axpy2:    axpy2Generic,
	axpyQuad: axpyQuadGeneric,
}

func axpyGeneric(alpha float64, x, y []float64) {
	n := len(x)
	x, y = x[:n:n], y[:n:n]
	for len(x) >= 4 {
		y[0] += alpha * x[0]
		y[1] += alpha * x[1]
		y[2] += alpha * x[2]
		y[3] += alpha * x[3]
		x, y = x[4:], y[4:]
	}
	for i, v := range x {
		y[i] += alpha * v
	}
}

func scaleToGeneric(dst []float64, alpha float64, x []float64) {
	n := len(x)
	x, dst = x[:n:n], dst[:n:n]
	for len(x) >= 4 {
		dst[0] = alpha * x[0]
		dst[1] = alpha * x[1]
		dst[2] = alpha * x[2]
		dst[3] = alpha * x[3]
		x, dst = x[4:], dst[4:]
	}
	for i, v := range x {
		dst[i] = alpha * v
	}
}

func axpyToGeneric(dst []float64, alpha float64, x, y []float64) {
	n := len(x)
	x, y, dst = x[:n:n], y[:n:n], dst[:n:n]
	for len(x) >= 4 {
		dst[0] = y[0] + alpha*x[0]
		dst[1] = y[1] + alpha*x[1]
		dst[2] = y[2] + alpha*x[2]
		dst[3] = y[3] + alpha*x[3]
		x, y, dst = x[4:], y[4:], dst[4:]
	}
	for i, v := range x {
		dst[i] = y[i] + alpha*v
	}
}

func addGeneric(dst, x []float64) {
	n := len(x)
	x, dst = x[:n:n], dst[:n:n]
	for len(x) >= 4 {
		dst[0] += x[0]
		dst[1] += x[1]
		dst[2] += x[2]
		dst[3] += x[3]
		x, dst = x[4:], dst[4:]
	}
	for i, v := range x {
		dst[i] += v
	}
}

func scaleGeneric(alpha float64, x []float64) {
	for len(x) >= 4 {
		x[0] *= alpha
		x[1] *= alpha
		x[2] *= alpha
		x[3] *= alpha
		x = x[4:]
	}
	for i := range x {
		x[i] *= alpha
	}
}

func dotGeneric(x, y []float64) float64 {
	n := len(x)
	x, y = x[:n:n], y[:n:n]
	var s0, s1, s2, s3 float64
	for len(x) >= 4 {
		s0 += x[0] * y[0]
		s1 += x[1] * y[1]
		s2 += x[2] * y[2]
		s3 += x[3] * y[3]
		x, y = x[4:], y[4:]
	}
	s := s0 + s1 + s2 + s3
	for i, v := range x {
		s += v * y[i]
	}
	return s
}

// axpy2Generic chains the two multiply-adds per element exactly as two
// sequential Axpy calls would round them. Each term is axpyGeneric's own
// statement, so the compiler orders every add's operands as it does there
// and the same NaN payload survives when two NaNs meet.
func axpy2Generic(a0 float64, x0 []float64, a1 float64, x1 []float64, y []float64) {
	n := len(y)
	x0, x1, y = x0[:n:n], x1[:n:n], y[:n:n]
	for i, v := range x0 {
		y[i] += a0 * v
		y[i] += a1 * x1[i]
	}
}

// axpyQuadGeneric updates the four destinations per element exactly as four
// sequential Axpy calls would (the destinations are independent, so the
// interleaving cannot change any result bit).
func axpyQuadGeneric(x []float64, a0 float64, y0 []float64, a1 float64, y1 []float64, a2 float64, y2 []float64, a3 float64, y3 []float64) {
	n := len(x)
	x = x[:n:n]
	y0, y1, y2, y3 = y0[:n:n], y1[:n:n], y2[:n:n], y3[:n:n]
	for i, v := range x {
		y0[i] += a0 * v
		y1[i] += a1 * v
		y2[i] += a2 * v
		y3[i] += a3 * v
	}
}

package kernels

import (
	"os"
	"sync"
	"sync/atomic"
)

// Variant identifies one kernel implementation set.
type Variant uint8

const (
	// VariantGeneric is the pure-Go fallback, available everywhere.
	VariantGeneric Variant = iota
	// VariantAVX2 is the amd64 AVX2 assembly (separate multiply and add,
	// bit-identical to generic).
	VariantAVX2
	// VariantAVX2FMA is the amd64 FMA assembly (fused multiply-add, one
	// rounding per element instead of two; opt-in only).
	VariantAVX2FMA
	// VariantNEON is the arm64 NEON assembly (FMLA, bit-identical to the
	// generic code the Go compiler fuses on arm64).
	VariantNEON
	// VariantAVX512 is the AVX2 set with a 512-bit AxpyGather (separate
	// multiply and add, bit-identical to generic).
	VariantAVX512
)

// String returns the variant's short name as used in benchmarks and reports.
func (v Variant) String() string {
	switch v {
	case VariantAVX2:
		return "avx2"
	case VariantAVX2FMA:
		return "avx2+fma"
	case VariantNEON:
		return "neon"
	case VariantAVX512:
		return "avx512"
	}
	return "generic"
}

// impl is one complete implementation set. All functions receive
// equal-length, non-empty slices: the public wrappers in kernels.go trim to
// the common length and drop empty calls before dispatching.
type impl struct {
	variant  Variant
	axpy     func(alpha float64, x, y []float64)
	axpyTo   func(dst []float64, alpha float64, x, y []float64)
	scaleTo  func(dst []float64, alpha float64, x []float64)
	add      func(dst, x []float64)
	scale    func(alpha float64, x []float64)
	dot      func(x, y []float64) float64
	axpy2    func(a0 float64, x0 []float64, a1 float64, x1 []float64, y []float64)
	axpyQuad func(x []float64, a0 float64, y0 []float64, a1 float64, y1 []float64, a2 float64, y2 []float64, a3 float64, y3 []float64)
	// axpyGather is nil in sets without a gather body of their own; gather
	// then falls back to gatherPairs.
	axpyGather func(y, vals []float64, stride int, slots []int32, rows [][]float64)
}

// gather runs the set's AxpyGather body on a non-empty y and slots.
func (t *impl) gather(y, vals []float64, stride int, slots []int32, rows [][]float64) {
	if t.axpyGather == nil {
		gatherPairs(t, y, vals, stride, slots, rows)
		return
	}
	t.axpyGather(y, vals, stride, slots, rows)
}

// gatherPairs is AxpyGather for sets without a gather body: the terms go
// through axpy2 two at a time and an odd last one through axpy, which round
// like the chained calls. The generic and NEON sets use it — NEON has no
// gather assembly, and the generic set's stores must stay Go code the race
// detector sees.
func gatherPairs(t *impl, y, vals []float64, stride int, slots []int32, rows [][]float64) {
	n := len(y)
	j := 0
	for ; j+1 < len(slots); j += 2 {
		t.axpy2(vals[j*stride], rows[slots[j]][:n], vals[(j+1)*stride], rows[slots[j+1]][:n], y)
	}
	if j < len(slots) {
		t.axpy(vals[j*stride], rows[slots[j]][:n], y)
	}
}

// active is the currently bound implementation set. It is read with one
// atomic load per kernel call and swapped whole on rebinds, so toggling
// ForceGeneric/AllowFMA is race-free even with kernels in flight.
var active atomic.Pointer[impl]

var (
	dispatchMu   sync.Mutex
	forceGeneric bool
	allowFMA     bool
)

func init() {
	forceGeneric = envTrue("TWOFACE_FORCE_GENERIC")
	allowFMA = envTrue("TWOFACE_ALLOW_FMA")
	rebind()
}

func envTrue(name string) bool {
	switch os.Getenv(name) {
	case "", "0", "false", "no", "off":
		return false
	}
	return true
}

// rebind picks the best implementation under the current flags. Callers
// hold dispatchMu (or are in init, which runs before any concurrent use).
func rebind() {
	t := &genericImpl
	if !forceGeneric {
		if a := archImpl(allowFMA); a != nil {
			t = a
		}
	}
	active.Store(t)
}

// Active returns the variant currently answering kernel calls.
func Active() Variant { return active.Load().variant }

// SetForceGeneric pins (or unpins) the pure-Go kernels, overriding CPU
// detection. The TWOFACE_FORCE_GENERIC environment variable sets the
// initial state. Safe to call at any time; in-flight kernel calls finish on
// the implementation they started with.
func SetForceGeneric(on bool) {
	dispatchMu.Lock()
	forceGeneric = on
	rebind()
	dispatchMu.Unlock()
}

// GenericForced reports whether the generic kernels are currently pinned.
func GenericForced() bool {
	dispatchMu.Lock()
	defer dispatchMu.Unlock()
	return forceGeneric
}

// SetAllowFMA opts in (or out of) the fused multiply-add kernels on hosts
// that have them. FMA rounds once per multiply-add instead of twice, so
// results drift from the generic kernels by up to one ulp per operation;
// the default therefore stays off, keeping runs bit-exact across hosts.
// The TWOFACE_ALLOW_FMA environment variable sets the initial state.
func SetAllowFMA(on bool) {
	dispatchMu.Lock()
	allowFMA = on
	rebind()
	dispatchMu.Unlock()
}

// FMAAllowed reports whether FMA kernels may be selected.
func FMAAllowed() bool {
	dispatchMu.Lock()
	defer dispatchMu.Unlock()
	return allowFMA
}

// Impl is one implementation set exposed for per-variant benchmarks and
// exactness tests. The function fields apply the same public length
// contracts as the package-level kernels.
type Impl struct {
	Variant    Variant
	Axpy       func(alpha float64, x, y []float64)
	AxpyTo     func(dst []float64, alpha float64, x, y []float64)
	ScaleTo    func(dst []float64, alpha float64, x []float64)
	Add        func(dst, x []float64)
	Scale      func(alpha float64, x []float64)
	Dot        func(x, y []float64) float64
	Axpy2      func(a0 float64, x0 []float64, a1 float64, x1 []float64, y []float64)
	AxpyQuad   func(x []float64, a0 float64, y0 []float64, a1 float64, y1 []float64, a2 float64, y2 []float64, a3 float64, y3 []float64)
	AxpyGather func(y, vals []float64, stride int, slots []int32, rows [][]float64)
}

// Implementations returns every implementation set available on this host,
// generic first, regardless of the ForceGeneric/AllowFMA state. Benchmarks
// use it to measure variants side by side without flipping global dispatch.
func Implementations() []Impl {
	impls := []*impl{&genericImpl}
	impls = append(impls, archImpls()...)
	out := make([]Impl, len(impls))
	for i, t := range impls {
		out[i] = exportImpl(t)
	}
	return out
}

func exportImpl(t *impl) Impl {
	return Impl{
		Variant: t.variant,
		Axpy: func(alpha float64, x, y []float64) {
			if n := min(len(x), len(y)); n > 0 {
				t.axpy(alpha, x[:n], y[:n])
			}
		},
		AxpyTo: func(dst []float64, alpha float64, x, y []float64) {
			if n := min(len(dst), len(x), len(y)); n > 0 {
				t.axpyTo(dst[:n], alpha, x[:n], y[:n])
			}
		},
		ScaleTo: func(dst []float64, alpha float64, x []float64) {
			if n := min(len(dst), len(x)); n > 0 {
				t.scaleTo(dst[:n], alpha, x[:n])
			}
		},
		Add: func(dst, x []float64) {
			if n := min(len(dst), len(x)); n > 0 {
				t.add(dst[:n], x[:n])
			}
		},
		Scale: func(alpha float64, x []float64) {
			if len(x) > 0 {
				t.scale(alpha, x)
			}
		},
		Dot: func(x, y []float64) float64 {
			n := min(len(x), len(y))
			if n == 0 {
				return 0
			}
			return t.dot(x[:n], y[:n])
		},
		Axpy2: func(a0 float64, x0 []float64, a1 float64, x1 []float64, y []float64) {
			if n := min(len(x0), len(x1), len(y)); n > 0 {
				t.axpy2(a0, x0[:n], a1, x1[:n], y[:n])
			}
		},
		AxpyQuad: func(x []float64, a0 float64, y0 []float64, a1 float64, y1 []float64, a2 float64, y2 []float64, a3 float64, y3 []float64) {
			if n := min(len(x), len(y0), len(y1), len(y2), len(y3)); n > 0 {
				t.axpyQuad(x[:n], a0, y0[:n], a1, y1[:n], a2, y2[:n], a3, y3[:n])
			}
		},
		AxpyGather: func(y, vals []float64, stride int, slots []int32, rows [][]float64) {
			if m := len(slots); len(y) > 0 && m > 0 {
				_ = vals[(m-1)*stride]
				t.gather(y, vals, stride, slots, rows)
			}
		},
	}
}

// Package atomicfloat provides lock-free accumulation of float64 values,
// which the SpMM kernels use to add partial results into shared rows of the
// output matrix C from many goroutines at once (paper Algorithms 2 and 3:
// "Atomics are required ... because some threads operating on asynchronous
// stripes may also be writing to the same rows of C").
//
// Go's sync/atomic has no floating-point operations, so values are stored as
// their IEEE-754 bit patterns in uint64 words and updated with compare-and-
// swap loops. This is the standard portable construction and is linearizable:
// each successful CAS applies exactly one addend.
package atomicfloat

import (
	"math"
	"sync/atomic"
	"unsafe"
)

// Add atomically performs *addr += delta, where *addr holds the bit pattern
// of a float64.
func Add(addr *uint64, delta float64) {
	for {
		old := atomic.LoadUint64(addr)
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if atomic.CompareAndSwapUint64(addr, old, next) {
			return
		}
	}
}

// Load atomically reads the float64 stored at addr.
func Load(addr *uint64) float64 {
	return math.Float64frombits(atomic.LoadUint64(addr))
}

// Store atomically writes v to addr.
func Store(addr *uint64, v float64) {
	atomic.StoreUint64(addr, math.Float64bits(v))
}

// Slice is a fixed-length vector of atomically updatable float64 values.
type Slice struct {
	bits []uint64
}

// View returns an atomic vector over f's own storage: every update through
// the Slice is an update of f, with no second buffer and no copy-out.
// float64 and uint64 share size and alignment, so the reinterpretation is
// exact. An element may be accessed through the view and through f directly,
// but not both concurrently — the plain access would race with the CAS.
func View(f []float64) *Slice {
	return &Slice{bits: unsafe.Slice((*uint64)(unsafe.Pointer(unsafe.SliceData(f))), len(f))}
}

// Len returns the vector length.
func (s *Slice) Len() int { return len(s.bits) }

// Add atomically performs s[i] += v.
func (s *Slice) Add(i int, v float64) { Add(&s.bits[i], v) }

// AddRange atomically accumulates vals into s[off : off+len(vals)],
// element-wise. Each element is updated independently; the range as a whole
// is not one atomic unit (matching the per-element semantics of the paper's
// AtomicAdd over an output row).
func (s *Slice) AddRange(off int, vals []float64) {
	for i, v := range vals {
		if v != 0 {
			Add(&s.bits[off+i], v)
		}
	}
}

// Load atomically reads s[i].
func (s *Slice) Load(i int) float64 { return Load(&s.bits[i]) }

// Store atomically writes s[i] = v.
func (s *Slice) Store(i int, v float64) { Store(&s.bits[i], v) }

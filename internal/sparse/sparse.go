// Package sparse provides the sparse-matrix formats, reference SpMM kernels,
// and file I/O that every distributed algorithm in this repository builds on.
//
// The central type is COO, a coordinate-format list of nonzeros. The
// distributed algorithms reorder COO entries into the paper's modified-COO
// layouts (row-major row panels for synchronous work, column-major stripes
// for asynchronous work); CSR is provided for the bulk local kernels used by
// the sparsity-unaware baselines.
//
// Row and column indices are int32: the paper's largest matrix (friendster)
// has 65.6M rows, comfortably within range, and 12-byte nonzeros keep the
// memory footprint of billion-edge matrices tractable.
package sparse

import (
	"fmt"
	"math/bits"
	"slices"
)

// NZ is a single nonzero element of a sparse matrix.
type NZ struct {
	Row int32
	Col int32
	Val float64
}

// COO is a sparse matrix in coordinate format. Entries may be in any order
// unless a function documents an ordering requirement.
type COO struct {
	NumRows int32
	NumCols int32
	Entries []NZ
}

// NewCOO returns an empty matrix with the given shape and capacity hint.
func NewCOO(rows, cols int32, capHint int) *COO {
	return &COO{NumRows: rows, NumCols: cols, Entries: make([]NZ, 0, capHint)}
}

// NNZ returns the number of stored entries.
func (m *COO) NNZ() int { return len(m.Entries) }

// Append adds a nonzero without validation. Call Validate before relying on
// index bounds.
func (m *COO) Append(row, col int32, val float64) {
	m.Entries = append(m.Entries, NZ{Row: row, Col: col, Val: val})
}

// Validate checks that every entry is inside the matrix bounds.
func (m *COO) Validate() error {
	if m.NumRows < 0 || m.NumCols < 0 {
		return fmt.Errorf("sparse: negative shape %dx%d", m.NumRows, m.NumCols)
	}
	for i, e := range m.Entries {
		if e.Row < 0 || e.Row >= m.NumRows || e.Col < 0 || e.Col >= m.NumCols {
			return fmt.Errorf("sparse: entry %d at (%d,%d) outside %dx%d", i, e.Row, e.Col, m.NumRows, m.NumCols)
		}
	}
	return nil
}

// Clone returns a deep copy.
func (m *COO) Clone() *COO {
	out := &COO{NumRows: m.NumRows, NumCols: m.NumCols, Entries: make([]NZ, len(m.Entries))}
	copy(out.Entries, m.Entries)
	return out
}

// SortRowMajor sorts entries by (row, col) ascending. The sort is stable:
// entries with equal coordinates keep their order. It is a counting sort on
// the column, then a stable counting sort on the row, so it runs in
// O(nnz + NumRows + NumCols) time. Every entry must lie inside the matrix
// (see Validate).
func (m *COO) SortRowMajor() { m.sortStable(false) }

// SortColMajor sorts entries by (col, row) ascending, stably, with the same
// cost and precondition as SortRowMajor: a counting sort on the row, then
// one on the column.
func (m *COO) SortColMajor() { m.sortStable(true) }

// IsSortedRowMajor reports whether entries are ordered by (row, col).
func (m *COO) IsSortedRowMajor() bool {
	for i := 1; i < len(m.Entries); i++ {
		a, b := m.Entries[i-1], m.Entries[i]
		if a.Row > b.Row || (a.Row == b.Row && a.Col > b.Col) {
			return false
		}
	}
	return true
}

// sortStable is a least-significant-digit radix sort of the entries by
// (major, minor) key, where the major key is the column when colMajor is set
// and the row otherwise: one stable counting pass on the minor key, then one
// on the major key, ping-ponging through one temporary slice. A key the
// entries already ascend in needs no pass (a stable pass would be the
// identity), so input sorted on either key costs one pass. A pass's count
// array spans the key's range (NumRows or NumCols). Only a matrix whose
// shape dwarfs its entry count splits a key into several narrower digits,
// which keeps the count array within max(2^16, 2·nnz).
func (m *COO) sortStable(colMajor bool) {
	n := len(m.Entries)
	if n < 2 {
		return
	}
	var dst []NZ
	src := m.Entries
	limit := max(1<<16, 2*n)
	var count []int
	for _, byCol := range [2]bool{!colMajor, colMajor} {
		span := int(m.NumRows)
		if byCol {
			span = int(m.NumCols)
		}
		if span < 2 || ascending(src, byCol) {
			continue
		}
		if dst == nil {
			dst = make([]NZ, n)
		}
		keyBits := bits.Len(uint(span - 1))
		digitBits := keyBits
		if span > limit {
			digitBits = bits.Len(uint(limit)) - 1
		}
		for shift := 0; shift < keyBits; shift += digitBits {
			size := min(1<<digitBits, (span-1)>>shift+1)
			count = slices.Grow(count[:0], size)[:size]
			countingPass(dst, src, count, byCol, uint(shift), uint32(1)<<digitBits-1)
			src, dst = dst, src
		}
	}
	if &src[0] != &m.Entries[0] {
		copy(m.Entries, src)
	}
}

// countingPass stably scatters src into dst by the digit (key>>shift)&mask
// of each entry's column (byCol) or row. len(count) must exceed every digit.
func countingPass(dst, src []NZ, count []int, byCol bool, shift uint, mask uint32) {
	clear(count)
	for i := range src {
		count[src[i].digit(byCol, shift, mask)]++
	}
	sum := 0
	for d, c := range count {
		count[d] = sum
		sum += c
	}
	for i := range src {
		d := src[i].digit(byCol, shift, mask)
		dst[count[d]] = src[i]
		count[d]++
	}
}

// ascending reports whether the entries' columns (byCol) or rows never
// decrease.
func ascending(es []NZ, byCol bool) bool {
	for i := 1; i < len(es); i++ {
		if es[i].key(byCol) < es[i-1].key(byCol) {
			return false
		}
	}
	return true
}

func (e *NZ) key(byCol bool) int32 {
	if byCol {
		return e.Col
	}
	return e.Row
}

func (e *NZ) digit(byCol bool, shift uint, mask uint32) uint32 {
	return uint32(e.key(byCol)) >> shift & mask
}

// Dedup sums duplicate (row, col) entries in place and leaves the entries
// row-major sorted. Because the sort is stable, the duplicates of one
// coordinate are summed in insertion order, left to right: the result is a
// deterministic function of the entry sequence. Entries whose sum is
// exactly zero are kept (structural nonzeros). Every entry must lie inside
// the matrix (see Validate).
func (m *COO) Dedup() {
	if len(m.Entries) == 0 {
		return
	}
	m.SortRowMajor()
	out := m.Entries[:1]
	for _, e := range m.Entries[1:] {
		last := &out[len(out)-1]
		if e.Row == last.Row && e.Col == last.Col {
			last.Val += e.Val
		} else {
			out = append(out, e)
		}
	}
	m.Entries = out
}

// Transpose returns a new matrix with rows and columns swapped.
func (m *COO) Transpose() *COO {
	out := &COO{NumRows: m.NumCols, NumCols: m.NumRows, Entries: make([]NZ, len(m.Entries))}
	for i, e := range m.Entries {
		out.Entries[i] = NZ{Row: e.Col, Col: e.Row, Val: e.Val}
	}
	return out
}

// RowSlice returns the sub-matrix restricted to global rows [lo, hi), with
// rows re-indexed to start at zero. Column indices are unchanged. Entries
// must not be assumed sorted.
func (m *COO) RowSlice(lo, hi int32) *COO {
	out := NewCOO(hi-lo, m.NumCols, 0)
	for _, e := range m.Entries {
		if e.Row >= lo && e.Row < hi {
			out.Entries = append(out.Entries, NZ{Row: e.Row - lo, Col: e.Col, Val: e.Val})
		}
	}
	return out
}

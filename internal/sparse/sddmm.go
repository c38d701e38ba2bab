package sparse

import (
	"fmt"

	"twoface/internal/dense"
)

// SDDMM computes the sampled dense-dense matrix multiplication
// C_ij = A_ij * dot(X[i,:], Y[j,:]) for every stored entry (i,j) of A,
// returning C with A's sparsity structure (paper section 9: SDDMM "exhibits
// very similar patterns to SpMM" — reads of X are row-local and reads of Y
// follow A's column structure, exactly like SpMM's reads of B).
//
// X must have NumRows rows, Y must have NumCols rows, and both must share a
// column count K. This sequential kernel is the reference the distributed
// implementation is checked against.
func (m *COO) SDDMM(x, y *dense.Matrix) (*COO, error) {
	if x.Rows != int(m.NumRows) || y.Rows != int(m.NumCols) || x.Cols != y.Cols {
		return nil, fmt.Errorf("sparse: SDDMM shapes: A %dx%d, X %dx%d, Y %dx%d",
			m.NumRows, m.NumCols, x.Rows, x.Cols, y.Rows, y.Cols)
	}
	out := &COO{NumRows: m.NumRows, NumCols: m.NumCols, Entries: make([]NZ, len(m.Entries))}
	for i, e := range m.Entries {
		out.Entries[i] = NZ{Row: e.Row, Col: e.Col, Val: e.Val * Dot(x.Row(int(e.Row)), y.Row(int(e.Col)))}
	}
	return out, nil
}

// Dot is the scalar dot product of a and b[:len(a)], summed left to right.
// The distributed SDDMM calls it too, so its values match SDDMM's bit for
// bit.
func Dot(a, b []float64) float64 {
	var s float64
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

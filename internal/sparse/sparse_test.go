package sparse

import (
	"cmp"
	"math/rand/v2"
	"slices"
	"testing"
	"testing/quick"
)

func randomCOO(rows, cols int32, nnz int, seed uint64) *COO {
	rng := rand.New(rand.NewPCG(seed, seed+1))
	m := NewCOO(rows, cols, nnz)
	for i := 0; i < nnz; i++ {
		m.Append(rng.Int32N(rows), rng.Int32N(cols), rng.Float64()*2-1)
	}
	return m
}

func TestValidate(t *testing.T) {
	m := NewCOO(3, 3, 1)
	m.Append(1, 2, 1)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	m.Append(3, 0, 1)
	if err := m.Validate(); err == nil {
		t.Fatal("out-of-range row should fail Validate")
	}
	bad := &COO{NumRows: -1}
	if err := bad.Validate(); err == nil {
		t.Fatal("negative shape should fail Validate")
	}
}

func TestSortRowMajor(t *testing.T) {
	m := randomCOO(50, 50, 500, 1)
	m.SortRowMajor()
	if !m.IsSortedRowMajor() {
		t.Fatal("not sorted row-major after SortRowMajor")
	}
	for i := 1; i < len(m.Entries); i++ {
		a, b := m.Entries[i-1], m.Entries[i]
		if a.Row > b.Row || (a.Row == b.Row && a.Col > b.Col) {
			t.Fatal("ordering violated")
		}
	}
}

func TestSortColMajor(t *testing.T) {
	m := randomCOO(50, 50, 500, 2)
	m.SortColMajor()
	for i := 1; i < len(m.Entries); i++ {
		a, b := m.Entries[i-1], m.Entries[i]
		if a.Col > b.Col || (a.Col == b.Col && a.Row > b.Row) {
			t.Fatal("ordering violated")
		}
	}
}

func TestDedupSums(t *testing.T) {
	m := NewCOO(4, 4, 4)
	m.Append(1, 1, 2)
	m.Append(1, 1, 3)
	m.Append(0, 2, 1)
	m.Append(1, 1, -1)
	m.Dedup()
	if len(m.Entries) != 2 {
		t.Fatalf("Dedup left %d entries, want 2", len(m.Entries))
	}
	m.SortRowMajor()
	if m.Entries[1].Row != 1 || m.Entries[1].Col != 1 || m.Entries[1].Val != 4 {
		t.Fatalf("Dedup sum wrong: %+v", m.Entries[1])
	}
}

// dupHeavyCOO draws nnz entries from a quarter of the rows and a third of
// the columns of a rows x cols matrix (so most rows and columns stay empty
// and most coordinates repeat), with each value set to its entry index.
func dupHeavyCOO(rows, cols int32, nnz int, seed uint64) *COO {
	rng := rand.New(rand.NewPCG(seed, seed+1))
	m := NewCOO(rows, cols, nnz)
	pick := func(n int32, every int32) int32 {
		if n <= every {
			return rng.Int32N(n)
		}
		return rng.Int32N((n+every-1)/every) * every
	}
	for i := 0; i < nnz; i++ {
		m.Append(pick(rows, 4), pick(cols, 3), float64(i))
	}
	return m
}

// The counting sorts must order exactly like a stable comparison sort, on
// shapes that exercise one pass per key, a skipped pass (one row or one
// column) and the multi-digit passes of a huge, nearly empty matrix.
func TestSortsMatchStableSort(t *testing.T) {
	rowMajor := func(a, b NZ) int {
		if a.Row != b.Row {
			return cmp.Compare(a.Row, b.Row)
		}
		return cmp.Compare(a.Col, b.Col)
	}
	colMajor := func(a, b NZ) int {
		if a.Col != b.Col {
			return cmp.Compare(a.Col, b.Col)
		}
		return cmp.Compare(a.Row, b.Row)
	}
	shapes := []struct{ rows, cols int32 }{
		{300, 200}, {1, 5000}, {5000, 1}, {1, 1}, {40_000, 70_000}, {1 << 20, 1 << 30},
	}
	for i, s := range shapes {
		random := dupHeavyCOO(s.rows, s.cols, 20_000, uint64(i))
		// Input already ordered by one key skips that key's pass.
		byRow, byCol := random.Clone(), random.Clone()
		slices.SortStableFunc(byRow.Entries, func(a, b NZ) int { return cmp.Compare(a.Row, b.Row) })
		slices.SortStableFunc(byCol.Entries, func(a, b NZ) int { return cmp.Compare(a.Col, b.Col) })
		for _, m := range []*COO{random, byRow, byCol} {
			for _, c := range []struct {
				name string
				sort func(*COO)
				cmp  func(a, b NZ) int
			}{{"Row", (*COO).SortRowMajor, rowMajor}, {"Col", (*COO).SortColMajor, colMajor}} {
				got := m.Clone()
				c.sort(got)
				want := slices.Clone(m.Entries)
				slices.SortStableFunc(want, c.cmp)
				if !slices.Equal(got.Entries, want) {
					t.Fatalf("%dx%d: Sort%sMajor differs from a stable sort", s.rows, s.cols, c.name)
				}
			}
		}
	}
}

// Dedup sums each coordinate's duplicates in insertion order. The
// 1e16, 1, -1e16 triple sums to a different value in any other order.
func TestDedupSumsInInsertionOrder(t *testing.T) {
	for i, s := range []struct{ rows, cols int32 }{{300, 200}, {1, 5000}, {5000, 1}, {1 << 20, 1 << 30}} {
		m := dupHeavyCOO(s.rows, s.cols, 20_000, uint64(10+i))
		rng := rand.New(rand.NewPCG(uint64(i), 99))
		for j := range m.Entries {
			m.Entries[j].Val = rng.NormFloat64()
		}
		for j, v := range []float64{1e16, 1, -1e16} {
			m.Entries = slices.Insert(m.Entries, 5000*(j+1), NZ{Row: 0, Col: 0, Val: v})
		}
		type key struct{ r, c int32 }
		sums := map[key]float64{}
		var keys []key
		for _, e := range m.Entries {
			k := key{e.Row, e.Col}
			if _, ok := sums[k]; !ok {
				keys = append(keys, k)
			}
			sums[k] += e.Val
		}
		slices.SortFunc(keys, func(a, b key) int {
			if a.r != b.r {
				return cmp.Compare(a.r, b.r)
			}
			return cmp.Compare(a.c, b.c)
		})
		m.Dedup()
		if len(m.Entries) != len(keys) {
			t.Fatalf("%dx%d: Dedup left %d entries, want %d", s.rows, s.cols, len(m.Entries), len(keys))
		}
		for j, e := range m.Entries {
			k := keys[j]
			if e.Row != k.r || e.Col != k.c || e.Val != sums[k] {
				t.Fatalf("%dx%d: entry %d = %+v, want (%d,%d) %v", s.rows, s.cols, j, e, k.r, k.c, sums[k])
			}
		}
	}
}

func TestDedupEmpty(t *testing.T) {
	m := NewCOO(4, 4, 0)
	m.Dedup() // must not panic
	if len(m.Entries) != 0 {
		t.Fatal("empty Dedup should stay empty")
	}
}

func TestTranspose(t *testing.T) {
	m := randomCOO(5, 9, 30, 3)
	tr := m.Transpose()
	if tr.NumRows != 9 || tr.NumCols != 5 {
		t.Fatalf("Transpose shape %dx%d", tr.NumRows, tr.NumCols)
	}
	trtr := tr.Transpose()
	trtr.SortRowMajor()
	m.SortRowMajor()
	for i := range m.Entries {
		if m.Entries[i] != trtr.Entries[i] {
			t.Fatal("double transpose differs from original")
		}
	}
}

func TestRowSlice(t *testing.T) {
	m := NewCOO(6, 6, 3)
	m.Append(1, 0, 1)
	m.Append(3, 2, 2)
	m.Append(5, 5, 3)
	sub := m.RowSlice(2, 5)
	if sub.NumRows != 3 || len(sub.Entries) != 1 {
		t.Fatalf("RowSlice: %d rows, %d entries", sub.NumRows, len(sub.Entries))
	}
	if sub.Entries[0].Row != 1 || sub.Entries[0].Col != 2 {
		t.Fatalf("RowSlice entry: %+v", sub.Entries[0])
	}
}

func TestCloneIndependent(t *testing.T) {
	m := randomCOO(5, 5, 10, 4)
	c := m.Clone()
	c.Entries[0].Val = 1e9
	if m.Entries[0].Val == 1e9 {
		t.Fatal("Clone shares storage")
	}
}

func TestCSRRoundtrip(t *testing.T) {
	f := func(seed uint64) bool {
		m := randomCOO(20, 30, 100, seed)
		m.Dedup()
		back := m.ToCSR().ToCOO()
		back.SortRowMajor()
		m.SortRowMajor()
		if len(back.Entries) != len(m.Entries) {
			return false
		}
		for i := range m.Entries {
			if m.Entries[i] != back.Entries[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestCSRValidate(t *testing.T) {
	m := randomCOO(10, 10, 40, 5)
	csr := m.ToCSR()
	if err := csr.Validate(); err != nil {
		t.Fatal(err)
	}
	// Corrupt a column.
	if len(csr.Col) > 0 {
		csr.Col[0] = 99
		if err := csr.Validate(); err == nil {
			t.Fatal("out-of-range column should fail Validate")
		}
	}
}

func TestCSRFromUnsortedInput(t *testing.T) {
	m := NewCOO(3, 5, 4)
	m.Append(2, 4, 1)
	m.Append(0, 3, 2)
	m.Append(0, 1, 3)
	m.Append(2, 0, 4)
	csr := m.ToCSR()
	if err := csr.Validate(); err != nil {
		t.Fatal(err)
	}
	if csr.RowPtr[1] != 2 || csr.Col[0] != 1 || csr.Col[1] != 3 {
		t.Fatalf("row 0 = cols %v", csr.Col[csr.RowPtr[0]:csr.RowPtr[1]])
	}
}

func TestCSRPreservesDuplicates(t *testing.T) {
	m := NewCOO(2, 2, 2)
	m.Append(0, 0, 1)
	m.Append(0, 0, 2)
	csr := m.ToCSR()
	if csr.NNZ() != 2 {
		t.Fatalf("ToCSR should preserve duplicates, nnz = %d", csr.NNZ())
	}
}

func TestStats(t *testing.T) {
	m := NewCOO(4, 4, 5)
	m.Append(0, 1, 1)
	m.Append(0, 2, 1)
	m.Append(0, 3, 1)
	m.Append(2, 1, 1)
	m.Append(3, 1, 1)
	s := m.ComputeStats()
	if s.NNZ != 5 || s.MaxRowNNZ != 3 || s.MaxColNNZ != 3 || s.EmptyRows != 1 || s.EmptyCols != 1 {
		t.Fatalf("Stats = %+v", s)
	}
	if s.AvgPerRow != 1.25 {
		t.Fatalf("AvgPerRow = %v", s.AvgPerRow)
	}
}

func TestColRowCounts(t *testing.T) {
	m := randomCOO(10, 10, 50, 6)
	colSum, rowSum := int64(0), int64(0)
	for _, c := range m.ColCounts() {
		colSum += c
	}
	for _, r := range m.RowCounts() {
		rowSum += r
	}
	if colSum != 50 || rowSum != 50 {
		t.Fatalf("counts sum to %d/%d, want 50", colSum, rowSum)
	}
}

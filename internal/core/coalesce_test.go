package core

import (
	"math/rand/v2"
	"testing"
	"testing/quick"

	"twoface/internal/sparse"
)

// uniqueCols returns the distinct column indices of a column-major-sorted
// entry slice, ascending: the dense B rows an async stripe must fetch.
func uniqueCols(entries []sparse.NZ) []int32 {
	if len(entries) == 0 {
		return nil
	}
	cols := []int32{entries[0].Col}
	for _, e := range entries[1:] {
		if e.Col != cols[len(cols)-1] {
			cols = append(cols, e.Col)
		}
	}
	return cols
}

func TestUniqueCols(t *testing.T) {
	entries := []sparse.NZ{{Col: 3}, {Col: 3}, {Col: 5}, {Col: 5}, {Col: 5}, {Col: 9}}
	got := uniqueCols(entries)
	want := []int32{3, 5, 9}
	if len(got) != len(want) {
		t.Fatalf("uniqueCols = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("uniqueCols = %v, want %v", got, want)
		}
	}
	if uniqueCols(nil) != nil {
		t.Fatal("empty input should return nil")
	}
}

func TestCoalescePaperExample(t *testing.T) {
	// Section 5.2.3: rows {2,3,6,8} with adjacent-only coalescing become
	// (2,2),(6,1),(8,1); with gap 2 they become (2,2),(6,3), fetching row 7.
	cols := []int32{2, 3, 6, 8}
	const k = 4

	regions, bufRow, fetched := coalesceRegionsInto(nil, nil, cols, 1, 0, k)
	if len(regions) != 3 || fetched != 4 {
		t.Fatalf("adjacent: %d regions, %d rows; want 3 regions, 4 rows", len(regions), fetched)
	}
	wantOff := []int64{2 * k, 6 * k, 8 * k}
	wantElems := []int64{2 * k, 1 * k, 1 * k}
	for i, r := range regions {
		if r.Off != wantOff[i] || r.Elems != wantElems[i] {
			t.Fatalf("adjacent region %d = %+v", i, r)
		}
	}
	wantBuf := []int32{0, 1, 2, 3}
	for i := range wantBuf {
		if bufRow[i] != wantBuf[i] {
			t.Fatalf("adjacent bufRow = %v", bufRow)
		}
	}

	regions, bufRow, fetched = coalesceRegionsInto(nil, nil, cols, 2, 0, k)
	if len(regions) != 2 || fetched != 5 {
		t.Fatalf("gap-2: %d regions, %d rows; want 2 regions, 5 rows (incl. useless row 7)", len(regions), fetched)
	}
	if regions[1].Off != 6*k || regions[1].Elems != 3*k {
		t.Fatalf("gap-2 second region = %+v", regions[1])
	}
	// Row 8 sits at buffer row 4 (after 2,3 then 6,7).
	if bufRow[3] != 4 {
		t.Fatalf("gap-2 bufRow = %v", bufRow)
	}
}

func TestCoalesceOwnerOffset(t *testing.T) {
	regions, _, _ := coalesceRegionsInto(nil, nil, []int32{100, 101}, 1, 96, 8)
	if len(regions) != 1 || regions[0].Off != 4*8 || regions[0].Elems != 2*8 {
		t.Fatalf("owner-relative region = %+v", regions)
	}
}

func TestCoalesceEmptyAndSingle(t *testing.T) {
	if r, _, n := coalesceRegionsInto(nil, nil, nil, 1, 0, 4); r != nil || n != 0 {
		t.Fatal("empty cols should produce nothing")
	}
	r, buf, n := coalesceRegionsInto(nil, nil, []int32{7}, 1, 0, 4)
	if len(r) != 1 || n != 1 || buf[0] != 0 {
		t.Fatalf("single col: %+v %v %d", r, buf, n)
	}
}

func TestCoalesceProperty(t *testing.T) {
	// For any sorted distinct column set and any gap, the regions must
	// cover every requested column exactly once at the bufRow offsets, and
	// fetched rows == sum of region lengths.
	f := func(seed uint64, gapRaw uint8) bool {
		rng := rand.New(rand.NewPCG(seed, 3))
		gap := int32(gapRaw%8) + 1
		const k = 3
		var cols []int32
		c := int32(rng.IntN(5))
		for len(cols) < 30 && c < 500 {
			cols = append(cols, c)
			c += 1 + int32(rng.IntN(10))
		}
		regions, bufRow, fetched := coalesceRegionsInto(nil, nil, cols, gap, 0, k)
		var sum int64
		for _, r := range regions {
			if r.Elems%k != 0 || r.Off%k != 0 {
				return false
			}
			sum += r.Elems / k
		}
		if sum != fetched {
			return false
		}
		// Reconstruct the fetched row list and verify bufRow maps each col
		// to its own row.
		var fetchedRows []int32
		for _, r := range regions {
			start := int32(r.Off / k)
			for i := int64(0); i < r.Elems/k; i++ {
				fetchedRows = append(fetchedRows, start+int32(i))
			}
		}
		for i, col := range cols {
			if bufRow[i] < 0 || int(bufRow[i]) >= len(fetchedRows) {
				return false
			}
			if fetchedRows[bufRow[i]] != col {
				return false
			}
		}
		// Gap rule: consecutive cols within a region differ by <= gap.
		for i := 1; i < len(cols); i++ {
			sameRegion := false
			for _, r := range regions {
				s, e := int32(r.Off/k), int32(r.Off/k)+int32(r.Elems/k)-1
				if cols[i-1] >= s && cols[i] <= e {
					sameRegion = true
				}
			}
			if cols[i]-cols[i-1] <= gap && !sameRegion {
				return false // should have been merged
			}
			if cols[i]-cols[i-1] > gap && sameRegion {
				return false // should not have been merged
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

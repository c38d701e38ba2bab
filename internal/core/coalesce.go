package core

import "twoface/internal/cluster"

// coalesceRegionsInto converts the sorted distinct columns of an async
// stripe into one-sided fetch regions over the owner's B window, merging
// runs of needed rows separated by at most maxGap-1 unused rows (section
// 5.2.3: rows {2,3,6,8} coalesce to {(2,2),(6,1),(8,1)} adjacent-only, or
// {(2,2),(6,3)} with gap coalescing, fetching useless row 7).
//
// ownerColLo is the first global column of the owner's block; k is the dense
// width. It returns the regions, the buffer row offset of each input column
// (aligned with cols), and the total number of B rows fetched including
// useless gap rows. The regions and offsets are written into the provided
// scratch slices (which it resets), reusing their capacity.
func coalesceRegionsInto(regionScratch []cluster.Region, bufRowScratch []int32, cols []int32, maxGap int32, ownerColLo int32, k int) (regions []cluster.Region, bufRow []int32, fetchedRows int64) {
	regions = regionScratch[:0]
	if len(cols) == 0 {
		return regions, bufRowScratch[:0], 0
	}
	if cap(bufRowScratch) < len(cols) {
		bufRowScratch = make([]int32, len(cols))
	}
	bufRow = bufRowScratch[:len(cols)]
	start, end := cols[0], cols[0] // current run [start, end], inclusive
	base := int64(0)               // buffer row offset of `start`
	bufRow[0] = 0
	for i := 1; i < len(cols); i++ {
		c := cols[i]
		if c-end <= maxGap {
			end = c
		} else {
			regions = append(regions, cluster.Region{
				Off:   int64(start-ownerColLo) * int64(k),
				Elems: int64(end-start+1) * int64(k),
			})
			base += int64(end - start + 1)
			start, end = c, c
		}
		bufRow[i] = int32(base + int64(c-start))
	}
	regions = append(regions, cluster.Region{
		Off:   int64(start-ownerColLo) * int64(k),
		Elems: int64(end-start+1) * int64(k),
	})
	fetchedRows = base + int64(end-start+1)
	return regions, bufRow, fetchedRows
}

package core

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"slices"

	"twoface/internal/sparse"
)

// Plan serialization: the paper's pipeline preprocesses once and writes the
// per-node matrices "in a bespoke binary format" to be loaded at run time
// (section 7.3). WritePrep/ReadPrep round-trip a complete Prep — layout,
// classification, modified-COO matrices, and multicast metadata — so the
// expensive preprocessing can run offline (twoface-prep) and the executor
// can start from disk.
//
// Format (little-endian): magic "TFPREP1\x00", a fixed header, then
// length-prefixed sections per node. Entries are (row int32, col int32,
// val float64) triples as in the matrix format.

var prepMagic = [8]byte{'T', 'F', 'P', 'R', 'E', 'P', '1', 0}

// prepChunk is the most bytes one bulk section conversion handles at a
// time; it equals the buffered reader's and writer's size, so full chunks
// bypass their buffers.
const prepChunk = 1 << 20

type prepWriter struct {
	w     *bufio.Writer
	err   error
	chunk []byte
}

func (pw *prepWriter) u32(v uint32) {
	if pw.err != nil {
		return
	}
	_, pw.err = pw.w.Write(binary.LittleEndian.AppendUint32(pw.chunk[:0], v))
}

func (pw *prepWriter) u64(v uint64) {
	if pw.err != nil {
		return
	}
	_, pw.err = pw.w.Write(binary.LittleEndian.AppendUint64(pw.chunk[:0], v))
}

// writeSection writes a length prefix and then vs as fixed-size
// little-endian records, encoding up to prepChunk bytes per call of enc.
func writeSection[T any](pw *prepWriter, vs []T, size int, enc func(dst []byte, vs []T)) {
	pw.u64(uint64(len(vs)))
	for len(vs) > 0 && pw.err == nil {
		n := min(len(vs), prepChunk/size)
		b := pw.chunk[:n*size]
		enc(b, vs[:n])
		_, pw.err = pw.w.Write(b)
		vs = vs[n:]
	}
}

func (pw *prepWriter) i32s(vs []int32) {
	writeSection(pw, vs, 4, func(b []byte, vs []int32) {
		for i, v := range vs {
			binary.LittleEndian.PutUint32(b[4*i:], uint32(v))
		}
	})
}

func (pw *prepWriter) i64s(vs []int64) {
	writeSection(pw, vs, 8, func(b []byte, vs []int64) {
		for i, v := range vs {
			binary.LittleEndian.PutUint64(b[8*i:], uint64(v))
		}
	})
}

func (pw *prepWriter) entries(es []sparse.NZ) {
	writeSection(pw, es, 16, func(b []byte, es []sparse.NZ) {
		for i, e := range es {
			r := b[16*i : 16*i+16]
			binary.LittleEndian.PutUint32(r, uint32(e.Row))
			binary.LittleEndian.PutUint32(r[4:], uint32(e.Col))
			binary.LittleEndian.PutUint64(r[8:], floatBits(e.Val))
		}
	})
}

// WritePrep serializes a preprocessing plan.
func WritePrep(w io.Writer, p *Prep) error {
	pw := &prepWriter{w: bufio.NewWriterSize(w, prepChunk), chunk: make([]byte, prepChunk)}
	if _, err := pw.w.Write(prepMagic[:]); err != nil {
		return err
	}
	// Header: geometry + the params the executor needs.
	pw.u32(uint32(p.Layout.NumRows))
	pw.u32(uint32(p.Layout.NumCols))
	pw.u32(uint32(p.Params.P))
	pw.u32(uint32(p.Params.K))
	pw.u32(uint32(p.Params.W))
	pw.u32(uint32(p.Params.RowPanelHeight))
	pw.u32(uint32(p.Params.MaxCoalesceGap))
	pw.u32(uint32(p.Params.ModelSyncThreads))
	pw.u32(uint32(p.Params.ModelAsyncCompThreads))
	// Optional balanced row bounds.
	if p.Layout.rowBounds != nil {
		pw.u32(1)
		pw.i32s(p.Layout.rowBounds)
	} else {
		pw.u32(0)
	}
	// Multicast metadata.
	pw.u64(uint64(len(p.Dests)))
	for _, d := range p.Dests {
		pw.i32s(d)
	}
	// Per-node parts.
	for i := range p.Nodes {
		np := &p.Nodes[i]
		pw.u32(uint32(np.RowLo))
		pw.u32(uint32(np.RowHi))
		pw.u64(uint64(np.SS))
		pw.u64(uint64(np.SA))
		pw.u64(uint64(np.LA))
		pw.u64(uint64(np.NA))
		pw.u64(uint64(np.LocalInputNNZ))
		pw.u64(uint64(np.SyncNNZ))
		pw.i64s(np.Sync.PanelPtr)
		pw.entries(np.Sync.Entries)
		pw.i64s(np.Async.StripePtr)
		pw.i32s(np.Async.StripeIDs)
		pw.entries(np.Async.Entries)
		pw.i32s(np.RecvStripes)
	}
	if pw.err != nil {
		return pw.err
	}
	return pw.w.Flush()
}

type prepReader struct {
	r     *bufio.Reader
	err   error
	chunk []byte
}

// read returns the next n bytes, which stay valid until the next read.
func (pr *prepReader) read(n int) []byte {
	if pr.err != nil {
		return nil
	}
	b := pr.chunk[:n]
	if _, pr.err = io.ReadFull(pr.r, b); pr.err != nil {
		return nil
	}
	return b
}

func (pr *prepReader) u32() uint32 {
	if b := pr.read(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

func (pr *prepReader) u64() uint64 {
	if b := pr.read(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

// sliceLen validates a length prefix to avoid absurd allocations on corrupt
// input.
func (pr *prepReader) sliceLen(max uint64) int {
	n := pr.u64()
	if pr.err == nil && n > max {
		pr.err = fmt.Errorf("core: corrupt plan: length %d exceeds limit %d", n, max)
	}
	if pr.err != nil {
		return 0
	}
	return int(n)
}

const (
	maxPrepSection = 1 << 33 // generous: ~8G entries
	// prepPreallocCap bounds the up-front allocation for a length prefix;
	// the header is untrusted and a truncated body fails on read anyway.
	prepPreallocCap = 1 << 20
)

func preallocLen(n int) int {
	if n > prepPreallocCap {
		return prepPreallocCap
	}
	return n
}

// readSection reads a section writeSection wrote, decoding up to prepChunk
// bytes per call of dec. The slice grows only as records arrive, so a
// corrupt length fails on the short read instead of allocating for it.
func readSection[T any](pr *prepReader, size int, dec func(vs []T, b []byte)) []T {
	n := pr.sliceLen(maxPrepSection)
	out := make([]T, 0, preallocLen(n))
	for len(out) < n {
		c := min(n-len(out), prepChunk/size)
		b := pr.read(c * size)
		if b == nil {
			break
		}
		out = slices.Grow(out, c)[:len(out)+c]
		dec(out[len(out)-c:], b)
	}
	return out
}

func (pr *prepReader) i32s() []int32 {
	return readSection(pr, 4, func(vs []int32, b []byte) {
		for i := range vs {
			vs[i] = int32(binary.LittleEndian.Uint32(b[4*i:]))
		}
	})
}

func (pr *prepReader) i64s() []int64 {
	return readSection(pr, 8, func(vs []int64, b []byte) {
		for i := range vs {
			vs[i] = int64(binary.LittleEndian.Uint64(b[8*i:]))
		}
	})
}

func (pr *prepReader) entries() []sparse.NZ {
	return readSection(pr, 16, func(es []sparse.NZ, b []byte) {
		for i := range es {
			r := b[16*i : 16*i+16]
			es[i] = sparse.NZ{
				Row: int32(binary.LittleEndian.Uint32(r)),
				Col: int32(binary.LittleEndian.Uint32(r[4:])),
				Val: floatFromBits(binary.LittleEndian.Uint64(r[8:])),
			}
		}
	})
}

// ReadPrep deserializes a plan written by WritePrep. The classifier
// coefficients are not stored (they only matter during preprocessing); the
// returned Prep carries normalized default Params plus the stored geometry.
func ReadPrep(r io.Reader) (*Prep, error) {
	pr := &prepReader{r: bufio.NewReaderSize(r, prepChunk), chunk: make([]byte, prepChunk)}
	var magic [8]byte
	if _, err := io.ReadFull(pr.r, magic[:]); err != nil {
		return nil, fmt.Errorf("core: reading plan magic: %w", err)
	}
	if magic != prepMagic {
		return nil, fmt.Errorf("core: bad plan magic %q", magic[:])
	}
	numRows := int32(pr.u32())
	numCols := int32(pr.u32())
	params := Params{
		P: int(pr.u32()), K: int(pr.u32()), W: int32(pr.u32()),
		RowPanelHeight:        int32(pr.u32()),
		MaxCoalesceGap:        int32(pr.u32()),
		ModelSyncThreads:      int(pr.u32()),
		ModelAsyncCompThreads: int(pr.u32()),
	}
	if pr.err != nil {
		return nil, pr.err
	}
	params, err := params.Normalize()
	if err != nil {
		return nil, fmt.Errorf("core: corrupt plan header: %w", err)
	}
	// Untrusted header: bound the derived allocations (node array, stripe
	// metadata) before building anything.
	const (
		maxPlanNodes   = 1 << 16
		maxPlanStripes = 1 << 24
	)
	if params.P > maxPlanNodes {
		return nil, fmt.Errorf("core: corrupt plan: %d nodes exceeds limit %d", params.P, maxPlanNodes)
	}
	layout, err := NewLayout(numRows, numCols, params.P, params.W)
	if err != nil {
		return nil, fmt.Errorf("core: corrupt plan geometry: %w", err)
	}
	if layout.NumStripes() > maxPlanStripes {
		return nil, fmt.Errorf("core: corrupt plan: %d stripes exceeds limit %d", layout.NumStripes(), maxPlanStripes)
	}
	if pr.u32() == 1 {
		bounds := pr.i32s()
		if pr.err != nil {
			return nil, pr.err
		}
		layout, err = layout.WithRowBounds(bounds)
		if err != nil {
			return nil, fmt.Errorf("core: corrupt plan row bounds: %w", err)
		}
	}
	prep := &Prep{Layout: layout, Params: params}
	nDests := pr.sliceLen(uint64(layout.NumStripes()) + 1)
	if pr.err == nil && nDests != int(layout.NumStripes()) {
		return nil, fmt.Errorf("core: corrupt plan: %d dest lists for %d stripes", nDests, layout.NumStripes())
	}
	prep.Dests = make([][]int32, nDests)
	for i := range prep.Dests {
		prep.Dests[i] = pr.i32s()
	}
	prep.Nodes = make([]NodePart, params.P)
	for i := range prep.Nodes {
		np := &prep.Nodes[i]
		np.Rank = i
		np.RowLo = int32(pr.u32())
		np.RowHi = int32(pr.u32())
		np.SS = int64(pr.u64())
		np.SA = int64(pr.u64())
		np.LA = int64(pr.u64())
		np.NA = int64(pr.u64())
		np.LocalInputNNZ = int64(pr.u64())
		np.SyncNNZ = int64(pr.u64())
		np.Sync.PanelPtr = pr.i64s()
		np.Sync.Entries = pr.entries()
		np.Async.StripePtr = pr.i64s()
		np.Async.StripeIDs = pr.i32s()
		np.Async.Entries = pr.entries()
		np.RecvStripes = pr.i32s()
	}
	if pr.err != nil {
		return nil, fmt.Errorf("core: reading plan: %w", pr.err)
	}
	if err := prep.validate(); err != nil {
		return nil, fmt.Errorf("core: corrupt plan: %w", err)
	}
	for i := range prep.Nodes {
		prep.Stats.LocalInputNNZ += prep.Nodes[i].LocalInputNNZ
		prep.Stats.SyncNNZ += prep.Nodes[i].SyncNNZ
		prep.Stats.AsyncNNZ += prep.Nodes[i].NA
		prep.Stats.SyncStripes += prep.Nodes[i].SS
		prep.Stats.AsyncStripes += prep.Nodes[i].SA
	}
	prep.Stats.TotalNNZ = prep.Stats.LocalInputNNZ + prep.Stats.SyncNNZ + prep.Stats.AsyncNNZ
	return prep, nil
}

// validate checks every index the executor trusts, so that a corrupt plan
// file fails to load instead of panicking in Exec: each node's rows are its
// layout row block; panel and stripe pointers have one more element than
// there are panels or stripes, never decrease, and end at the entry count;
// each sync entry lies in its panel's rows and inside the matrix's columns;
// each async entry lies in the node's rows and its stripe's columns, which
// never decrease along the stripe (the one-sided fetch plan assumes it); and
// stripe ids, received stripes and multicast destinations are in range and
// strictly ascending.
func (p *Prep) validate() error {
	l := p.Layout
	h := int64(p.Params.RowPanelHeight)
	for sid, d := range p.Dests {
		if err := checkIDs(d, int32(l.P)); err != nil {
			return fmt.Errorf("Dests[%d]: %w", sid, err)
		}
	}
	for i := range p.Nodes {
		np := &p.Nodes[i]
		if b := l.RowBlock(i); int(np.RowLo) != b.Lo || int(np.RowHi) != b.Hi {
			return fmt.Errorf("rank %d holds rows [%d,%d), its block is [%d,%d)", i, np.RowLo, np.RowHi, b.Lo, b.Hi)
		}
		rows := int64(np.RowHi - np.RowLo)
		panels := max(1, (rows+h-1)/h)
		if err := checkPtr(np.Sync.PanelPtr, panels, len(np.Sync.Entries)); err != nil {
			return fmt.Errorf("rank %d panel pointers: %w", i, err)
		}
		for pi := int64(0); pi < panels; pi++ {
			lo, hi := pi*h, min((pi+1)*h, rows)
			for _, e := range np.Sync.Entries[np.Sync.PanelPtr[pi]:np.Sync.PanelPtr[pi+1]] {
				if int64(e.Row) < lo || int64(e.Row) >= hi || e.Col < 0 || e.Col >= l.NumCols {
					return fmt.Errorf("rank %d panel %d: entry (%d,%d) outside rows [%d,%d) x cols [0,%d)", i, pi, e.Row, e.Col, lo, hi, l.NumCols)
				}
			}
		}
		if err := checkIDs(np.Async.StripeIDs, l.NumStripes()); err != nil {
			return fmt.Errorf("rank %d async stripes: %w", i, err)
		}
		if err := checkPtr(np.Async.StripePtr, int64(len(np.Async.StripeIDs)), len(np.Async.Entries)); err != nil {
			return fmt.Errorf("rank %d stripe pointers: %w", i, err)
		}
		for s, sid := range np.Async.StripeIDs {
			colLo, colHi := l.StripeCols(sid)
			for _, e := range np.Async.Entries[np.Async.StripePtr[s]:np.Async.StripePtr[s+1]] {
				if e.Row < 0 || int64(e.Row) >= rows || e.Col < colLo || e.Col >= colHi {
					return fmt.Errorf("rank %d stripe %d: entry (%d,%d) outside rows [0,%d) x cols [%d,%d)", i, sid, e.Row, e.Col, rows, colLo, colHi)
				}
				colLo = e.Col
			}
		}
		if err := checkIDs(np.RecvStripes, l.NumStripes()); err != nil {
			return fmt.Errorf("rank %d received stripes: %w", i, err)
		}
	}
	return nil
}

// checkPtr checks a CSR-style pointer array over n groups of total entries.
func checkPtr(ptr []int64, n int64, total int) error {
	if int64(len(ptr)) != n+1 {
		return fmt.Errorf("%d pointers for %d groups", len(ptr), n)
	}
	if ptr[0] != 0 || ptr[n] != int64(total) {
		return fmt.Errorf("pointers span [%d,%d], want [0,%d]", ptr[0], ptr[n], total)
	}
	for j := int64(1); j <= n; j++ {
		if ptr[j] < ptr[j-1] {
			return fmt.Errorf("pointer %d decreases", j)
		}
	}
	return nil
}

// checkIDs checks that ids ascend strictly inside [0, n).
func checkIDs(ids []int32, n int32) error {
	for j, id := range ids {
		if id < 0 || id >= n || (j > 0 && id <= ids[j-1]) {
			return fmt.Errorf("id %d at %d is out of range [0,%d) or out of order", id, j, n)
		}
	}
	return nil
}

// WritePrepFile writes a plan to disk.
func WritePrepFile(path string, p *Prep) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WritePrep(f, p); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadPrepFile reads a plan written by WritePrepFile.
func ReadPrepFile(path string) (*Prep, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadPrep(f)
}

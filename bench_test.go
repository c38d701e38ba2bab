package twoface_test

// Wall-clock microbenchmarks of the hot kernels and of whole Two-Face runs
// with real arithmetic. The paper's tables and figures, the section 5.3
// search and the ablations are modeled-time experiments: twoface-bench -exp
// regenerates them, and results_reference.txt gates them.

import (
	"fmt"
	"sort"
	"testing"

	"twoface"
	"twoface/internal/atomicfloat"
	"twoface/internal/kernels"
	"twoface/internal/sparse"
)

// --- Microbenchmarks with real arithmetic (wall time is the metric). ---

// BenchmarkKernelLocalSpMM measures the reference CSR kernel.
func BenchmarkKernelLocalSpMM(b *testing.B) {
	a := twoface.Generate("stokes", 0.05, 1)
	bm := twoface.RandomDense(int(a.NumCols), 32, 2)
	csr := a.ToCSR()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := csr.Mul(bm); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(csr.NNZ()) * 32 * 8)
}

// BenchmarkKernelTwoFaceExec measures a full Two-Face SpMM with real
// arithmetic on a small workload.
func BenchmarkKernelTwoFaceExec(b *testing.B) {
	a := twoface.Generate("web", 0.05, 1)
	k := 32
	bm := twoface.RandomDense(int(a.NumCols), k, 2)
	sys, err := twoface.New(twoface.Options{Nodes: 4, DenseColumns: k})
	if err != nil {
		b.Fatal(err)
	}
	plan, err := sys.Preprocess(a)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := plan.Multiply(bm); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKernelDenseShift measures the DS2 baseline with real arithmetic.
func BenchmarkKernelDenseShift(b *testing.B) {
	a := twoface.Generate("web", 0.05, 1)
	k := 32
	bm := twoface.RandomDense(int(a.NumCols), k, 2)
	sys, err := twoface.New(twoface.Options{Nodes: 4, DenseColumns: k})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.RunBaseline(twoface.DenseShift2, a, bm); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Kernel-layer microbenchmarks (hot-path overhaul). ---
//
// These isolate the inner loops of internal/kernels as wired into the
// executor: the raw AXPY kernel, the async-stripe accumulate path (legacy
// per-scalar atomics vs the stripe-local accumulator that replaced them),
// and the sync row-panel multiply with its pre-resolved column table.
// check.sh runs each once as a smoke; measure them with
// go test -run '^$' -bench '^BenchmarkKernel' -benchmem .

var benchKs = []int{32, 128, 512}

// BenchmarkKernelAxpy measures the dispatched AXPY kernel at the paper's
// dense widths (whatever variant CPU detection selected — see
// BenchmarkKernelAxpyVariants for the side-by-side).
func BenchmarkKernelAxpy(b *testing.B) {
	for _, k := range benchKs {
		b.Run(fmt.Sprintf("K=%d", k), func(b *testing.B) {
			x := twoface.RandomDense(1, k, 1).Data
			y := twoface.RandomDense(1, k, 2).Data
			b.ReportAllocs()
			b.SetBytes(int64(16 * k))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				kernels.Axpy(1.0000001, x, y)
			}
		})
	}
}

// BenchmarkKernelAxpyVariants measures every kernel implementation this host
// can run — generic, plus the SIMD variants CPU detection found — side by
// side, without flipping global dispatch.
func BenchmarkKernelAxpyVariants(b *testing.B) {
	for _, k := range benchKs {
		for _, v := range kernels.Implementations() {
			b.Run(fmt.Sprintf("K=%d/%s", k, v.Variant), func(b *testing.B) {
				x := twoface.RandomDense(1, k, 1).Data
				y := twoface.RandomDense(1, k, 2).Data
				b.ReportAllocs()
				b.SetBytes(int64(16 * k))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					v.Axpy(1.0000001, x, y)
				}
			})
		}
	}
}

// benchStripe builds a synthetic async stripe in the executor's column-major
// entry order: 64 distinct columns over a 256-row block, 8 rows per column
// (ascending within each column), with the unique-column and buffer-row
// tables the fetch path would produce.
func benchStripe() (entries []sparse.NZ, cols, bufRow []int32) {
	const w, rows, perCol = 64, 256, 8
	cols = make([]int32, w)
	bufRow = make([]int32, w)
	for c := 0; c < w; c++ {
		cols[c] = int32(c)
		bufRow[c] = int32(c)
		rs := make([]int, 0, perCol)
		for t := 0; t < perCol; t++ {
			rs = append(rs, (c*37+t*31)%rows)
		}
		sort.Ints(rs)
		for _, r := range rs {
			entries = append(entries, sparse.NZ{Row: int32(r), Col: int32(c), Val: 0.5 + 0.1*float64(c%7)})
		}
	}
	return entries, cols, bufRow
}

// BenchmarkKernelAsyncStripeAccumulate measures Algorithm 3's accumulate
// phase two ways: "atomic" is the pre-overhaul path (one CAS-looped atomic
// add per scalar per nonzero); "stripelocal" is the shipped path (dense
// stripe-local accumulation flushed once per touched C row through
// AddRange). The stripelocal variant must be ≥2x faster at K=128 and run
// allocation-free in steady state.
func BenchmarkKernelAsyncStripeAccumulate(b *testing.B) {
	entries, cols, bufRow := benchStripe()
	const rows = 256
	for _, k := range benchKs {
		drows := twoface.RandomDense(len(cols), k, 3).Data
		b.Run(fmt.Sprintf("K=%d/atomic", k), func(b *testing.B) {
			out := atomicfloat.View(make([]float64, rows*k))
			b.ReportAllocs()
			b.ResetTimer()
			for it := 0; it < b.N; it++ {
				ci := 0
				for _, e := range entries {
					for cols[ci] != e.Col {
						ci++
					}
					brow := drows[int(bufRow[ci])*k : (int(bufRow[ci])+1)*k]
					cOff := int(e.Row) * k
					for j := 0; j < k; j++ {
						if v := e.Val * brow[j]; v != 0 {
							out.Add(cOff+j, v)
						}
					}
				}
			}
		})
		b.Run(fmt.Sprintf("K=%d/stripelocal", k), func(b *testing.B) {
			out := atomicfloat.View(make([]float64, rows*k))
			var acc kernels.RowAccumulator
			// Warm the scratch to its high-water mark so steady state is
			// measured, as the pooled executor workspaces reach after their
			// first stripe.
			acc.Begin(rows, k)
			for _, e := range entries {
				acc.Accumulate(e.Row, e.Val, drows[:k])
			}
			b.ReportAllocs()
			b.ResetTimer()
			for it := 0; it < b.N; it++ {
				acc.Begin(rows, k)
				ci := 0
				for _, e := range entries {
					for cols[ci] != e.Col {
						ci++
					}
					off := int(bufRow[ci]) * k
					acc.Accumulate(e.Row, e.Val, drows[off:off+k])
				}
				for i, row := range acc.Touched() {
					out.AddRange(int(row)*k, acc.Vals(i))
				}
			}
		})
	}
}

// benchPanel builds the 32-row, 16-nnz-per-row synthetic panel used by the
// panel benchmarks, sorted row-major with ascending columns per row.
func benchPanel() []sparse.NZ {
	const rows, nCols, perRow = 32, 128, 16
	var entries []sparse.NZ
	for r := 0; r < rows; r++ {
		cs := make([]int, 0, perRow)
		for t := 0; t < perRow; t++ {
			cs = append(cs, (r*5+t*7)%nCols)
		}
		sort.Ints(cs)
		for _, c := range cs {
			entries = append(entries, sparse.NZ{Row: int32(r), Col: int32(c), Val: 1.5 - 0.2*float64(c%5)})
		}
	}
	return entries
}

// panelMultiplyTiled is the sync-panel inner loop before AxpyGather, kept as
// the baseline in its shared-row form (buffer plus atomic flush): nonzeros
// within a row are paired so the panel-local accumulation runs through the
// two-source register-tiled Axpy2, with an odd leftover flushed via plain
// Axpy. It is also what AxpyGather itself does on arm64 and under the
// generic kernels.
func panelMultiplyTiled(entries []sparse.NZ, table [][]float64, out *atomicfloat.Slice, acc []float64, k int) {
	clear(acc)
	prevRow := entries[0].Row
	pendVal, pendRow := 0.0, []float64(nil)
	for _, e := range entries {
		if e.Row != prevRow {
			if pendRow != nil {
				kernels.Axpy(pendVal, pendRow, acc)
				pendRow = nil
			}
			out.AddRange(int(prevRow)*k, acc)
			clear(acc)
			prevRow = e.Row
		}
		if pendRow == nil {
			pendVal, pendRow = e.Val, table[e.Col]
			continue
		}
		kernels.Axpy2(pendVal, pendRow, e.Val, table[e.Col], acc)
		pendRow = nil
	}
	if pendRow != nil {
		kernels.Axpy(pendVal, pendRow, acc)
	}
	out.AddRange(int(prevRow)*k, acc)
}

// panelGather is a panel in the shipped sync-panel form, the executor's
// plan-derived column table: row runs, and per entry its multiplier and the
// slot of its dense row. The bench panel's columns index the table directly,
// so a slot is the entry's column, and the multipliers sit 2 float64s apart
// as they do in the plan's 16-byte entries.
type panelGather struct {
	vals  []float64
	slots []int32
	runs  []int // row-run starts, then len(entries)
	rows  []int32
}

func newPanelGather(entries []sparse.NZ) panelGather {
	g := panelGather{vals: make([]float64, 2*len(entries))}
	for j, e := range entries {
		if j == 0 || e.Row != entries[j-1].Row {
			g.runs = append(g.runs, j)
			g.rows = append(g.rows, e.Row)
		}
		g.vals[2*j] = e.Val
		g.slots = append(g.slots, e.Col)
	}
	g.runs = append(g.runs, len(entries))
	return g
}

// multiply is the shipped loop for unshared rows, as spmmKernel.panel runs
// it: one gather per row straight into C's row, which starts at +0. Every
// bench panel row is unshared. gather is kernels.AxpyGather or one
// implementation set's.
func (g *panelGather) multiply(gather func(y, vals []float64, stride int, slots []int32, rows [][]float64), table [][]float64, p *panelOut, k int) {
	for i, row := range g.rows {
		lo, hi := g.runs[i], g.runs[i+1]
		dst := p.c[int(row)*k : int(row+1)*k]
		clear(dst)
		gather(dst, g.vals[2*lo:], 2, g.slots[lo:hi], table)
	}
}

// multiplyShared is the shipped loop for shared rows: one AxpyGather per row
// into the cleared panel-local row, flushed with one atomic AddRange.
func (g *panelGather) multiplyShared(table [][]float64, p *panelOut, k int) {
	for i, row := range g.rows {
		lo, hi := g.runs[i], g.runs[i+1]
		clear(p.acc)
		kernels.AxpyGather(p.acc, g.vals[2*lo:], 2, g.slots[lo:hi], table)
		p.out.AddRange(int(row)*k, p.acc)
	}
}

// panelOut is one panel benchmark's output: C's rows, their atomic view for
// the shared-row forms, and a panel-local row buffer.
type panelOut struct {
	c   []float64
	out *atomicfloat.Slice
	acc []float64
}

// benchPanelTable returns the bench panel's dense rows, one per column.
func benchPanelTable(nCols, k int) [][]float64 {
	bm := twoface.RandomDense(nCols, k, 4)
	table := make([][]float64, nCols)
	for c := range table {
		table[c] = bm.Row(c)
	}
	return table
}

// runPanel times multiply over the bench panel's rows at width k. Steady
// state must not allocate.
func runPanel(b *testing.B, nnz, rows, k int, multiply func(p *panelOut)) {
	c := make([]float64, rows*k)
	p := &panelOut{c: c, out: atomicfloat.View(c), acc: make([]float64, k)}
	b.ReportAllocs()
	b.SetBytes(int64(nnz * k * 16))
	b.ResetTimer()
	for it := 0; it < b.N; it++ {
		multiply(p)
	}
}

// BenchmarkKernelPanelMultiply measures Algorithm 2's row-panel multiply:
// "gather" as shipped for unshared rows (plan-derived column table, one
// register-tiled AxpyGather per output row, straight into C), "gather+atomic"
// the same for shared rows (into a panel-local row, flushed with one atomic
// AddRange), and "tiled" as before AxpyGather (pair-tiled Axpy2 accumulation,
// atomic flush).
func BenchmarkKernelPanelMultiply(b *testing.B) {
	entries := benchPanel()
	g := newPanelGather(entries)
	const rows, nCols = 32, 128
	for _, k := range benchKs {
		table := benchPanelTable(nCols, k)
		b.Run(fmt.Sprintf("K=%d/gather", k), func(b *testing.B) {
			runPanel(b, len(entries), rows, k, func(p *panelOut) { g.multiply(kernels.AxpyGather, table, p, k) })
		})
		b.Run(fmt.Sprintf("K=%d/gather+atomic", k), func(b *testing.B) {
			runPanel(b, len(entries), rows, k, func(p *panelOut) { g.multiplyShared(table, p, k) })
		})
		b.Run(fmt.Sprintf("K=%d/tiled", k), func(b *testing.B) {
			runPanel(b, len(entries), rows, k, func(p *panelOut) { panelMultiplyTiled(entries, table, p.out, p.acc, k) })
		})
	}
}

// BenchmarkKernelPanelVariants decomposes the panel-multiply speedup into its
// ingredients: "generic" is one scalar Axpy per nonzero through the pure-Go
// loops, "simd" is the same per-nonzero loop through the dispatched kernel,
// "tiled" adds the pair-wise Axpy2 register tiling on top (the formulation
// before AxpyGather), and "gather" holds the output tile in registers across
// the whole row (the shipped formulation, as in BenchmarkKernelPanelMultiply).
// The first three flush each row with an atomic AddRange, as they did when
// they shipped. "gather/<variant>" runs the shipped loop on each
// implementation set this host has, side by side.
func BenchmarkKernelPanelVariants(b *testing.B) {
	entries := benchPanel()
	g := newPanelGather(entries)
	const rows, nCols = 32, 128
	impls := kernels.Implementations()
	generic := impls[0]
	for _, k := range benchKs {
		table := benchPanelTable(nCols, k)
		perNZ := func(axpy func(float64, []float64, []float64)) func(p *panelOut) {
			return func(p *panelOut) {
				clear(p.acc)
				prevRow := entries[0].Row
				for _, e := range entries {
					if e.Row != prevRow {
						p.out.AddRange(int(prevRow)*k, p.acc)
						clear(p.acc)
						prevRow = e.Row
					}
					axpy(e.Val, table[e.Col], p.acc)
				}
				p.out.AddRange(int(prevRow)*k, p.acc)
			}
		}
		b.Run(fmt.Sprintf("K=%d/generic", k), func(b *testing.B) {
			runPanel(b, len(entries), rows, k, perNZ(generic.Axpy))
		})
		b.Run(fmt.Sprintf("K=%d/simd", k), func(b *testing.B) {
			runPanel(b, len(entries), rows, k, perNZ(kernels.Axpy))
		})
		b.Run(fmt.Sprintf("K=%d/tiled", k), func(b *testing.B) {
			runPanel(b, len(entries), rows, k, func(p *panelOut) { panelMultiplyTiled(entries, table, p.out, p.acc, k) })
		})
		b.Run(fmt.Sprintf("K=%d/gather", k), func(b *testing.B) {
			runPanel(b, len(entries), rows, k, func(p *panelOut) { g.multiply(kernels.AxpyGather, table, p, k) })
		})
		for _, v := range impls {
			b.Run(fmt.Sprintf("K=%d/gather/%s", k, v.Variant), func(b *testing.B) {
				runPanel(b, len(entries), rows, k, func(p *panelOut) { g.multiply(v.AxpyGather, table, p, k) })
			})
		}
	}
}

// BenchmarkKernelPreprocess measures Two-Face preprocessing throughput.
func BenchmarkKernelPreprocess(b *testing.B) {
	a := twoface.Generate("twitter", 0.05, 1)
	sys, err := twoface.New(twoface.Options{Nodes: 8, DenseColumns: 128})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Preprocess(a); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(a.NNZ()) * 16)
}

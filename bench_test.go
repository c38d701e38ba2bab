package twoface_test

// Benchmark harness: one testing.B target per table and figure of the
// paper's evaluation (see DESIGN.md's experiment index), plus ablation
// benches for the design choices the paper calls out and microbenchmarks of
// the hot kernels.
//
// The figure/table benches run the experiment harness in timing-only mode
// and report the modeled metric of interest via b.ReportMetric; one
// iteration takes seconds, so `go test -bench .` runs each once. Set
// TWOFACE_BENCH_SCALE (default 0.1) to change the matrix scale and
// TWOFACE_BENCH_P (default 8) for the node count.

import (
	"fmt"
	"os"
	"sort"
	"strconv"
	"sync"
	"testing"

	"twoface"
	"twoface/internal/atomicfloat"
	"twoface/internal/baselines"
	"twoface/internal/cluster"
	"twoface/internal/core"
	"twoface/internal/gen"
	"twoface/internal/harness"
	"twoface/internal/kernels"
	"twoface/internal/sparse"
)

func newCluster(cfg harness.Config) (*cluster.Cluster, error) {
	return cluster.New(cfg.Nodes, cfg.Net())
}

func benchConfig() harness.Config {
	scale := 0.1
	if s := os.Getenv("TWOFACE_BENCH_SCALE"); s != "" {
		if v, err := strconv.ParseFloat(s, 64); err == nil && v > 0 {
			scale = v
		}
	}
	p := 8
	if s := os.Getenv("TWOFACE_BENCH_P"); s != "" {
		if v, err := strconv.Atoi(s); err == nil && v > 0 {
			p = v
		}
	}
	return harness.Config{Scale: scale, Seed: 42, Options: twoface.Options{Nodes: p, Workers: 2, TimingOnly: true}}
}

// Workloads are cached across benchmarks: generating friendster's millions
// of nonzeros dominates otherwise.
var (
	wlMu    sync.Mutex
	wlCache = map[string]*harness.Workload{}
)

func workload(b *testing.B, name string) *harness.Workload {
	b.Helper()
	wlMu.Lock()
	defer wlMu.Unlock()
	if w, ok := wlCache[name]; ok {
		return w
	}
	spec, err := gen.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	w := benchConfig().BuildWorkload(spec)
	wlCache[name] = w
	return w
}

// BenchmarkTable1_Matrices regenerates the matrix inventory.
func BenchmarkTable1_Matrices(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		t := cfg.Table1()
		if len(t.RowHead) != 8 {
			b.Fatal("table 1 incomplete")
		}
	}
}

// BenchmarkFigure2_AsyncVsCollectives regenerates the motivation study:
// Async Fine vs Allgather for K in {32, 128}.
func BenchmarkFigure2_AsyncVsCollectives(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		t := cfg.Figure2()
		b.ReportMetric(t.Value("web", "K=128"), "web-speedup")
		b.ReportMetric(t.Value("twitter", "K=128"), "twitter-speedup")
	}
}

func speedupFigure(b *testing.B, k int) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		t := cfg.SpeedupFigure(k)
		b.ReportMetric(t.Value("avg", "TwoFace"), "avg-speedup-vs-DS2")
		b.ReportMetric(t.Value("web", "TwoFace"), "web-speedup")
	}
}

// BenchmarkFigure7_K32 regenerates the K=32 speedup figure.
func BenchmarkFigure7_K32(b *testing.B) { speedupFigure(b, 32) }

// BenchmarkFigure8_K128 regenerates the K=128 speedup figure (the paper's
// headline 2.11x average over dense shifting).
func BenchmarkFigure8_K128(b *testing.B) { speedupFigure(b, 128) }

// BenchmarkFigure9_K512 regenerates the K=512 speedup figure.
func BenchmarkFigure9_K512(b *testing.B) { speedupFigure(b, 512) }

// BenchmarkTable3_Calibration fits the six model coefficients by regression
// on profiled runs (paper section 6.2).
func BenchmarkTable3_Calibration(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		fitted, truth, err := cfg.Calibrate()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(fitted.GammaA/truth.GammaA, "gammaA-fit-ratio")
		b.ReportMetric(fitted.BetaA/truth.BetaA, "betaA-fit-ratio")
	}
}

// BenchmarkTable5_AbsoluteTimes regenerates the absolute-time table for DS2
// and Two-Face at K in {32, 128, 512}.
func BenchmarkTable5_AbsoluteTimes(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		t := cfg.Table5()
		b.ReportMetric(t.Value("K=128 Two-Face", "web")*1e6, "web-twoface-us")
		b.ReportMetric(t.Value("K=128 DS2", "web")*1e6, "web-ds2-us")
	}
}

// BenchmarkFigure10_Breakdown regenerates the DS4-vs-Two-Face time
// breakdown at K=128.
func BenchmarkFigure10_Breakdown(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		t := cfg.Figure10()
		b.ReportMetric(t.Value("web", "2F/DS4 time"), "web-2F-over-DS4")
		b.ReportMetric(t.Value("twitter", "2F SyncComm"), "twitter-2F-synccomm")
	}
}

// BenchmarkFigure11_Scaling regenerates the strong-scaling study
// (p = 1..16 by default; the paper goes to 64).
func BenchmarkFigure11_Scaling(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		tables := cfg.Figure11([]int{1, 2, 4, 8, 16})
		for _, t := range tables {
			if t.Title == "" {
				b.Fatal("missing table")
			}
		}
		web := tables[6] // Table 1 order: web is 7th
		b.ReportMetric(web.Value("TwoFace", "p=1")/web.Value("TwoFace", "p=16"), "web-scaling-1to16")
	}
}

// BenchmarkTable6_Preprocessing regenerates the preprocessing-overhead
// table (modeled preprocessing cost per SpMM).
func BenchmarkTable6_Preprocessing(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		t := cfg.Table6()
		b.ReportMetric(t.Value("avg", "t_norm"), "avg-tnorm")
		b.ReportMetric(t.Value("avg", "t_norm_io"), "avg-tnorm-io")
	}
}

// BenchmarkFigure12_Sensitivity regenerates the coefficient-sensitivity
// grids.
func BenchmarkFigure12_Sensitivity(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		tables := cfg.Figure12()
		if len(tables) != 3 {
			b.Fatal("want 3 sensitivity grids")
		}
		b.ReportMetric(tables[1].Value("1.0x", "0.8x"), "betaS-0.8x-reltime")
	}
}

// --- Ablation benches: design choices DESIGN.md section 3 calls out. ---

func runTwoFaceModeled(b *testing.B, w *harness.Workload, k int, mutate func(*core.Params)) float64 {
	b.Helper()
	cfg := benchConfig()
	params := core.Params{
		P: cfg.Nodes, K: k, W: w.W,
		Coef:           cfg.Coef(),
		MemBudgetElems: cfg.MemBudget(),
	}
	if mutate != nil {
		mutate(&params)
	}
	prep, err := core.Preprocess(w.A, params)
	if err != nil {
		b.Fatal(err)
	}
	clu, err := newCluster(cfg)
	if err != nil {
		b.Fatal(err)
	}
	res, err := core.Exec(prep, w.B(k), clu, core.ExecOptions{SkipCompute: true})
	if err != nil {
		b.Fatal(err)
	}
	return res.ModeledSeconds
}

// BenchmarkAblation_Coalescing sweeps the async row-coalescing gap
// (section 5.2.3; Table 2 default 127/K+1).
func BenchmarkAblation_Coalescing(b *testing.B) {
	for _, gap := range []int32{1, 2, 8, 32} {
		b.Run(fmt.Sprintf("gap=%d", gap), func(b *testing.B) {
			w := workload(b, "kmer")
			for i := 0; i < b.N; i++ {
				t := runTwoFaceModeled(b, w, 32, func(p *core.Params) { p.MaxCoalesceGap = gap })
				b.ReportMetric(t*1e6, "modeled-us")
			}
		})
	}
}

// BenchmarkAblation_RowPanelHeight sweeps the sync row-panel height
// (Table 2 default 32).
func BenchmarkAblation_RowPanelHeight(b *testing.B) {
	for _, h := range []int32{8, 32, 128} {
		b.Run(fmt.Sprintf("h=%d", h), func(b *testing.B) {
			w := workload(b, "web")
			for i := 0; i < b.N; i++ {
				t := runTwoFaceModeled(b, w, 128, func(p *core.Params) { p.RowPanelHeight = h })
				b.ReportMetric(t*1e6, "modeled-us")
			}
		})
	}
}

// BenchmarkAblation_StripeWidth sweeps W around the Table 1 value (the
// paper found widths must scale with the matrix).
func BenchmarkAblation_StripeWidth(b *testing.B) {
	w := workload(b, "twitter")
	for _, f := range []int32{4, 2, 1} {
		b.Run(fmt.Sprintf("W=%d", w.W/f), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				t := runTwoFaceModeled(b, w, 128, func(p *core.Params) { p.W = w.W / f })
				b.ReportMetric(t*1e6, "modeled-us")
			}
		})
	}
}

// BenchmarkAblation_ThreadSplit sweeps the modeled async-compute thread
// allocation (Table 2 dedicates 8 of 128 threads).
func BenchmarkAblation_ThreadSplit(b *testing.B) {
	for _, threads := range []int{2, 8, 32} {
		b.Run(fmt.Sprintf("asyncComp=%d", threads), func(b *testing.B) {
			w := workload(b, "mawi")
			for i := 0; i < b.N; i++ {
				t := runTwoFaceModeled(b, w, 128, func(p *core.Params) {
					p.ModelAsyncCompThreads = threads
					p.ModelSyncThreads = 128 - 2 - threads
				})
				b.ReportMetric(t*1e6, "modeled-us")
			}
		})
	}
}

// BenchmarkAblation_Sampling measures the modeled time of sampled SpMM
// (paper section 5.4 future work) at decreasing keep rates: transfers stay
// constant while compute shrinks.
func BenchmarkAblation_Sampling(b *testing.B) {
	for _, keep := range []float64{1.0, 0.5, 0.1} {
		b.Run(fmt.Sprintf("keep=%.1f", keep), func(b *testing.B) {
			w := workload(b, "mawi")
			cfg := benchConfig()
			params := core.Params{P: cfg.Nodes, K: 128, W: w.W, Coef: cfg.Coef(), MemBudgetElems: cfg.MemBudget()}
			prep, err := core.Preprocess(w.A, params)
			if err != nil {
				b.Fatal(err)
			}
			clu, err := newCluster(cfg)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				res, err := core.Exec(prep, w.B(128), clu, core.ExecOptions{SkipCompute: true, SampleKeep: keep, SampleSeed: uint64(i)})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.ModeledSeconds*1e6, "modeled-us")
			}
		})
	}
}

// BenchmarkAblation_BalancedPartition compares equal row blocks (the
// paper's choice) against nnz-balanced blocks on the load-imbalanced mawi
// analog (extension; see internal/core/balance.go).
func BenchmarkAblation_BalancedPartition(b *testing.B) {
	for _, balanced := range []bool{false, true} {
		name := "equal"
		if balanced {
			name = "balanced"
		}
		b.Run(name, func(b *testing.B) {
			w := workload(b, "mawi")
			for i := 0; i < b.N; i++ {
				t := runTwoFaceModeled(b, w, 128, func(p *core.Params) { p.BalanceRows = balanced })
				b.ReportMetric(t*1e6, "modeled-us")
			}
		})
	}
}

// BenchmarkAblation_RCMReorder measures Two-Face on a scatter-destroyed
// banded matrix before and after RCM reordering restores its locality
// (extension; see internal/sparse/rcm.go).
func BenchmarkAblation_RCMReorder(b *testing.B) {
	cfg := benchConfig()
	spec, err := gen.ByName("stokes")
	if err != nil {
		b.Fatal(err)
	}
	a := spec.Build(cfg.Scale, cfg.Seed)
	// Destroy the ordering with a deterministic Fisher-Yates permutation.
	n := a.NumRows
	shuffle := make([]int32, n)
	for i := range shuffle {
		shuffle[i] = int32(i)
	}
	state := uint64(0x9e3779b97f4a7c15)
	for i := int32(n - 1); i > 0; i-- {
		state = state*6364136223846793005 + 1442695040888963407
		j := int32(state % uint64(i+1))
		shuffle[i], shuffle[j] = shuffle[j], shuffle[i]
	}
	shuffled, err := a.PermuteSymmetric(shuffle)
	if err != nil {
		b.Fatal(err)
	}
	perm, err := sparse.RCM(shuffled)
	if err != nil {
		b.Fatal(err)
	}
	restored, err := shuffled.PermuteSymmetric(perm)
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name string
		m    *sparse.COO
	}{{"shuffled", shuffled}, {"rcm", restored}} {
		b.Run(c.name, func(b *testing.B) {
			wl := cfg.BuildWorkload(spec)
			wl.A = c.m
			for i := 0; i < b.N; i++ {
				t := runTwoFaceModeled(b, wl, 128, nil)
				b.ReportMetric(t*1e6, "modeled-us")
				b.ReportMetric(float64(c.m.Bandwidth()), "bandwidth")
			}
		})
	}
}

// BenchmarkAblation_TargetContention charges targets a fraction of each
// one-sided transfer (the resource contention the paper cites for limiting
// async threads) and measures Async Fine's degradation on kmer, the most
// get-heavy workload.
func BenchmarkAblation_TargetContention(b *testing.B) {
	for _, f := range []float64{0, 0.5, 1.0} {
		b.Run(fmt.Sprintf("contention=%.1f", f), func(b *testing.B) {
			w := workload(b, "kmer")
			cfg := benchConfig()
			net := cfg.Net()
			net.TargetContention = f
			for i := 0; i < b.N; i++ {
				clu, err := cluster.New(cfg.Nodes, net)
				if err != nil {
					b.Fatal(err)
				}
				res, err := baselines.AsyncFine(w.A, w.B(32), clu, w.W, baselines.Options{SkipCompute: true, MemBudgetElems: cfg.MemBudget()})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.ModeledSeconds*1e6, "modeled-us")
			}
		})
	}
}

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

// multiply is the shipped loop in its shared-row form: one AxpyGather per row
// into the cleared panel-local row, flushed with one atomic AddRange.
func (g *panelGather) multiply(table [][]float64, out *atomicfloat.Slice, acc []float64, k int) {
	for i, row := range g.rows {
		lo, hi := g.runs[i], g.runs[i+1]
		clear(acc)
		kernels.AxpyGather(acc, g.vals[2*lo:], 2, g.slots[lo:hi], table)
		out.AddRange(int(row)*k, acc)
	}
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

// BenchmarkKernelPanelMultiply measures Algorithm 2's row-panel multiply:
// "gather" as shipped (plan-derived column table, one register-tiled
// AxpyGather per output row) and "tiled" as before it (pair-tiled Axpy2
// accumulation), both into a panel-local row with one atomic AddRange per
// output row. Steady state must not allocate.
func BenchmarkKernelPanelMultiply(b *testing.B) {
	entries := benchPanel()
	g := newPanelGather(entries)
	const rows, nCols = 32, 128
	for _, k := range benchKs {
		table := benchPanelTable(nCols, k)
		run := func(b *testing.B, multiply func(out *atomicfloat.Slice, acc []float64)) {
			out := atomicfloat.View(make([]float64, rows*k))
			acc := make([]float64, k)
			b.ReportAllocs()
			b.SetBytes(int64(len(entries) * k * 16))
			b.ResetTimer()
			for it := 0; it < b.N; it++ {
				multiply(out, acc)
			}
		}
		b.Run(fmt.Sprintf("K=%d/gather", k), func(b *testing.B) {
			run(b, func(out *atomicfloat.Slice, acc []float64) { g.multiply(table, out, acc, k) })
		})
		b.Run(fmt.Sprintf("K=%d/tiled", k), func(b *testing.B) {
			run(b, func(out *atomicfloat.Slice, acc []float64) { panelMultiplyTiled(entries, table, out, acc, k) })
		})
	}
}

// BenchmarkKernelPanelVariants decomposes the panel-multiply speedup into its
// ingredients: "generic" is one scalar Axpy per nonzero through the pure-Go
// loops, "simd" is the same per-nonzero loop through the dispatched kernel,
// "tiled" adds the pair-wise Axpy2 register tiling on top (the formulation
// before AxpyGather), and "gather" holds the output tile in registers across
// the whole row (the shipped formulation, as in BenchmarkKernelPanelMultiply).
func BenchmarkKernelPanelVariants(b *testing.B) {
	entries := benchPanel()
	g := newPanelGather(entries)
	const rows, nCols = 32, 128
	impls := kernels.Implementations()
	generic := impls[0]
	for _, k := range benchKs {
		table := benchPanelTable(nCols, k)
		run := func(b *testing.B, multiply func(out *atomicfloat.Slice, acc []float64)) {
			out := atomicfloat.View(make([]float64, rows*k))
			acc := make([]float64, k)
			b.ReportAllocs()
			b.SetBytes(int64(len(entries) * k * 16))
			b.ResetTimer()
			for it := 0; it < b.N; it++ {
				multiply(out, acc)
			}
		}
		perNZ := func(axpy func(float64, []float64, []float64)) func(out *atomicfloat.Slice, acc []float64) {
			return func(out *atomicfloat.Slice, acc []float64) {
				clear(acc)
				prevRow := entries[0].Row
				for _, e := range entries {
					if e.Row != prevRow {
						out.AddRange(int(prevRow)*k, acc)
						clear(acc)
						prevRow = e.Row
					}
					axpy(e.Val, table[e.Col], acc)
				}
				out.AddRange(int(prevRow)*k, acc)
			}
		}
		b.Run(fmt.Sprintf("K=%d/generic", k), func(b *testing.B) {
			run(b, perNZ(generic.Axpy))
		})
		b.Run(fmt.Sprintf("K=%d/simd", k), func(b *testing.B) {
			run(b, perNZ(kernels.Axpy))
		})
		b.Run(fmt.Sprintf("K=%d/tiled", k), func(b *testing.B) {
			run(b, func(out *atomicfloat.Slice, acc []float64) { panelMultiplyTiled(entries, table, out, acc, k) })
		})
		b.Run(fmt.Sprintf("K=%d/gather", k), func(b *testing.B) {
			run(b, func(out *atomicfloat.Slice, acc []float64) { g.multiply(table, out, acc, k) })
		})
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

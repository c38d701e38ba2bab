package harness

import (
	"fmt"
	"math/rand/v2"

	"twoface/internal/core"
	"twoface/internal/gen"
	"twoface/internal/sparse"
)

// Ablations sweeps the design choices the paper calls out and this
// repository's extensions, one knob at a time from the shipped
// configuration, at this configuration's scale: the row-coalescing gap, the
// panel height, the stripe width, the model's thread split, sampled SpMM,
// nnz-balanced row blocks at Nodes and at the paper's 32 nodes, RCM
// reordering, target-side contention, and the deployment of Table 3's
// fitted coefficients. Every run is timing-only with one worker per queue,
// so each table prints the same digits on every run.
func (c Config) Ablations() ([]*Table, error) {
	cc := c.normalize()
	cc.Workers, cc.AsyncWorkers, cc.TimingOnly = 1, 1, true
	p32 := cc
	p32.Nodes = 32
	var tables []*Table
	for _, ablate := range []func() (*Table, error){
		cc.ablateCoalescing, cc.ablatePanelHeight, cc.ablateStripeWidth, cc.ablateThreadSplit, cc.ablateSampling,
		cc.ablateBalancedRows, p32.ablateBalancedRows, cc.ablateRCM, cc.ablateContention, cc.ablateCoefficients,
	} {
		t, err := ablate()
		if err != nil {
			return nil, err
		}
		tables = append(tables, t)
	}
	return tables, nil
}

// named builds a registry matrix; every name Ablations passes is one.
func (c Config) named(name string) *Workload {
	spec, err := gen.ByName(name)
	if err != nil {
		panic(err)
	}
	return c.BuildWorkload(spec)
}

// labelled formats one row label per value.
func labelled[T any](format string, values []T) []string {
	labels := make([]string, len(values))
	for i, v := range values {
		labels[i] = fmt.Sprintf(format, v)
	}
	return labels
}

// sweep renders one ablation of w at K=k: a row per label with modeled(i),
// the row's modeled seconds, and its ratio to row def, the shipped setting.
func (c Config) sweep(what string, w *Workload, k int, labels []string, def int, modeled func(i int) (float64, error)) (*Table, error) {
	labels[def] += " (default)"
	t := NewTable(fmt.Sprintf("Ablation: %s, %s, K=%d, p=%d", what, w.Spec.Short, k, c.Nodes),
		labels, []string{"modeled (us)", "vs default"})
	times := make([]float64, len(labels))
	for i := range labels {
		s, err := modeled(i)
		if err != nil {
			return nil, fmt.Errorf("harness: %s ablation, %s: %w", what, labels[i], err)
		}
		times[i] = s
	}
	for i, s := range times {
		t.Set(i, 0, s*1e6, "%.4g")
		t.Set(i, 1, s/times[def], "%.3f")
	}
	return t, nil
}

func (c Config) ablateCoalescing() (*Table, error) {
	w, gaps := c.named("kmer"), []int32{1, 2, 4, 8, 32} // Table 2's 127/K+1 is 4 at K=32
	return c.sweep("row-coalescing gap", w, 32, labelled("gap=%d", gaps), 2, func(i int) (float64, error) {
		return c.modeled(w, 32, func(p *core.Params, _ *core.ExecOptions) { p.MaxCoalesceGap = gaps[i] })
	})
}

func (c Config) ablatePanelHeight() (*Table, error) {
	w, heights := c.named("web"), []int32{8, 32, 128}
	return c.sweep("row-panel height", w, 128, labelled("h=%d", heights), 1, func(i int) (float64, error) {
		return c.modeled(w, 128, func(p *core.Params, _ *core.ExecOptions) { p.RowPanelHeight = heights[i] })
	})
}

// ablateStripeWidth sweeps W around the Table 1 value (the paper found
// widths must scale with the matrix).
func (c Config) ablateStripeWidth() (*Table, error) {
	w := c.named("twitter")
	widths := []int32{w.W / 4, w.W / 2, w.W, 2 * w.W}
	return c.sweep("stripe width", w, 128, labelled("W=%d", widths), 2, func(i int) (float64, error) {
		return c.modeled(w, 128, func(p *core.Params, _ *core.ExecOptions) { p.W = widths[i] })
	})
}

// ablateThreadSplit moves the model's node threads between sync and async
// compute (Table 2 dedicates 8 of 128 to async compute).
func (c Config) ablateThreadSplit() (*Table, error) {
	w, acts := c.named("mawi"), []int{2, 8, 32}
	return c.sweep("async-compute threads", w, 128, labelled("async=%d", acts), 1, func(i int) (float64, error) {
		return c.modeled(w, 128, func(p *core.Params, _ *core.ExecOptions) {
			p.ModelAsyncCompThreads, p.ModelSyncThreads = acts[i], modelThreads-acts[i]
		})
	})
}

// ablateSampling runs sampled SpMM (section 5.4) at decreasing keep rates:
// transfers stay, compute shrinks.
func (c Config) ablateSampling() (*Table, error) {
	w, keeps := c.named("mawi"), []float64{1, 0.5, 0.1}
	return c.sweep("sampling keep rate", w, 128, labelled("keep=%.1f", keeps), 0, func(i int) (float64, error) {
		return c.modeled(w, 128, func(_ *core.Params, e *core.ExecOptions) { e.SampleKeep, e.SampleSeed = keeps[i], c.Seed })
	})
}

// ablateBalancedRows compares the paper's equal row blocks with blocks that
// equalize nonzeros per node on mawi, whose nonzeros crowd into a few row
// blocks.
func (c Config) ablateBalancedRows() (*Table, error) {
	w := c.named("mawi")
	return c.sweep("nnz-balanced row blocks", w, 128, []string{"equal", "balanced"}, 0, func(i int) (float64, error) {
		return c.modeled(w, 128, func(p *core.Params, _ *core.ExecOptions) { p.BalanceRows = i == 1 })
	})
}

// ablateRCM destroys stokes' banded ordering with a fixed symmetric
// permutation and lets RCM reordering restore it.
func (c Config) ablateRCM() (*Table, error) {
	w := c.named("stokes")
	shuffle := make([]int32, w.A.NumRows)
	for i, j := range rand.New(rand.NewPCG(7, 7)).Perm(len(shuffle)) {
		shuffle[i] = int32(j)
	}
	shuffled, err := w.A.PermuteSymmetric(shuffle)
	if err != nil {
		return nil, err
	}
	perm, err := sparse.RCM(shuffled)
	if err != nil {
		return nil, err
	}
	restored, err := shuffled.PermuteSymmetric(perm)
	if err != nil {
		return nil, err
	}
	orders := []*sparse.COO{w.A, shuffled, restored}
	labels := []string{"generated", "shuffled", "shuffled+RCM"}
	for i, a := range orders {
		labels[i] += fmt.Sprintf(", bandwidth %d", a.Bandwidth())
	}
	return c.sweep("RCM reordering", w, 128, labels, 0, func(i int) (float64, error) {
		v := *w
		v.A = orders[i]
		return c.modeled(&v, 128, nil)
	})
}

// ablateContention charges each one-sided target a fraction of every
// transfer it serves (the resource contention the paper cites for limiting
// async threads) and runs Async Fine on kmer, the most get-heavy workload.
func (c Config) ablateContention() (*Table, error) {
	w, fracs := c.named("kmer"), []float64{0, 0.5, 1}
	return c.sweep("target-side contention, AsyncFine", w, 32, labelled("contention=%.1f", fracs), 0, func(i int) (float64, error) {
		opts := c.options(w, 32, c.Nodes)
		net := *opts.Net
		net.TargetContention = fracs[i]
		opts.Net = &net
		out := run(AlgoAsyncFine, w, opts)
		return orNaN(out), out.Err
	})
}

// ablateCoefficients deploys the coefficients Table 3's regression fits in
// place of the machine truth, on every matrix at K=128: what the section 6.2
// calibration would cost a user who trusted it.
func (c Config) ablateCoefficients() (*Table, error) {
	fitted, _, _, err := c.Calibrate()
	if err != nil {
		return nil, err
	}
	t := NewTable(fmt.Sprintf("Ablation: Table 3's fitted coefficients vs machine truth, K=128, p=%d", c.Nodes),
		MatrixNames(), []string{"truth (us)", "fitted (us)", "fitted/truth"})
	for i, s := range gen.Specs() {
		w := c.BuildWorkload(s)
		truth, err := c.modeled(w, 128, nil)
		if err != nil {
			return nil, err
		}
		fit, err := c.modeled(w, 128, func(p *core.Params, _ *core.ExecOptions) { p.Coef = fitted })
		if err != nil {
			return nil, err
		}
		t.Set(i, 0, truth*1e6, "%.4g")
		t.Set(i, 1, fit*1e6, "%.4g")
		t.Set(i, 2, fit/truth, "%.3f")
	}
	t.Note = "Fitted: Table 3's regression (twitter, K=32). Truth: the machine's own coefficients, as every other table uses."
	return t, nil
}

// Command twoface-prep runs Two-Face preprocessing offline: it reads a
// sparse matrix (Matrix Market or binary), classifies its stripes for a
// given cluster size and dense width, reports the classification, and
// optionally writes the per-node sparse parts in the bespoke binary format
// (the paper's section 7.3 pipeline). The plan is the one
// twoface.System.Preprocess builds for the same matrix, nodes and width.
//
// Usage:
//
//	twoface-prep -in web.mtx -p 8 -K 128
//	twoface-prep -in web.bin -p 8 -K 128 -W 256 -outdir parts/
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"twoface"
	"twoface/internal/core"
	"twoface/internal/sparse"
)

type config struct {
	in, outdir, plan string
	p, k, w          int
}

func main() {
	var c config
	flag.StringVar(&c.in, "in", "", "input matrix (.mtx MatrixMarket or .bin bespoke binary); required")
	flag.IntVar(&c.p, "p", 8, "number of nodes")
	flag.IntVar(&c.k, "K", 128, "dense matrix columns")
	flag.IntVar(&c.w, "W", 0, "stripe width (0 = cols/512 rounded to a power of two)")
	flag.StringVar(&c.outdir, "outdir", "", "if set, write per-node sync/async parts here")
	flag.StringVar(&c.plan, "plan", "", "if set, write the complete preprocessing plan here (load with twoface-run -plan)")
	flag.Parse()
	if c.in == "" {
		fmt.Fprintln(os.Stderr, "twoface-prep: -in is required")
		os.Exit(2)
	}
	if err := run(c, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "twoface-prep:", err)
		os.Exit(1)
	}
}

func run(c config, out io.Writer) error {
	var a *twoface.SparseMatrix
	var err error
	if strings.HasSuffix(c.in, ".bin") {
		a, err = twoface.ReadBinaryFile(c.in)
	} else {
		a, err = twoface.ReadMatrixMarketFile(c.in)
	}
	if err != nil {
		return err
	}

	w := int32(c.w)
	if w == 0 {
		w = core.AutoWidth(a.NumCols)
	}
	sys, err := twoface.New(twoface.Options{Nodes: c.p, DenseColumns: c.k, StripeWidth: w})
	if err != nil {
		return err
	}
	plan, err := sys.Preprocess(a)
	if err != nil {
		return err
	}
	s := plan.Stats()
	fmt.Fprintf(out, "matrix: %dx%d, %d nonzeros; p=%d K=%d W=%d\n", a.NumRows, a.NumCols, s.TotalNNZ, c.p, c.k, w)
	fmt.Fprintf(out, "classification: %d local-input nnz, %d sync nnz (%d stripes), %d async nnz (%d stripes)\n",
		s.LocalInputNNZ, s.SyncNNZ, s.SyncStripes, s.AsyncNNZ, s.AsyncStripes)
	fmt.Fprintf(out, "multicast fan-out: avg %.1f, max %d; memory-cap flips: %d\n",
		s.AvgMulticastFanout, s.MaxMulticastFanout, s.MemCapFlips)
	fmt.Fprintf(out, "preprocessing wall time: %.3fs (modeled single-node: %.3fs, with I/O: %.3fs)\n",
		s.WallSeconds, s.ModeledPrepSeconds, s.ModeledPrepWithIOSeconds)

	planPath := c.plan
	if planPath == "" && c.outdir != "" {
		dir, err := os.MkdirTemp("", "twoface-prep")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		planPath = filepath.Join(dir, "plan.tfp")
	}
	if planPath == "" {
		return nil
	}
	if err := plan.Save(planPath); err != nil {
		return err
	}
	if c.plan != "" {
		fmt.Fprintf(out, "wrote preprocessing plan to %s\n", c.plan)
	}
	if c.outdir == "" {
		return nil
	}
	// The parts are cut from the saved plan: the bytes an executor loads.
	prep, err := core.ReadPrepFile(planPath)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(c.outdir, 0o755); err != nil {
		return err
	}
	for i := range prep.Nodes {
		np := &prep.Nodes[i]
		if err := writePart(filepath.Join(c.outdir, fmt.Sprintf("node%d.sync.bin", i)),
			np.Sync.Entries, np.RowHi-np.RowLo, a.NumCols); err != nil {
			return err
		}
		if err := writePart(filepath.Join(c.outdir, fmt.Sprintf("node%d.async.bin", i)),
			np.Async.Entries, np.RowHi-np.RowLo, a.NumCols); err != nil {
			return err
		}
	}
	fmt.Fprintf(out, "wrote %d per-node part files to %s\n", 2*len(prep.Nodes), c.outdir)
	return nil
}

func writePart(path string, entries []sparse.NZ, rows, cols int32) error {
	part := &sparse.COO{NumRows: rows, NumCols: cols, Entries: entries}
	return sparse.WriteBinaryFile(path, part)
}

// Command twoface-gen emits synthetic analogs of the paper's evaluation
// matrices (Table 1) as Matrix Market text or bespoke binary files.
//
// Usage:
//
//	twoface-gen -matrix web -scale 0.25 -o web.mtx
//	twoface-gen -matrix kmer -format binary -o kmer.bin
//	twoface-gen -list
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"twoface"
	"twoface/internal/gen"
)

// errUsage marks a command line the tool cannot act on; main exits 2 on it.
var errUsage = errors.New("usage")

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "twoface-gen:", err)
		if errors.Is(err, errUsage) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// run parses args, writes the requested matrix (or the -list registry
// table), and prints its report to out.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("twoface-gen", flag.ContinueOnError)
	var (
		name   = fs.String("matrix", "", "matrix short name (see -list)")
		scale  = fs.Float64("scale", 1.0, "scale relative to the registry (1.0 = 1/512 of the paper)")
		seed   = fs.Uint64("seed", 42, "generator seed")
		format = fs.String("format", "mm", "output format: mm (MatrixMarket) or binary")
		path   = fs.String("o", "", "output file (required unless -list)")
		list   = fs.Bool("list", false, "list available matrices and exit")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return fmt.Errorf("%w: %v", errUsage, err)
	}

	if *list {
		fmt.Fprintln(out, "matrix      rows(scale=1)  avg deg  stripe W  paper analog")
		for _, s := range gen.Specs() {
			fmt.Fprintf(out, "%-11s %13d  %7.2f  %8d  %s\n", s.Short, s.Rows, s.AvgDeg, s.Width, s.Long)
		}
		return nil
	}
	if *name == "" || *path == "" {
		return fmt.Errorf("%w: -matrix and -o are required (or -list)", errUsage)
	}
	spec, err := gen.ByName(*name)
	if err != nil {
		return err
	}
	m := spec.Build(*scale, *seed)
	switch *format {
	case "mm":
		err = twoface.WriteMatrixMarketFile(*path, m)
	case "binary":
		err = twoface.WriteBinaryFile(*path, m)
	default:
		err = fmt.Errorf("unknown format %q (want mm or binary)", *format)
	}
	if err != nil {
		return err
	}
	st := m.ComputeStats()
	fmt.Fprintf(out, "wrote %s: %dx%d, %d nonzeros (avg %.2f/row), stripe width %d\n",
		*path, st.NumRows, st.NumCols, st.NNZ, st.AvgPerRow, spec.ScaledWidth(*scale))
	return nil
}

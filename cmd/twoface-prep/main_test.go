package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"twoface"
	"twoface/internal/sparse"
)

// The -plan file is the plan the library builds for the same matrix, nodes
// and dense width, byte for byte. queen at scale 1 has 8 100 columns: the
// Table 1 rule picks W=16 there, where rounding cols/512 down gives 8.
func TestPlanMatchesLibrary(t *testing.T) {
	dir := t.TempDir()
	a := twoface.Generate("queen", 1, 3)
	in := filepath.Join(dir, "queen.bin")
	if err := twoface.WriteBinaryFile(in, a); err != nil {
		t.Fatal(err)
	}
	const p, k = 4, 32
	c := config{in: in, p: p, k: k, plan: filepath.Join(dir, "cli.tfp"), outdir: filepath.Join(dir, "parts")}
	var out bytes.Buffer
	if err := run(c, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), fmt.Sprintf("p=%d K=%d W=16\n", p, k)) {
		t.Fatalf("report does not name W=16:\n%s", out.String())
	}

	sys, err := twoface.New(twoface.Options{Nodes: p, DenseColumns: k})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := sys.Preprocess(a)
	if err != nil {
		t.Fatal(err)
	}
	lib := filepath.Join(dir, "lib.tfp")
	if err := plan.Save(lib); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(c.plan)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(lib)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("-plan wrote %d bytes that differ from the library's %d-byte plan", len(got), len(want))
	}

	// The per-node parts hold every nonzero exactly once.
	var nnz int
	for i := 0; i < p; i++ {
		for _, kind := range []string{"sync", "async"} {
			part, err := sparse.ReadBinaryFile(filepath.Join(c.outdir, fmt.Sprintf("node%d.%s.bin", i, kind)))
			if err != nil {
				t.Fatal(err)
			}
			nnz += part.NNZ()
		}
	}
	if nnz != a.NNZ() {
		t.Fatalf("parts hold %d nonzeros, matrix has %d", nnz, a.NNZ())
	}
}

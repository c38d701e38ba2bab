package main

import (
	"bytes"
	"errors"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"twoface"
	"twoface/internal/gen"
)

func TestListNamesEveryMatrix(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-list"}, &out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	specs := gen.Specs()
	if len(specs) != 8 || len(lines) != 1+len(specs) {
		t.Fatalf("-list printed %d lines for %d matrices, want a header and 8 rows:\n%s", len(lines), len(specs), out.String())
	}
	for i, s := range specs {
		if f := strings.Fields(lines[1+i]); len(f) == 0 || f[0] != s.Short {
			t.Errorf("-list row %d = %q, want matrix %q", i, lines[1+i], s.Short)
		}
	}
}

// Both formats write the generator's matrix, and it reads back equal.
func TestWriteReadsBack(t *testing.T) {
	want := twoface.Generate("queen", 0.02, 42)
	dir := t.TempDir()
	for _, c := range []struct {
		format string
		read   func(string) (*twoface.SparseMatrix, error)
	}{
		{"mm", twoface.ReadMatrixMarketFile},
		{"binary", twoface.ReadBinaryFile},
	} {
		path := filepath.Join(dir, "queen."+c.format)
		var out bytes.Buffer
		if err := run([]string{"-matrix", "queen", "-scale", "0.02", "-format", c.format, "-o", path}, &out); err != nil {
			t.Fatalf("%s: %v", c.format, err)
		}
		if !strings.HasPrefix(out.String(), "wrote "+path) {
			t.Errorf("%s: report = %q", c.format, out.String())
		}
		got, err := c.read(path)
		if err != nil {
			t.Fatalf("%s: %v", c.format, err)
		}
		if got.NumRows != want.NumRows || got.NumCols != want.NumCols || !reflect.DeepEqual(got.Entries, want.Entries) {
			t.Fatalf("%s: read back %dx%d with %d entries, want %dx%d with %d, or the entries differ",
				c.format, got.NumRows, got.NumCols, len(got.Entries), want.NumRows, want.NumCols, len(want.Entries))
		}
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{nil, {"-matrix", "queen"}, {"-no-such-flag"}} {
		if err := run(args, &bytes.Buffer{}); !errors.Is(err, errUsage) {
			t.Errorf("run(%q) = %v, want a usage error", args, err)
		}
	}
	if err := run([]string{"-matrix", "nope", "-o", filepath.Join(t.TempDir(), "x")}, &bytes.Buffer{}); err == nil || errors.Is(err, errUsage) {
		t.Errorf("unknown matrix: err = %v, want a non-usage error", err)
	}
}

package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"testing"

	"twoface/internal/cluster"
	"twoface/internal/dense"
	"twoface/internal/gen"
	"twoface/internal/kernels"
)

// chainedPanelRows is the test oracle for the sync panel loop: every
// single-writer row of every node, summed from +0 by one Axpy per sync entry
// in entry order. It returns the rows it filled (global indices) and their
// values in a C-shaped matrix.
func chainedPanelRows(prep *Prep, b *dense.Matrix) ([]int, *dense.Matrix) {
	k := prep.Params.K
	want := dense.New(int(prep.Layout.NumRows), k)
	var rows []int
	for n := range prep.Nodes {
		np := &prep.Nodes[n]
		shared := np.sharedRows()
		seen := make([]bool, len(shared))
		for _, e := range np.Sync.Entries {
			if shared[e.Row] {
				continue
			}
			g := int(np.RowLo + e.Row)
			if !seen[e.Row] {
				seen[e.Row] = true
				rows = append(rows, g)
			}
			kernels.Axpy(e.Val, b.Row(int(e.Col)), want.Row(g))
		}
	}
	return rows, want
}

// TestSyncRowsMatchChainedAxpy pins the panel loop's rounding: on every
// registry matrix, each C row only its sync panel writes must hold, bit for
// bit, the chained Axpy sum of the row's entries in entry order — with
// pinned workers and with the default worker counts. scripts/check.sh also
// runs it under -race in both kernel-dispatch modes.
func TestSyncRowsMatchChainedAxpy(t *testing.T) {
	for _, spec := range gen.Specs() {
		t.Run(spec.Short, func(t *testing.T) {
			t.Parallel()
			const scale = 0.004
			a := spec.Build(scale, 7)
			for _, k := range []int{16, 37} {
				b := dense.Random(int(a.NumCols), k, 8)
				prep, err := Preprocess(a, Params{P: 4, K: k, W: spec.ScaledWidth(scale)})
				if err != nil {
					t.Fatal(err)
				}
				rows, want := chainedPanelRows(prep, b)
				if len(rows) == 0 {
					t.Fatalf("k=%d: no single-writer sync rows to check", k)
				}
				for _, opts := range []ExecOptions{{SyncWorkers: 1, AsyncWorkers: 1}, {}} {
					clu, err := cluster.New(4, cluster.Default())
					if err != nil {
						t.Fatal(err)
					}
					res, err := Exec(prep, b, clu, opts)
					if err != nil {
						t.Fatal(err)
					}
					for _, g := range rows {
						got, exp := res.C.Row(g), want.Row(g)
						for i := range exp {
							if math.Float64bits(got[i]) != math.Float64bits(exp[i]) {
								t.Fatalf("k=%d workers %d/%d: C[%d][%d] = %x, chained Axpy gives %x",
									k, opts.SyncWorkers, opts.AsyncWorkers, g, i, math.Float64bits(got[i]), math.Float64bits(exp[i]))
							}
						}
					}
				}
			}
		})
	}
}

const panelDigestPath = "testdata/panel_c_digest.json"

// TestPanelCDigestGolden pins C itself: the SHA-256 of Exec's C, as
// little-endian float64 bits, for queen and web at scale 0.25 on four ranks
// at two dense widths must equal testdata/panel_c_digest.json exactly.
// Workers are pinned so the async flushes land in one order. To regenerate
// after an intended change of rounding, delete that file and run the test
// once.
func TestPanelCDigestGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// The classifier, and the generic kernels the compiler may fuse,
		// round differently elsewhere.
		t.Skipf("C digests are pinned on amd64, not %s", runtime.GOARCH)
	}
	if testing.Short() {
		t.Skip("builds two scale-0.25 matrices")
	}
	const scale = 0.25
	var got []prepDigest
	for _, name := range []string{"queen", "web"} {
		spec, err := gen.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		a := spec.Build(scale, 1)
		coef := CoefficientsFromNet(cluster.Default().Scaled(50e6/float64(a.NumRows)), 8)
		for _, k := range []int{32, 128} {
			prep, err := Preprocess(a, Params{P: 4, K: k, W: spec.ScaledWidth(scale), Coef: coef})
			if err != nil {
				t.Fatal(err)
			}
			clu, err := cluster.New(4, cluster.Default())
			if err != nil {
				t.Fatal(err)
			}
			res, err := Exec(prep, dense.Random(int(a.NumCols), k, 3), clu, ExecOptions{SyncWorkers: 1, AsyncWorkers: 1})
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			var word [8]byte
			for _, v := range res.C.Data {
				binary.LittleEndian.PutUint64(word[:], math.Float64bits(v))
				h.Write(word[:])
			}
			got = append(got, prepDigest{Case: fmt.Sprintf("%s/p4/k%d", name, k), SHA256: hex.EncodeToString(h.Sum(nil))})
		}
	}
	raw, err := os.ReadFile(panelDigestPath)
	if errors.Is(err, os.ErrNotExist) {
		out, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(panelDigestPath, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("%s was missing; wrote it from this run — inspect, commit and rerun", panelDigestPath)
	}
	if err != nil {
		t.Fatal(err)
	}
	var want []prepDigest
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("%s: %v", panelDigestPath, err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d C digests, golden has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("C digest drifted: got %+v, want %+v", got[i], want[i])
		}
	}
}

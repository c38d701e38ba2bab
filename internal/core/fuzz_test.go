package core

import (
	"bytes"
	"testing"

	"twoface/internal/cluster"
	"twoface/internal/dense"
)

// FuzzReadPrep hammers the plan decoder with arbitrary bytes: it must either
// reject the input or produce a plan the executor runs without panicking
// (an error is fine), never panic or allocate absurdly.
func FuzzReadPrep(f *testing.F) {
	a := randomCOO(40, 40, 200, 1)
	half := 0.5
	split := basicParams(2, 4, 8)
	split.ForceSplit = &half // async stripes too
	for _, params := range []Params{basicParams(2, 4, 8), split} {
		prep, err := Preprocess(a, params)
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WritePrep(&buf, prep); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte("TFPREP1\x00"))
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := ReadPrep(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Accepted plans must be internally consistent enough for Exec's
		// validation layer.
		if p.Layout == nil || len(p.Nodes) != p.Params.P {
			t.Fatal("decoder accepted an inconsistent plan")
		}
		if len(p.Dests) != int(p.Layout.NumStripes()) {
			t.Fatal("dests/stripe mismatch accepted")
		}
		for i := range p.Nodes {
			np := &p.Nodes[i]
			if len(np.Sync.PanelPtr) > 0 && np.Sync.PanelPtr[len(np.Sync.PanelPtr)-1] > int64(len(np.Sync.Entries)) {
				t.Fatal("panel pointers past entries accepted")
			}
		}
		// Execute the plans small enough to run quickly.
		k := int64(p.Params.K)
		if p.Params.P > 8 || int64(p.Layout.NumCols)*k > 1<<16 || int64(p.Layout.NumRows)*k > 1<<16 {
			return
		}
		clu, err := cluster.New(p.Params.P, cluster.Default())
		if err != nil {
			t.Fatal(err)
		}
		_, _ = Exec(p, dense.Random(int(p.Layout.NumCols), p.Params.K, 1), clu, ExecOptions{})
	})
}

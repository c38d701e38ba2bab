package core

import (
	"bytes"
	"path/filepath"
	"testing"

	"twoface/internal/cluster"
	"twoface/internal/dense"
)

func TestPrepRoundtrip(t *testing.T) {
	a := randomCOO(150, 150, 2500, 1)
	prep, err := Preprocess(a, basicParams(4, 8, 8))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WritePrep(&buf, prep); err != nil {
		t.Fatal(err)
	}
	back, err := ReadPrep(&buf)
	if err != nil {
		t.Fatal(err)
	}

	// Structural equality.
	if back.Layout.NumRows != prep.Layout.NumRows || back.Layout.NumCols != prep.Layout.NumCols {
		t.Fatal("layout shape mismatch")
	}
	if back.Params.P != prep.Params.P || back.Params.K != prep.Params.K || back.Params.W != prep.Params.W {
		t.Fatal("params mismatch")
	}
	if len(back.Dests) != len(prep.Dests) {
		t.Fatal("dests length mismatch")
	}
	for sid := range prep.Dests {
		if len(back.Dests[sid]) != len(prep.Dests[sid]) {
			t.Fatalf("dests[%d] mismatch", sid)
		}
	}
	for i := range prep.Nodes {
		a, b := &prep.Nodes[i], &back.Nodes[i]
		if a.RowLo != b.RowLo || a.RowHi != b.RowHi || a.SS != b.SS || a.SA != b.SA || a.LA != b.LA || a.NA != b.NA {
			t.Fatalf("node %d metadata mismatch", i)
		}
		if len(a.Sync.Entries) != len(b.Sync.Entries) || len(a.Async.Entries) != len(b.Async.Entries) {
			t.Fatalf("node %d entry counts mismatch", i)
		}
		for j := range a.Sync.Entries {
			if a.Sync.Entries[j] != b.Sync.Entries[j] {
				t.Fatalf("node %d sync entry %d mismatch", i, j)
			}
		}
		for j := range a.Async.Entries {
			if a.Async.Entries[j] != b.Async.Entries[j] {
				t.Fatalf("node %d async entry %d mismatch", i, j)
			}
		}
	}

	// Behavioural equality: a loaded plan must execute identically.
	b := dense.Random(150, 8, 2)
	clu, _ := cluster.New(4, cluster.Default())
	r1, err := Exec(prep, b, clu, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Exec(back, b, clu, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if d, _ := r1.C.MaxAbsDiff(r2.C); d > 1e-12 {
		t.Fatalf("loaded plan computes differently: %v", d)
	}
	if r1.ModeledSeconds != r2.ModeledSeconds {
		t.Fatalf("loaded plan models differently: %v vs %v", r1.ModeledSeconds, r2.ModeledSeconds)
	}
}

func TestPrepRoundtripBalanced(t *testing.T) {
	a := skewedCOO(200, 4)
	params := basicParams(4, 4, 8)
	params.BalanceRows = true
	prep, err := Preprocess(a, params)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WritePrep(&buf, prep); err != nil {
		t.Fatal(err)
	}
	back, err := ReadPrep(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if back.Layout.RowBlock(i) != prep.Layout.RowBlock(i) {
			t.Fatalf("balanced bounds lost for node %d", i)
		}
	}
	b := dense.Random(200, 4, 5)
	clu, _ := cluster.New(4, cluster.Default())
	res, err := Exec(back, b, clu, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := a.ToCSR().Mul(b)
	if !res.C.AlmostEqual(want, 1e-9) {
		t.Fatal("loaded balanced plan computes wrong result")
	}
}

func TestPrepFileRoundtrip(t *testing.T) {
	dir := t.TempDir()
	a := randomCOO(60, 60, 500, 6)
	prep, err := Preprocess(a, basicParams(2, 4, 8))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "plan.tfp")
	if err := WritePrepFile(path, prep); err != nil {
		t.Fatal(err)
	}
	back, err := ReadPrepFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Stats.TotalNNZ != int64(a.NNZ()) {
		t.Fatalf("stats not rebuilt: %d vs %d", back.Stats.TotalNNZ, a.NNZ())
	}
	if _, err := ReadPrepFile(filepath.Join(dir, "missing")); err == nil {
		t.Fatal("missing file should fail")
	}
}

func TestReadPrepRejectsCorruption(t *testing.T) {
	a := randomCOO(50, 50, 300, 7)
	prep, err := Preprocess(a, basicParams(2, 4, 8))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WritePrep(&buf, prep); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	bad := append([]byte{}, good...)
	bad[0] = 'X'
	if _, err := ReadPrep(bytes.NewReader(bad)); err == nil {
		t.Fatal("bad magic should fail")
	}
	if _, err := ReadPrep(bytes.NewReader(good[:16])); err == nil {
		t.Fatal("truncated header should fail")
	}
	if _, err := ReadPrep(bytes.NewReader(good[:len(good)-7])); err == nil {
		t.Fatal("truncated body should fail")
	}
	// Corrupt a length prefix deep in the body to something absurd.
	bad2 := append([]byte{}, good...)
	for i := 60; i < 68; i++ {
		bad2[i] = 0xFF
	}
	if _, err := ReadPrep(bytes.NewReader(bad2)); err == nil {
		t.Fatal("absurd section length should fail")
	}
}

// A well-framed plan whose indices point outside what the executor can
// address must fail to load: each case corrupts one index of a valid plan.
func TestReadPrepRejectsBadIndices(t *testing.T) {
	half := 0.5
	params := basicParams(4, 8, 8)
	params.ForceSplit = &half
	build := func() *Prep {
		prep, err := Preprocess(randomCOO(150, 150, 2500, 1), params)
		if err != nil {
			t.Fatal(err)
		}
		return prep
	}
	np0 := func(p *Prep) *NodePart { return &p.Nodes[0] }
	cases := []struct {
		name    string
		corrupt func(p *Prep)
	}{
		{"sync col past NumCols", func(p *Prep) { np0(p).Sync.Entries[0].Col = p.Layout.NumCols + 5 }},
		{"sync row outside its panel", func(p *Prep) { np0(p).Sync.Entries[0].Row = p.Params.RowPanelHeight }},
		{"panel pointers decrease", func(p *Prep) { np0(p).Sync.PanelPtr[1] = np0(p).Sync.PanelPtr[2] + 1 }},
		{"panel pointer count", func(p *Prep) { np0(p).Sync.PanelPtr = np0(p).Sync.PanelPtr[1:] }},
		{"async col outside stripe", func(p *Prep) { np0(p).Async.Entries[0].Col += p.Layout.W }},
		{"async cols decrease", func(p *Prep) {
			a := &np0(p).Async
			es := a.Entries[a.StripePtr[0]:a.StripePtr[1]]
			es[0], es[len(es)-1] = es[len(es)-1], es[0]
		}},
		{"async row outside block", func(p *Prep) { np0(p).Async.Entries[0].Row = -1 }},
		{"stripe pointer end", func(p *Prep) { a := &np0(p).Async; a.StripePtr[len(a.StripePtr)-1]-- }},
		{"stripe id out of range", func(p *Prep) { a := &np0(p).Async; a.StripeIDs[len(a.StripeIDs)-1] = p.Layout.NumStripes() }},
		{"received stripes descend", func(p *Prep) { r := np0(p).RecvStripes; r[0], r[1] = r[1], r[0] }},
		{"dest rank out of range", func(p *Prep) {
			for sid := range p.Dests {
				if len(p.Dests[sid]) > 0 {
					p.Dests[sid][0] = int32(p.Params.P)
					return
				}
			}
		}},
		{"row block moved", func(p *Prep) { np0(p).RowHi++ }},
	}
	for _, c := range cases {
		prep := build()
		if np := np0(prep); len(np.RecvStripes) < 2 || np.Async.NumStripes() < 1 || len(np.Async.Entries) < 2 {
			t.Fatalf("fixture needs sync and async stripes on rank 0: %d recv, %d async", len(np.RecvStripes), np.Async.NumStripes())
		}
		c.corrupt(prep)
		var buf bytes.Buffer
		if err := WritePrep(&buf, prep); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadPrep(&buf); err == nil {
			t.Errorf("%s: corrupt plan loaded", c.name)
		}
	}
}

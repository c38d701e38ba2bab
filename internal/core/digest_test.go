package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"runtime"
	"testing"

	"twoface/internal/cluster"
	"twoface/internal/gen"
	"twoface/internal/sparse"
)

const prepDigestPath = "testdata/prep_digest.json"

type prepDigest struct {
	Case   string
	SHA256 string
}

// TestPrepDigestGolden pins the plan Preprocess builds for every registry
// matrix, at several node counts and dense widths plus one load-balanced and
// one column-classifier case: the SHA-256 of its WritePrep bytes must equal
// testdata/prep_digest.json exactly. Each input value is replaced by its
// entry index first, so the digest pins structure, classification and entry
// order, and not how duplicate coordinates were summed. To regenerate after
// an intended plan change, delete that file and run the test once.
//
// It also asserts the ordering invariants the executor relies on and
// Preprocess gets by construction, without sorting: every Dests list and
// every RecvStripes list ascends strictly.
func TestPrepDigestGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// The classifier compares float sums the compiler may fuse into
		// multiply-adds elsewhere, which can move a borderline stripe.
		t.Skipf("plan digests are pinned on amd64, not %s", runtime.GOARCH)
	}
	const scale = 0.25
	var got []prepDigest
	add := func(name string, a *sparse.COO, params Params) {
		t.Helper()
		prep, err := Preprocess(a, params)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkPlanOrder(t, name, prep)
		var buf bytes.Buffer
		if err := WritePrep(&buf, prep); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sum := sha256.Sum256(buf.Bytes())
		got = append(got, prepDigest{Case: name, SHA256: hex.EncodeToString(sum[:])})
	}
	for _, spec := range gen.Specs() {
		a := spec.Build(scale, 1)
		for i := range a.Entries {
			a.Entries[i].Val = float64(i)
		}
		coef := CoefficientsFromNet(cluster.Default().Scaled(50e6/float64(a.NumRows)), 8)
		w := spec.ScaledWidth(scale)
		for _, p := range []int{2, 4, 8} {
			for _, k := range []int{32, 128} {
				add(fmt.Sprintf("%s/p%d/k%d", spec.Short, p, k), a, Params{P: p, K: k, W: w, Coef: coef})
			}
		}
		switch spec.Short {
		case "mawi":
			add("mawi/p4/k32/balanced", a, Params{P: 4, K: 32, W: w, Coef: coef, BalanceRows: true})
		case "twitter":
			add("twitter/p8/k32/column", a, Params{P: 8, K: 32, W: w, Coef: coef, Classifier: ClassifierColumn})
		}
	}
	checkPrepDigests(t, got)
}

// checkPlanOrder asserts that every multicast destination list and every
// node's received-stripe list ascends strictly.
func checkPlanOrder(t *testing.T, name string, prep *Prep) {
	t.Helper()
	for sid, d := range prep.Dests {
		for j := 1; j < len(d); j++ {
			if d[j-1] >= d[j] {
				t.Fatalf("%s: Dests[%d] = %v not ascending", name, sid, d)
			}
		}
	}
	for i := range prep.Nodes {
		rs := prep.Nodes[i].RecvStripes
		for j := 1; j < len(rs); j++ {
			if rs[j-1] >= rs[j] {
				t.Fatalf("%s: rank %d RecvStripes not ascending at %d", name, i, j)
			}
		}
	}
}

func checkPrepDigests(t *testing.T, got []prepDigest) {
	t.Helper()
	raw, err := os.ReadFile(prepDigestPath)
	if errors.Is(err, os.ErrNotExist) {
		out, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(prepDigestPath, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("%s was missing; wrote it from this run — inspect, commit and rerun", prepDigestPath)
	}
	if err != nil {
		t.Fatal(err)
	}
	var want []prepDigest
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("%s: %v", prepDigestPath, err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d plan digests, golden has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("plan digest drifted: got %+v, want %+v", got[i], want[i])
		}
	}
}

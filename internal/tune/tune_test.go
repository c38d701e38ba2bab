package tune

import (
	"math/rand/v2"
	"slices"
	"testing"

	"twoface/internal/cluster"
	"twoface/internal/core"
	"twoface/internal/gen"
	"twoface/internal/sparse"
)

func testMatrix(seed uint64) *sparse.COO {
	spec, _ := gen.ByName("web")
	return spec.Build(0.02, seed)
}

func TestTuneReturnsSortedChoices(t *testing.T) {
	a := testMatrix(1)
	best, all, err := Tune(a, 16, 4, cluster.Default().Scaled(1024), Space{})
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 3*3*3*3 {
		t.Fatalf("expected 81 evaluations, got %d", len(all))
	}
	if best != all[0] {
		t.Fatal("best is not the first sorted choice")
	}
	for i := 1; i < len(all); i++ {
		if all[i].Modeled < all[i-1].Modeled {
			t.Fatal("choices not sorted by modeled time")
		}
	}
	if best.Modeled <= 0 {
		t.Fatal("best has no modeled time")
	}
}

func TestTuneCustomSpace(t *testing.T) {
	a := testMatrix(2)
	space := Space{Widths: []int32{8, 16}, CoalesceGaps: []int32{1}, PanelHeights: []int32{32}, AsyncCompThreads: []int{8}}
	best, all, err := Tune(a, 8, 2, cluster.Default().Scaled(1024), space)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 2 {
		t.Fatalf("expected 2 evaluations, got %d", len(all))
	}
	if best.W != 8 && best.W != 16 {
		t.Fatalf("best width %d outside space", best.W)
	}
	if best.String() == "" {
		t.Fatal("empty String")
	}
}

func TestTuneValidation(t *testing.T) {
	a := testMatrix(3)
	if _, _, err := Tune(a, 0, 2, cluster.Default(), Space{}); err == nil {
		t.Fatal("K=0 should fail")
	}
	if _, _, err := Tune(a, 4, 0, cluster.Default(), Space{}); err == nil {
		t.Fatal("p=0 should fail")
	}
}

func TestTunePicksReasonableWidth(t *testing.T) {
	// On a matrix with strong locality, the tuned config must not be worse
	// than the default-parameter run.
	a := testMatrix(4)
	net := cluster.Default().Scaled(1024)
	best, all, err := Tune(a, 16, 4, net, Space{})
	if err != nil {
		t.Fatal(err)
	}
	// The default configuration is in the grid (middle width, Table 2
	// values); best must be at least as good as any of them.
	for _, c := range all {
		if best.Modeled > c.Modeled {
			t.Fatal("best is not minimal")
		}
	}
}

// The default grid must contain the width the library ships: the one
// core.AutoWidth picks when Options leave it unset, at full scale and at a
// small one, for every registry matrix.
func TestDefaultSpaceHasLibraryWidth(t *testing.T) {
	for _, spec := range gen.Specs() {
		for _, scale := range []float64{1, 0.02} {
			cols := spec.ScaledRows(scale)
			w := core.AutoWidth(cols)
			if !slices.Contains(defaultSpace(cols, 32, Space{}).Widths, w) {
				t.Errorf("%s at scale %v: default widths %v miss the library's %d",
					spec.Short, scale, defaultSpace(cols, 32, Space{}).Widths, w)
			}
		}
	}
}

func TestDedupI32(t *testing.T) {
	got := dedupI32([]int32{4, 1, 4, 2, 1})
	want := []int32{1, 2, 4}
	if len(got) != len(want) {
		t.Fatalf("dedup = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("dedup = %v, want %v", got, want)
		}
	}
}

func TestTuneDeterministic(t *testing.T) {
	a := testMatrix(5)
	rng := rand.New(rand.NewPCG(1, 1))
	_ = rng
	net := cluster.Default().Scaled(1024)
	b1, _, err := Tune(a, 8, 2, net, Space{Widths: []int32{8}, CoalesceGaps: []int32{1, 2}, PanelHeights: []int32{32}, AsyncCompThreads: []int{8}})
	if err != nil {
		t.Fatal(err)
	}
	b2, _, err := Tune(a, 8, 2, net, Space{Widths: []int32{8}, CoalesceGaps: []int32{1, 2}, PanelHeights: []int32{32}, AsyncCompThreads: []int{8}})
	if err != nil {
		t.Fatal(err)
	}
	if b1 != b2 {
		t.Fatalf("tuning not deterministic: %v vs %v", b1, b2)
	}
}

package harness

import (
	"math"
	"slices"
	"strings"
	"testing"

	"twoface/internal/gen"
)

// The search returns every grid point, fastest first: 3 widths x 2 gaps (at
// K=128 the default gap 127/K+1 is 1) x 3 panel heights x 3 thread splits.
func TestTuneReturnsSortedChoices(t *testing.T) {
	cfg := testCfg()
	spec, _ := gen.ByName("web")
	w := cfg.BuildWorkload(spec)
	grid, err := cfg.tuneGrid(w, 128)
	if err != nil {
		t.Fatal(err)
	}
	if len(grid) != 3*2*3*3 {
		t.Fatalf("%d grid points, want 54", len(grid))
	}
	for i := 1; i < len(grid); i++ {
		if grid[i].Modeled < grid[i-1].Modeled {
			t.Fatalf("grid not sorted at %d: %v after %v", i, grid[i], grid[i-1])
		}
	}
	if grid[0].Modeled <= 0 {
		t.Fatal("best point has no modeled time")
	}
}

// The grid is centred on the width the evaluation runs, the workload's
// Table 1 W, and has three distinct gaps where 127/K+1 is not 1.
func TestTuneGridHasWorkloadWidth(t *testing.T) {
	cfg := testCfg()
	spec, _ := gen.ByName("queen")
	w := cfg.BuildWorkload(spec)
	grid, err := cfg.tuneGrid(w, 32)
	if err != nil {
		t.Fatal(err)
	}
	if len(grid) != 3*3*3*3 {
		t.Fatalf("%d grid points at K=32, want 81 (three distinct gaps)", len(grid))
	}
	for _, want := range []int32{w.W / 2, w.W, 2 * w.W} {
		if !slices.ContainsFunc(grid, func(g tuneChoice) bool { return g.W == want }) {
			t.Errorf("grid misses W=%d around the workload's %d", want, w.W)
		}
	}
}

// Two searches of the same workload agree on every point to the last bit,
// whatever workers the configuration asks for: the search pins its own.
func TestTuneDeterministic(t *testing.T) {
	cfg := testCfg()
	spec, _ := gen.ByName("mawi")
	w := cfg.BuildWorkload(spec)
	first, err := cfg.tuneGrid(w, 128)
	if err != nil {
		t.Fatal(err)
	}
	second, err := cfg.tuneGrid(w, 128)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(first, second) {
		t.Fatalf("two searches differ:\n%v\n%v", first, second)
	}
}

// The grid's default point is the shipped configuration: its modeled time is
// the one Config.Run gives Two-Face (Figure 8's and Table 5's cell), bit for
// bit, with one worker per queue on both sides.
func TestTuneDefaultMatchesRun(t *testing.T) {
	cfg := testCfg()
	cfg.Workers, cfg.AsyncWorkers = 1, 1
	for _, name := range []string{"mawi", "arabic", "stokes"} {
		spec, _ := gen.ByName(name)
		w := cfg.BuildWorkload(spec)
		grid, err := cfg.tuneGrid(w, 128)
		if err != nil {
			t.Fatal(err)
		}
		i := slices.IndexFunc(grid, func(g tuneChoice) bool { return g.shipped(w, 128) })
		out := cfg.Run(AlgoTwoFace, w, 128, cfg.Nodes)
		if out.Err != nil || out.OOM {
			t.Fatalf("%s: Run failed: %+v", name, out)
		}
		if grid[i].Modeled != out.Modeled {
			t.Errorf("%s: default grid point %v s, Config.Run %v s", name, grid[i].Modeled, out.Modeled)
		}
	}
}

// Every ablation table is complete, its default row is 1.000 where it has
// one, and the balanced-rows block covers the paper's 32 nodes.
func TestAblationsStructure(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment test")
	}
	tables, err := testCfg().Ablations()
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 10 {
		t.Fatalf("%d ablation tables, want 10", len(tables))
	}
	for _, tab := range tables {
		for i, r := range tab.RowHead {
			for j, c := range tab.ColHead {
				if v := tab.Values[i][j]; math.IsNaN(v) || v <= 0 {
					t.Errorf("%s: %s/%s = %v", tab.Title, r, c, v)
				}
			}
			if strings.HasSuffix(r, "(default)") && tab.Value(r, "vs default") != 1 {
				t.Errorf("%s: default row %s is %v of itself", tab.Title, r, tab.Value(r, "vs default"))
			}
		}
	}
	if title := tables[6].Title; !strings.Contains(title, "balanced") || !strings.HasSuffix(title, "p=32") {
		t.Errorf("seventh ablation is %q, want balanced rows at p=32", title)
	}
}

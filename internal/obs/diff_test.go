package obs

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"twoface/internal/cluster"
)

func findRow(t *testing.T, d *Diff, metric string) DiffRow {
	t.Helper()
	for _, r := range d.Rows {
		if r.Metric == metric {
			return r
		}
	}
	t.Fatalf("diff has no row %q; rows: %+v", metric, d.Rows)
	return DiffRow{}
}

// TestDiffVerdicts checks the classification rules: lower-is-better modeled
// metrics regress/improve past the tight threshold, direction-neutral ones
// only "change", and wall-clock noise inside the generous threshold is ok.
func TestDiffVerdicts(t *testing.T) {
	oldR := &Report{
		ModeledSeconds: 1.0,
		WallSeconds:    1.0,
		Breakdown:      cluster.Breakdown{SyncComm: 0.4, SyncOverlap: 0.1},
		Transfer:       cluster.TransferStats{OneSidedBytes: 1000},
	}
	newR := &Report{
		ModeledSeconds: 1.1, // +10%: regression
		WallSeconds:    1.2, // +20%: inside the 25% wall threshold
		Breakdown:      cluster.Breakdown{SyncComm: 0.4, SyncOverlap: 0.2},
		Transfer:       cluster.TransferStats{OneSidedBytes: 500},
	}
	d := CompareReports(oldR, newR, DiffOptions{})

	if r := findRow(t, d, "modeled_seconds"); r.Verdict != VerdictRegressed {
		t.Errorf("modeled_seconds verdict = %s, want regressed", r.Verdict)
	}
	if r := findRow(t, d, "wall_seconds"); r.Verdict != VerdictOK {
		t.Errorf("wall_seconds verdict = %s, want ok (20%% < the 25%% wall threshold)", r.Verdict)
	}
	if r := findRow(t, d, "breakdown.sync_comm"); r.Verdict != VerdictOK {
		t.Errorf("unchanged sync_comm verdict = %s, want ok", r.Verdict)
	}
	if r := findRow(t, d, "breakdown.sync_overlap"); r.Verdict != VerdictChanged {
		t.Errorf("sync_overlap verdict = %s, want changed (more overlap hidden is not a regression)", r.Verdict)
	}
	if r := findRow(t, d, "transfer.one_sided_bytes"); r.Verdict != VerdictImproved {
		t.Errorf("one_sided_bytes verdict = %s, want improved", r.Verdict)
	}
	if d.Regressions != 1 {
		t.Errorf("regressions = %d, want 1", d.Regressions)
	}

	out := d.String()
	if !strings.Contains(out, "modeled_seconds") || !strings.Contains(out, "regressed") {
		t.Errorf("rendered diff hides the regression:\n%s", out)
	}
	if strings.Contains(out, "breakdown.sync_comm ") {
		t.Errorf("rendered diff should fold ok rows into the summary line:\n%s", out)
	}
}

// TestDiffCounters checks metric-snapshot counters diff as a union: rows for
// added and removed names, ok for the unchanged.
func TestDiffCounters(t *testing.T) {
	oldR := &Report{Metrics: &Snapshot{Counters: map[string]int64{"exec.sync.panels": 10, "gone": 4}}}
	newR := &Report{Metrics: &Snapshot{Counters: map[string]int64{"exec.sync.panels": 10, "fresh": 2}}}
	d := CompareReports(oldR, newR, DiffOptions{})

	if r := findRow(t, d, "counter.gone"); r.Verdict != VerdictRemoved || r.Old != 4 {
		t.Errorf("removed counter row = %+v", r)
	}
	if r := findRow(t, d, "counter.fresh"); r.Verdict != VerdictAdded || r.New != 2 {
		t.Errorf("added counter row = %+v", r)
	}
	if r := findRow(t, d, "counter.exec.sync.panels"); r.Verdict != VerdictOK {
		t.Errorf("unchanged counter verdict = %s, want ok", r.Verdict)
	}
	if d.Regressions != 0 {
		t.Errorf("regressions = %d, want 0 (counters are direction-neutral)", d.Regressions)
	}
}

// TestDiffNotes checks the non-numeric observations: mismatched config keys
// and a moved straggler/dominant phase each produce a note.
func TestDiffNotes(t *testing.T) {
	oldR := &Report{
		Config:       map[string]any{"k": 128, "p": 8},
		CriticalPath: &CriticalPath{Straggler: 0, DominantPhase: "SyncComp", TotalBarrierWait: 0.1},
	}
	newR := &Report{
		Config:       map[string]any{"k": 192, "p": 8},
		CriticalPath: &CriticalPath{Straggler: 3, DominantPhase: "AsyncComm", TotalBarrierWait: 0.1},
	}
	d := CompareReports(oldR, newR, DiffOptions{})

	joined := strings.Join(d.Notes, "\n")
	for _, want := range []string{
		`config "k" differs: 128 vs 192`,
		"straggler moved: rank 0 -> rank 3",
		"dominant phase moved: SyncComp -> AsyncComm",
	} {
		if !strings.Contains(joined, want) {
			t.Errorf("notes missing %q:\n%s", want, joined)
		}
	}
	if strings.Contains(joined, `config "p"`) {
		t.Errorf("matching config key noted as differing:\n%s", joined)
	}
	if r := findRow(t, d, "critical_path.barrier_wait"); r.Verdict != VerdictOK {
		t.Errorf("equal barrier wait verdict = %s, want ok", r.Verdict)
	}
}

// TestCompareFiles checks the file loader on two report files, plus the
// error paths.
func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, v any) string {
		t.Helper()
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}

	oldPath := write("old.json", &Report{ModeledSeconds: 1.0})
	newPath := write("new.json", &Report{ModeledSeconds: 2.0})
	d, err := CompareFiles(oldPath, newPath, DiffOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if d.OldPath != oldPath || d.NewPath != newPath {
		t.Errorf("paths not recorded: %q %q", d.OldPath, d.NewPath)
	}
	r := findRow(t, d, "modeled_seconds")
	if r.Old != 1.0 || r.New != 2.0 || r.Verdict != VerdictRegressed {
		t.Errorf("modeled_seconds row = %+v, want 1 → 2 regressed", r)
	}

	if _, err := CompareFiles(oldPath, filepath.Join(dir, "missing.json"), DiffOptions{}); err == nil {
		t.Error("missing file accepted")
	}
	garbled := filepath.Join(dir, "garbled.json")
	if err := os.WriteFile(garbled, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := CompareFiles(oldPath, garbled, DiffOptions{}); err == nil {
		t.Error("garbled file accepted")
	}
}

package obs

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
)

// Benchstat-style comparison of two run reports: the regression gate that
// answers "did this PR move the makespan, and which phase moved it".
// Modeled metrics are deterministic in this repository, so their noise
// threshold is tight; wall-clock metrics measure the host and get a
// generous one. The comparison is pure data in, pure data out —
// scripts/compare.sh and twoface-bench -compare-report wrap it, and
// check.sh uses it as a soft gate.

// DiffOptions sets the noise thresholds of a comparison. Zero values take
// the defaults.
type DiffOptions struct {
	// ModeledTol is the relative tolerance for deterministic modeled
	// metrics (modeled seconds, breakdown categories, transfer counters).
	// Default 1e-3: anything past it is a real change, not noise.
	ModeledTol float64
	// WallTol is the relative tolerance for wall-clock metrics, which
	// measure the host and jitter freely. Default 0.25.
	WallTol float64
}

func (o DiffOptions) normalize() DiffOptions {
	if o.ModeledTol == 0 {
		o.ModeledTol = 1e-3
	}
	if o.WallTol == 0 {
		o.WallTol = 0.25
	}
	return o
}

// Verdicts of one compared metric.
const (
	VerdictOK        = "ok"        // within the noise threshold
	VerdictImproved  = "improved"  // lower-is-better metric moved down
	VerdictRegressed = "regressed" // lower-is-better metric moved up
	VerdictChanged   = "changed"   // direction-neutral metric moved
	VerdictAdded     = "added"     // present only in the new report
	VerdictRemoved   = "removed"   // present only in the old report
)

// DiffRow compares one metric across the two reports.
type DiffRow struct {
	Metric  string  `json:"metric"`
	Old     float64 `json:"old"`
	New     float64 `json:"new"`
	Delta   float64 `json:"delta"`
	Pct     float64 `json:"pct"` // 100 * (new-old)/old; NaN when old == 0
	Verdict string  `json:"verdict"`
}

// Diff is the outcome of comparing two reports.
type Diff struct {
	OldPath string    `json:"old_path,omitempty"`
	NewPath string    `json:"new_path,omitempty"`
	Rows    []DiffRow `json:"rows"`
	// Notes carries non-numeric observations: config mismatches, a moved
	// dominant phase, a different straggler rank.
	Notes []string `json:"notes,omitempty"`
	// Regressions counts rows whose verdict is "regressed" — the soft
	// gate's exit signal.
	Regressions int `json:"regressions"`
}

// lowerBetter marks the metrics where an increase is a regression.
var lowerBetter = map[string]bool{
	"modeled_seconds":            true,
	"wall_seconds":               true,
	"breakdown.sync_comm":        true,
	"breakdown.sync_comp":        true,
	"breakdown.async_comm":       true,
	"breakdown.async_comp":       true,
	"breakdown.other":            true,
	"transfer.collective_bytes":  true,
	"transfer.collective_msgs":   true,
	"transfer.one_sided_bytes":   true,
	"transfer.one_sided_gets":    true,
	"transfer.one_sided_msgs":    true,
	"skew.max_over_mean":         true,
	"critical_path.barrier_wait": true,
}

// wallMetric marks host-time metrics that take the generous threshold.
func wallMetric(name string) bool { return strings.Contains(name, "wall") }

// compare builds one row from a metric pair.
func (o DiffOptions) compare(name string, oldV, newV float64) DiffRow {
	row := DiffRow{Metric: name, Old: oldV, New: newV, Delta: newV - oldV}
	if oldV != 0 {
		row.Pct = 100 * (newV - oldV) / oldV
	} else if newV != 0 {
		row.Pct = math.Inf(sign(newV - oldV))
	}
	tol := o.ModeledTol
	if wallMetric(name) {
		tol = o.WallTol
	}
	scale := math.Max(math.Abs(oldV), math.Abs(newV))
	switch {
	case math.Abs(row.Delta) <= tol*scale:
		row.Verdict = VerdictOK
	case !lowerBetter[name]:
		row.Verdict = VerdictChanged
	case row.Delta > 0:
		row.Verdict = VerdictRegressed
	default:
		row.Verdict = VerdictImproved
	}
	return row
}

func sign(v float64) int {
	if v < 0 {
		return -1
	}
	return 1
}

// CompareReports diffs two structured run reports metric by metric.
func CompareReports(oldR, newR *Report, opt DiffOptions) *Diff {
	opt = opt.normalize()
	d := &Diff{}
	add := func(name string, oldV, newV float64) {
		if oldV == 0 && newV == 0 {
			return
		}
		d.Rows = append(d.Rows, opt.compare(name, oldV, newV))
	}

	add("modeled_seconds", oldR.ModeledSeconds, newR.ModeledSeconds)
	add("wall_seconds", oldR.WallSeconds, newR.WallSeconds)
	add("breakdown.sync_comm", oldR.Breakdown.SyncComm, newR.Breakdown.SyncComm)
	add("breakdown.sync_comp", oldR.Breakdown.SyncComp, newR.Breakdown.SyncComp)
	add("breakdown.sync_overlap", oldR.Breakdown.SyncOverlap, newR.Breakdown.SyncOverlap)
	add("breakdown.async_comm", oldR.Breakdown.AsyncComm, newR.Breakdown.AsyncComm)
	add("breakdown.async_comp", oldR.Breakdown.AsyncComp, newR.Breakdown.AsyncComp)
	add("breakdown.other", oldR.Breakdown.Other, newR.Breakdown.Other)
	add("transfer.collective_bytes", float64(oldR.Transfer.CollectiveBytes), float64(newR.Transfer.CollectiveBytes))
	add("transfer.collective_msgs", float64(oldR.Transfer.CollectiveMsgs), float64(newR.Transfer.CollectiveMsgs))
	add("transfer.one_sided_bytes", float64(oldR.Transfer.OneSidedBytes), float64(newR.Transfer.OneSidedBytes))
	add("transfer.one_sided_gets", float64(oldR.Transfer.OneSidedGets), float64(newR.Transfer.OneSidedGets))
	add("transfer.one_sided_msgs", float64(oldR.Transfer.OneSidedMsgs), float64(newR.Transfer.OneSidedMsgs))
	if oldR.Skew != nil && newR.Skew != nil {
		add("skew.max_over_mean", oldR.Skew.MaxOverMean, newR.Skew.MaxOverMean)
	}
	if oldR.CriticalPath != nil && newR.CriticalPath != nil {
		add("critical_path.barrier_wait", oldR.CriticalPath.TotalBarrierWait, newR.CriticalPath.TotalBarrierWait)
		if oldR.CriticalPath.Straggler != newR.CriticalPath.Straggler {
			d.Notes = append(d.Notes, fmt.Sprintf("straggler moved: rank %d -> rank %d",
				oldR.CriticalPath.Straggler, newR.CriticalPath.Straggler))
		}
		if oldR.CriticalPath.DominantPhase != newR.CriticalPath.DominantPhase {
			d.Notes = append(d.Notes, fmt.Sprintf("dominant phase moved: %s -> %s",
				oldR.CriticalPath.DominantPhase, newR.CriticalPath.DominantPhase))
		}
	}
	d.compareCounters(oldCounters(oldR), oldCounters(newR), opt)
	d.noteConfig(oldR.Config, newR.Config)
	d.countRegressions()
	return d
}

func oldCounters(r *Report) map[string]int64 {
	if r.Metrics == nil {
		return nil
	}
	return r.Metrics.Counters
}

// compareCounters diffs the metric-snapshot counters of both reports
// (union of names; counters are direction-neutral "changed" rows).
func (d *Diff) compareCounters(oldC, newC map[string]int64, opt DiffOptions) {
	names := map[string]bool{}
	for n := range oldC {
		names[n] = true
	}
	for n := range newC {
		names[n] = true
	}
	sorted := make([]string, 0, len(names))
	for n := range names {
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)
	for _, n := range sorted {
		oldV, inOld := oldC[n]
		newV, inNew := newC[n]
		name := "counter." + n
		switch {
		case !inOld:
			d.Rows = append(d.Rows, DiffRow{Metric: name, New: float64(newV), Delta: float64(newV), Verdict: VerdictAdded})
		case !inNew:
			d.Rows = append(d.Rows, DiffRow{Metric: name, Old: float64(oldV), Delta: -float64(oldV), Verdict: VerdictRemoved})
		default:
			d.Rows = append(d.Rows, opt.compare(name, float64(oldV), float64(newV)))
		}
	}
}

// noteConfig flags config keys that differ: a diff across mismatched
// configurations is comparing apples to oranges and the reader must know.
func (d *Diff) noteConfig(oldC, newC map[string]any) {
	keys := map[string]bool{}
	for k := range oldC {
		keys[k] = true
	}
	for k := range newC {
		keys[k] = true
	}
	sorted := make([]string, 0, len(keys))
	for k := range keys {
		sorted = append(sorted, k)
	}
	sort.Strings(sorted)
	for _, k := range sorted {
		ov, nv := fmt.Sprint(oldC[k]), fmt.Sprint(newC[k])
		if ov != nv {
			d.Notes = append(d.Notes, fmt.Sprintf("config %q differs: %s vs %s (comparison may not be like-for-like)", k, ov, nv))
		}
	}
}

func (d *Diff) countRegressions() {
	d.Regressions = 0
	for _, r := range d.Rows {
		if r.Verdict == VerdictRegressed {
			d.Regressions++
		}
	}
}

// String renders the diff as an aligned benchstat-style table. Rows whose
// verdict is "ok" are summarized in one line to keep the signal dense.
func (d *Diff) String() string {
	var sb strings.Builder
	if d.OldPath != "" || d.NewPath != "" {
		fmt.Fprintf(&sb, "report diff: %s -> %s\n", d.OldPath, d.NewPath)
	}
	fmt.Fprintf(&sb, "  %-34s %14s %14s %10s  %s\n", "metric", "old", "new", "delta", "verdict")
	ok := 0
	for _, r := range d.Rows {
		if r.Verdict == VerdictOK {
			ok++
			continue
		}
		pct := "n/a"
		if !math.IsNaN(r.Pct) && !math.IsInf(r.Pct, 0) {
			pct = fmt.Sprintf("%+.1f%%", r.Pct)
		}
		fmt.Fprintf(&sb, "  %-34s %14.6g %14.6g %10s  %s\n", r.Metric, r.Old, r.New, pct, r.Verdict)
	}
	fmt.Fprintf(&sb, "  %d metrics within noise thresholds; %d regressed\n", ok, d.Regressions)
	for _, n := range d.Notes {
		fmt.Fprintf(&sb, "  note: %s\n", n)
	}
	return sb.String()
}

// CompareFiles diffs two structured run report files (twoface-run/-bench
// -report output).
func CompareFiles(oldPath, newPath string, opt DiffOptions) (*Diff, error) {
	oldR, err := loadReport(oldPath)
	if err != nil {
		return nil, err
	}
	newR, err := loadReport(newPath)
	if err != nil {
		return nil, err
	}
	d := CompareReports(oldR, newR, opt)
	d.OldPath, d.NewPath = oldPath, newPath
	return d, nil
}

// loadReport reads one report file.
func loadReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("obs: %w", err)
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("obs: %s: %w", path, err)
	}
	return &r, nil
}

package obs

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"twoface/internal/cluster"
)

// Structured run reports: one JSON document per run, carrying everything a
// later analysis (or a regression bot diffing two PRs) needs — the
// configuration, the per-rank modeled-time breakdown, the honest
// data-movement counters, a metrics snapshot, and build provenance. The
// trajectory file (BENCH_runs.json) is the append-only history of such
// documents across sessions, the run-level sibling of BENCH_kernels.json.

// RankReport is one rank's slice of a run report.
type RankReport struct {
	Rank      int                   `json:"rank"`
	Breakdown cluster.Breakdown     `json:"breakdown"`
	NodeTime  float64               `json:"node_time"`
	Transfer  cluster.TransferStats `json:"transfer"`
}

// Skew summarizes load imbalance across ranks: the straggler's modeled
// makespan against the mean.
type Skew struct {
	MaxNodeTime  float64 `json:"max_node_time"`
	MeanNodeTime float64 `json:"mean_node_time"`
	MaxOverMean  float64 `json:"max_over_mean"`
}

// TraceInfo summarizes an attached span tracer.
type TraceInfo struct {
	Spans          int     `json:"spans"`
	Instants       int     `json:"instants"`
	DroppedPerRank []int64 `json:"dropped_per_rank,omitempty"`
	File           string  `json:"file,omitempty"`
}

// Report is one run's machine-readable record.
type Report struct {
	Tool      string         `json:"tool"`
	GoVersion string         `json:"go_version"`
	Commit    string         `json:"commit,omitempty"`
	Config    map[string]any `json:"config"`

	ModeledSeconds float64               `json:"modeled_seconds"`
	WallSeconds    float64               `json:"wall_seconds"`
	Breakdown      cluster.Breakdown     `json:"breakdown_total"`
	Ranks          []RankReport          `json:"ranks,omitempty"`
	Transfer       cluster.TransferStats `json:"transfer_total"`
	Skew           *Skew                 `json:"skew,omitempty"`

	Metrics    *Snapshot                `json:"metrics,omitempty"`
	Trace      *TraceInfo               `json:"trace,omitempty"`
	Resilience *cluster.ResilienceStats `json:"resilience,omitempty"`

	// CriticalPath is the makespan attribution of the run (see critpath.go);
	// folded in whenever per-rank breakdowns are available.
	CriticalPath *CriticalPath `json:"critical_path,omitempty"`
	// Warnings carries observability caveats a reader must see (dropped
	// trace spans, saturated buffers) — never silent fields.
	Warnings []string `json:"warnings,omitempty"`
}

// Warn appends a report-level warning.
func (r *Report) Warn(format string, args ...any) {
	r.Warnings = append(r.Warnings, fmt.Sprintf(format, args...))
}

// SetResilience attaches the run's cluster-wide fault/retry/degradation
// counters; zero stats are omitted so fault-free reports stay unchanged.
func (r *Report) SetResilience(rs cluster.ResilienceStats) {
	if rs.Faulted() {
		r.Resilience = &rs
	}
}

// NewReport starts a report for the named tool, stamped with the build's Go
// version and (when the binary carries VCS build info) commit hash.
func NewReport(tool string) *Report {
	r := &Report{Tool: tool, GoVersion: runtime.Version(), Config: map[string]any{}}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				r.Commit = s.Value
			}
		}
	}
	return r
}

// SetRun fills the run outcome: per-rank breakdowns and transfer counters,
// the modeled makespan, wall-clock duration, and the derived totals and
// straggler skew. breakdowns and transfers must be rank-aligned (transfers
// may be nil when unavailable).
func (r *Report) SetRun(breakdowns []cluster.Breakdown, transfers []cluster.TransferStats, modeled float64, wall time.Duration) {
	r.ModeledSeconds = modeled
	r.WallSeconds = wall.Seconds()
	r.Ranks = r.Ranks[:0]
	r.Breakdown = cluster.Breakdown{}
	r.Transfer = cluster.TransferStats{}
	var sum, max float64
	for i, bd := range breakdowns {
		rr := RankReport{Rank: i, Breakdown: bd, NodeTime: bd.NodeTime()}
		if i < len(transfers) {
			rr.Transfer = transfers[i]
			r.Transfer = r.Transfer.Plus(transfers[i])
		}
		r.Breakdown = r.Breakdown.Plus(bd)
		sum += rr.NodeTime
		if rr.NodeTime > max {
			max = rr.NodeTime
		}
		r.Ranks = append(r.Ranks, rr)
	}
	if n := len(breakdowns); n > 0 {
		mean := sum / float64(n)
		sk := Skew{MaxNodeTime: max, MeanNodeTime: mean}
		if mean > 0 {
			sk.MaxOverMean = max / mean
		}
		r.Skew = &sk
	}
	r.CriticalPath = AnalyzeBreakdowns(breakdowns)
}

// Validate sanity-checks the report before it is written: a run report must
// carry a positive modeled time and per-rank entries consistent with the
// reported makespan.
func (r *Report) Validate() error {
	if r.ModeledSeconds <= 0 {
		return fmt.Errorf("obs: report has non-positive modeled time %g", r.ModeledSeconds)
	}
	var max float64
	for _, rr := range r.Ranks {
		if t := rr.Breakdown.NodeTime(); t > max {
			max = t
		}
	}
	if len(r.Ranks) > 0 && !approxEqual(max, r.ModeledSeconds) {
		return fmt.Errorf("obs: report makespan %g disagrees with max rank node time %g", r.ModeledSeconds, max)
	}
	return nil
}

func approxEqual(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	scale := a
	if b > a {
		scale = b
	}
	return d <= 1e-9*scale
}

// WriteFile validates the report and writes it as indented JSON.
func (r *Report) WriteFile(path string) error {
	if err := r.Validate(); err != nil {
		return err
	}
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// AppendTrajectory appends entry to the JSON array stored at path, creating
// the file if needed. The write is crash-safe: the new array goes to a
// uniquely named temp file in the same directory, is fsynced, and only then
// renamed over the original — an interrupted twoface-bench can at worst
// leave a stray temp file, never a truncated or corrupt history.
func AppendTrajectory(path string, entry any) error {
	var arr []json.RawMessage
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &arr); err != nil {
			return fmt.Errorf("obs: %s is not a JSON array: %w", path, err)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	raw, err := json.Marshal(entry)
	if err != nil {
		return err
	}
	arr = append(arr, raw)
	out, err := json.MarshalIndent(arr, "", "  ")
	if err != nil {
		return err
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(append(out, '\n')); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Chmod(tmp.Name(), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// RecordSkew publishes straggler gauges for the given breakdowns into the
// registry (exec.node_time.max, exec.node_time.mean, exec.node_time.skew).
func RecordSkew(reg *Registry, breakdowns []cluster.Breakdown) {
	if len(breakdowns) == 0 {
		return
	}
	var sum, max float64
	for _, bd := range breakdowns {
		t := bd.NodeTime()
		sum += t
		if t > max {
			max = t
		}
	}
	mean := sum / float64(len(breakdowns))
	reg.Gauge("exec.node_time.max").Set(max)
	reg.Gauge("exec.node_time.mean").Set(mean)
	if mean > 0 {
		reg.Gauge("exec.node_time.skew").Set(max / mean)
	}
}

// RecordOverlap publishes how much of the synchronous half the pipelined
// executor hid behind stripe multicasts: exec.sync.overlap_seconds is the
// cluster-wide SyncOverlap sum and exec.sync.overlap_frac is that sum over
// the serial sync half (SyncComm + SyncComp), in [0, 1). Runs with no
// overlap credit — baselines, SDDMM — publish nothing.
func RecordOverlap(reg *Registry, breakdowns []cluster.Breakdown) {
	var overlap, serial float64
	for _, bd := range breakdowns {
		overlap += bd.SyncOverlap
		serial += bd.SyncComm + bd.SyncComp
	}
	if overlap <= 0 {
		return
	}
	reg.Gauge("exec.sync.overlap_seconds").Set(overlap)
	if serial > 0 {
		reg.Gauge("exec.sync.overlap_frac").Set(overlap / serial)
	}
}

// RecordResilience publishes the run's cluster-wide resilience counters as
// gauges (chaos.get_retries, chaos.degradations, ...). Fault-free runs
// publish nothing, keeping healthy snapshots free of chaos series.
func RecordResilience(reg *Registry, rs cluster.ResilienceStats) {
	if !rs.Faulted() {
		return
	}
	reg.Gauge("chaos.get_retries").Set(float64(rs.GetRetries))
	reg.Gauge("chaos.get_exhausted").Set(float64(rs.GetExhausted))
	reg.Gauge("chaos.degradations").Set(float64(rs.Degradations))
	reg.Gauge("chaos.degraded_elems").Set(float64(rs.DegradedElems))
	reg.Gauge("chaos.leg_retries").Set(float64(rs.LegRetries))
	reg.Gauge("chaos.backoff_seconds").Set(rs.BackoffSeconds)
	reg.Gauge("chaos.delay_seconds").Set(rs.DelaySeconds)
	reg.Gauge("chaos.checkpoints").Set(float64(rs.Checkpoints))
	reg.Gauge("chaos.checkpoint_seconds").Set(rs.CheckpointSeconds)
	reg.Gauge("chaos.crashes").Set(float64(rs.Crashes))
	reg.Gauge("chaos.recovered_stripes").Set(float64(rs.RecoveredStripes))
	reg.Gauge("chaos.recovered_panels").Set(float64(rs.RecoveredPanels))
	reg.Gauge("chaos.refetched_elems").Set(float64(rs.RefetchedElems))
	reg.Gauge("chaos.recovery_seconds").Set(rs.RecoverySeconds)
}

package obs

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"twoface/internal/cluster"
)

func sampleBreakdowns() []cluster.Breakdown {
	return []cluster.Breakdown{
		{SyncComm: 1, SyncComp: 2, AsyncComm: 0.5, AsyncComp: 0.25, Other: 0.1},
		{SyncComm: 2, SyncComp: 3, AsyncComm: 1.5, AsyncComp: 0.75, Other: 0.2},
	}
}

func TestReportSetRun(t *testing.T) {
	bds := sampleBreakdowns()
	tfs := []cluster.TransferStats{
		{CollectiveBytes: 800, CollectiveMsgs: 2, OneSidedBytes: 80, OneSidedMsgs: 5},
		{CollectiveBytes: 1600, CollectiveMsgs: 4, OneSidedBytes: 160, OneSidedMsgs: 10},
	}
	modeled := bds[1].NodeTime() // rank 1 is the straggler
	rep := NewReport("test")
	rep.SetRun(bds, tfs, modeled, 3*time.Second)

	if rep.GoVersion == "" {
		t.Fatal("report missing go version")
	}
	if len(rep.Ranks) != 2 {
		t.Fatalf("%d rank reports, want 2", len(rep.Ranks))
	}
	for i, rr := range rep.Ranks {
		if rr.Rank != i || rr.Breakdown != bds[i] || rr.Transfer != tfs[i] {
			t.Fatalf("rank report %d = %+v", i, rr)
		}
		if rr.NodeTime != bds[i].NodeTime() {
			t.Fatalf("rank %d node time %g, want %g", i, rr.NodeTime, bds[i].NodeTime())
		}
	}
	if want := bds[0].Plus(bds[1]); rep.Breakdown != want {
		t.Fatalf("breakdown total %+v, want %+v", rep.Breakdown, want)
	}
	if want := tfs[0].Plus(tfs[1]); rep.Transfer != want {
		t.Fatalf("transfer total %+v, want %+v", rep.Transfer, want)
	}
	if rep.Skew == nil {
		t.Fatal("skew not computed")
	}
	mean := (bds[0].NodeTime() + bds[1].NodeTime()) / 2
	if rep.Skew.MaxNodeTime != modeled || rep.Skew.MeanNodeTime != mean || rep.Skew.MaxOverMean != modeled/mean {
		t.Fatalf("skew = %+v", rep.Skew)
	}
	if err := rep.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestReportValidateRejects(t *testing.T) {
	rep := NewReport("test")
	if err := rep.Validate(); err == nil {
		t.Fatal("empty report validated")
	}
	bds := sampleBreakdowns()
	rep.SetRun(bds, nil, bds[1].NodeTime()*2, time.Second) // makespan != straggler
	if err := rep.Validate(); err == nil {
		t.Fatal("inconsistent makespan validated")
	}
	dir := t.TempDir()
	if err := rep.WriteFile(filepath.Join(dir, "r.json")); err == nil {
		t.Fatal("WriteFile accepted an invalid report")
	}
}

// TestReportRoundTrip writes a full report to disk, reads it back, and
// checks the per-rank modeled-time consistency the acceptance criteria
// require: the reported makespan equals the straggling rank's node time.
func TestReportRoundTrip(t *testing.T) {
	bds := sampleBreakdowns()
	modeled := bds[1].NodeTime()
	rep := NewReport("round-trip")
	rep.Config["matrix"] = "web"
	rep.Config["p"] = 2
	rep.SetRun(bds, nil, modeled, 42*time.Millisecond)
	reg := NewRegistry()
	reg.SetEnabled(true)
	reg.Counter("c").Add(3)
	snap := reg.Snapshot()
	rep.Metrics = &snap
	rep.Trace = &TraceInfo{Spans: 7, Instants: 2, File: "t.json"}

	path := filepath.Join(t.TempDir(), "report.json")
	if err := rep.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"tool"`, `"go_version"`, `"config"`, `"modeled_seconds"`, `"breakdown_total"`, `"ranks"`, `"skew"`, `"metrics"`, `"trace"`} {
		if !strings.Contains(string(data), key) {
			t.Fatalf("report JSON missing %s", key)
		}
	}

	var back Report
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Tool != "round-trip" || back.ModeledSeconds != modeled || len(back.Ranks) != 2 {
		t.Fatalf("round trip lost fields: %+v", back)
	}
	if back.Metrics == nil || back.Metrics.Counters["c"] != 3 {
		t.Fatalf("metrics did not round-trip: %+v", back.Metrics)
	}
	if back.Trace == nil || !reflect.DeepEqual(*back.Trace, *rep.Trace) {
		t.Fatalf("trace info did not round-trip: %+v", back.Trace)
	}
	// Per-rank modeled-time consistency survives the round trip.
	var max float64
	for i, rr := range back.Ranks {
		if rr.Breakdown != bds[i] {
			t.Fatalf("rank %d breakdown did not round-trip", i)
		}
		if nt := rr.Breakdown.NodeTime(); nt > max {
			max = nt
		}
	}
	if max != back.ModeledSeconds {
		t.Fatalf("makespan %g != max rank node time %g after round trip", back.ModeledSeconds, max)
	}
	if err := back.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRecordSkew(t *testing.T) {
	reg := NewRegistry()
	reg.SetEnabled(true)
	RecordSkew(reg, sampleBreakdowns())
	snap := reg.Snapshot()
	bds := sampleBreakdowns()
	max, mean := bds[1].NodeTime(), (bds[0].NodeTime()+bds[1].NodeTime())/2
	if snap.Gauges["exec.node_time.max"] != max {
		t.Fatalf("max gauge = %g, want %g", snap.Gauges["exec.node_time.max"], max)
	}
	if snap.Gauges["exec.node_time.mean"] != mean {
		t.Fatalf("mean gauge = %g, want %g", snap.Gauges["exec.node_time.mean"], mean)
	}
	if snap.Gauges["exec.node_time.skew"] != max/mean {
		t.Fatalf("skew gauge = %g, want %g", snap.Gauges["exec.node_time.skew"], max/mean)
	}
	RecordSkew(reg, nil) // must not panic or divide by zero
}

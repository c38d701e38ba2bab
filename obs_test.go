package twoface

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestRunObservability drives one small Two-Face run with the full
// observability stack attached — span tracer, metrics registry, transfer
// trace — and checks the acceptance-criteria invariants: the tracer's
// per-rank span totals equal the run's virtual-time breakdown, the report
// round-trips through disk, and its makespan equals the straggler's node
// time.
func TestRunObservability(t *testing.T) {
	tracer := NewTracer(0)
	DefaultMetrics().Reset()
	DefaultMetrics().SetEnabled(true)
	defer DefaultMetrics().SetEnabled(false)

	sys, err := New(Options{
		Nodes: 2, DenseColumns: 16, TimingOnly: true,
		TraceEvents: 1 << 12, SpanRecorder: tracer,
	})
	if err != nil {
		t.Fatal(err)
	}
	a := Generate("web", 0.05, 7)
	plan, err := sys.Preprocess(a)
	if err != nil {
		t.Fatal(err)
	}
	tracer.Reset() // keep only the Multiply spans: Preprocess charges too
	res, err := plan.Multiply(RandomDense(int(a.NumCols), 16, 8))
	if err != nil {
		t.Fatal(err)
	}

	// Span totals must equal the run's breakdowns exactly (the tracer
	// accumulates every charge, stored or dropped).
	totals := tracer.Totals()
	if len(totals) != len(res.Breakdowns) {
		t.Fatalf("tracer covers %d ranks, run has %d", len(totals), len(res.Breakdowns))
	}
	for i, bd := range res.Breakdowns {
		if totals[i] != bd {
			t.Fatalf("rank %d: tracer totals %+v != breakdown %+v", i, totals[i], bd)
		}
	}

	// The modeled makespan is the straggling rank's node time.
	var max float64
	for _, bd := range res.Breakdowns {
		if nt := bd.NodeTime(); nt > max {
			max = nt
		}
	}
	if max != res.ModeledSeconds {
		t.Fatalf("ModeledSeconds %g != max node time %g", res.ModeledSeconds, max)
	}

	// Transfer stats and trace events agree on the 8-byte element convention.
	var traced int64
	for _, ev := range res.TraceEvents {
		traced += ev.Bytes()
	}
	if traced == 0 || traced > res.TotalTransfer.TotalBytes() {
		t.Fatalf("traced bytes %d vs total moved %d", traced, res.TotalTransfer.TotalBytes())
	}

	// Executor metrics were collected.
	snap := DefaultMetrics().Snapshot()
	if snap.Counters["exec.sync.panels"] == 0 && snap.Counters["exec.async.stripes"] == 0 {
		t.Fatalf("executor counted no work: %+v", snap.Counters)
	}

	// Report: build, write, read back, revalidate.
	rep := NewRunReport("test")
	rep.Config["matrix"] = "web"
	rep.SetRun(res.Breakdowns, res.Transfer, res.ModeledSeconds, res.Wall)
	rep.Metrics = &snap
	rep.Trace = tracer.Info()
	path := filepath.Join(t.TempDir(), "run.json")
	if err := rep.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back RunReport
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.ModeledSeconds != res.ModeledSeconds || len(back.Ranks) != 2 {
		t.Fatalf("report round trip lost the run: %+v", back)
	}
	if err := back.Validate(); err != nil {
		t.Fatal(err)
	}

	// The Chrome trace export is loadable JSON with the expected envelope.
	tracePath := filepath.Join(t.TempDir(), "run.trace.json")
	if err := tracer.WriteChromeTraceFile(tracePath); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if _, ok := doc["traceEvents"]; !ok {
		t.Fatal("trace file has no traceEvents array")
	}
}

// TestInstrumentationOffBitIdentical checks the other acceptance criterion:
// with no recorder and the registry disabled, modeled time is bit-identical
// to an instrumented run of the same problem. Workers are pinned to one per
// queue: a ledger category is a float sum of per-unit charges added in
// worker-arrival order, so its last bit is only reproducible when that order
// is — which is not the property under test.
func TestInstrumentationOffBitIdentical(t *testing.T) {
	run := func(instrument bool) []Breakdown {
		opts := Options{Nodes: 2, DenseColumns: 16, TimingOnly: true, Workers: 1, AsyncWorkers: 1}
		if instrument {
			opts.SpanRecorder = NewTracer(0)
			opts.TraceEvents = 1 << 10
			DefaultMetrics().SetEnabled(true)
			defer DefaultMetrics().SetEnabled(false)
		}
		sys, err := New(opts)
		if err != nil {
			t.Fatal(err)
		}
		a := Generate("stokes", 0.05, 3)
		plan, err := sys.Preprocess(a)
		if err != nil {
			t.Fatal(err)
		}
		res, err := plan.Multiply(RandomDense(int(a.NumCols), 16, 4))
		if err != nil {
			t.Fatal(err)
		}
		return res.Breakdowns
	}
	plain := run(false)
	traced := run(true)
	for i := range plain {
		if plain[i] != traced[i] {
			t.Fatalf("rank %d: instrumented ledger %+v != plain %+v", i, traced[i], plain[i])
		}
	}
}

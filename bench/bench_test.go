package main

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"twoface/internal/cluster"
	"twoface/internal/harness"
	"twoface/internal/transport/conformance"
)

// toySize shrinks every workload until a run takes a fraction of a second,
// so the ordinary `go test ./...` (and its -race runs) exercises the whole
// benchmark: all four set-ups, the verification, both kinds of run.
var toySize = sizing{banded: 0.05, hub: 0.02, serve: 0.01, setups: 2, warmOps: 2, warmFor: 20 * time.Millisecond, soloOps: 3, refReps: 1}

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Seconds   int      `json:"run_seconds"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []benchmarkMetric `json:"end_to_end"`
	PerLayer []benchmarkMetric `json:"per_layer"`
}

type benchmarkMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return bf
}

func asFile(defs []metricDef) []benchmarkMetric {
	out := make([]benchmarkMetric, len(defs))
	for i, d := range defs {
		out[i] = benchmarkMetric{Name: d.Name, Unit: d.Unit, Better: d.Better, Bound: d.Bound}
	}
	return out
}

// TestBenchmarkFileMatchesProgram holds BENCHMARK.json and the program's own
// tables together: same workloads, same metrics, units, directions, bounds.
func TestBenchmarkFileMatchesProgram(t *testing.T) {
	bf := readBenchmarkFile(t)
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads() {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", names, want)
	}
	if got, want := bf.EndToEnd, asFile(endToEnd); !reflect.DeepEqual(got, want) {
		t.Errorf("end_to_end differs:\n file    %+v\n program %+v", got, want)
	}
	if got, want := bf.PerLayer, asFile(perLayer); !reflect.DeepEqual(got, want) {
		t.Errorf("per_layer differs:\n file    %+v\n program %+v", got, want)
	}
	if len(bf.Paths) != 1 || bf.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", bf.Paths)
	}
}

// TestSmokeAllWorkloads runs every workload at toy scale, untraced and
// traced, and checks that each run emits every metric BENCHMARK.json names
// for it exactly once, finite, with its unit; that every op verified; and
// that the traced run reconciles and leaves a loadable trace.
func TestSmokeAllWorkloads(t *testing.T) {
	bf := readBenchmarkFile(t)
	out := t.TempDir()
	for _, w := range workloads() {
		for _, traced := range []bool{false, true} {
			name := w.name + "/untraced"
			if traced {
				name = w.name + "/traced"
			}
			t.Run(name, func(t *testing.T) {
				res, err := runWorkload(runConfig{workload: w, seed: 7, seconds: 0.6, traced: traced, size: toySize, outDir: out})
				if err != nil {
					t.Fatal(err)
				}
				if res.Attempted == 0 || res.Failed != 0 {
					t.Fatalf("attempted %d, failed %d", res.Attempted, res.Failed)
				}
				line, err := resultOf(res)
				if err != nil {
					t.Fatal(err)
				}
				// Through JSON and back: the shape the driver reads.
				data, err := json.Marshal(line)
				if err != nil {
					t.Fatal(err)
				}
				var parsed struct {
					Correct bool                   `json:"correct"`
					Metrics map[string]metricValue `json:"metrics"`
				}
				if err := json.Unmarshal(data, &parsed); err != nil {
					t.Fatal(err)
				}
				if !parsed.Correct {
					t.Error("result line says incorrect")
				}
				want := bf.EndToEnd
				if traced {
					want = bf.PerLayer
				}
				if len(parsed.Metrics) != len(want) {
					t.Errorf("emitted %d metrics, BENCHMARK.json names %d", len(parsed.Metrics), len(want))
				}
				for _, d := range want {
					v, ok := parsed.Metrics[d.Name]
					switch {
					case !ok:
						t.Errorf("%s not emitted", d.Name)
					case v.Unit != d.Unit:
						t.Errorf("%s has unit %q, want %q", d.Name, v.Unit, d.Unit)
					case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
						t.Errorf("%s = %v", d.Name, v.Value)
					case !traced && v.Value <= 0:
						t.Errorf("end-to-end %s = %v, want > 0", d.Name, v.Value)
					}
				}
				if !traced {
					return
				}
				if res.Reconciliation == nil || res.Reconciliation.err() != nil {
					t.Errorf("reconciliation: %+v", res.Reconciliation)
				}
				raw, err := os.ReadFile(res.TraceFile)
				if err != nil {
					t.Fatal(err)
				}
				var trace struct {
					TraceEvents []traceEvent `json:"traceEvents"`
				}
				if err := json.Unmarshal(raw, &trace); err != nil {
					t.Fatalf("trace file: %v", err)
				}
				seen := map[string]bool{}
				for _, e := range trace.TraceEvents {
					seen[e.Name] = true
				}
				for _, name := range []string{"op", "check", "cluster.read", "cluster.barrier", "cluster.expose"} {
					if !seen[name] {
						t.Errorf("trace has no %q span", name)
					}
				}
			})
		}
	}
}

// TestCountingTransportConformance runs the transport contract through the
// decorator, counting and pass-through: it must forward every method, result
// and error of the backend unchanged.
func TestCountingTransportConformance(t *testing.T) {
	for _, on := range []bool{true, false} {
		name := "counting"
		if !on {
			name = "passthrough"
		}
		conformance.Run(t, conformance.Backend{Name: name, New: func(t *testing.T, p int) []cluster.Transport {
			mem, err := cluster.NewMemTransport(p)
			if err != nil {
				t.Fatal(err)
			}
			stats := newTransportStats(p, newRecorder(1000))
			stats.on.Store(on)
			return []cluster.Transport{&countingTransport{Transport: mem, stats: stats}}
		}})
	}
}

func TestCountingTransportCounts(t *testing.T) {
	mem, err := cluster.NewMemTransport(2)
	if err != nil {
		t.Fatal(err)
	}
	rec := newRecorder(1000)
	stats := newTransportStats(2, rec)
	stats.on.Store(true)
	tr := &countingTransport{Transport: mem, stats: stats}

	tr.Expose(1, "w", []float64{1, 2, 3, 4, 5, 6})
	dst := make([]float64, 4)
	n, err := tr.Read(0, 1, "w", []cluster.Region{{Off: 0, Elems: 1}, {Off: 3, Elems: 3}}, dst)
	if err != nil || n != 4 || !reflect.DeepEqual(dst, []float64{1, 4, 5, 6}) {
		t.Fatalf("Read = %d, %v, dst %v", n, err, dst)
	}
	if _, err := tr.Read(1, 1, "w", []cluster.Region{{Off: 0, Elems: 2}}, dst); err != nil {
		t.Fatal(err)
	}
	// An error comes back as the backend made it, and the call still counts.
	_, wantErr := mem.Read(0, 1, "missing", nil, dst)
	_, gotErr := tr.Read(0, 1, "missing", nil, dst)
	if !errors.Is(gotErr, cluster.ErrWindowMissing) || gotErr.Error() != wantErr.Error() {
		t.Errorf("error %v, backend gives %v", gotErr, wantErr)
	}

	got := stats.totals()
	if got.readCalls != 3 || got.readRegions != 3 || got.readElems != 6 || got.remoteCalls != 2 || got.remoteElems != 4 || got.exposeCalls != 1 {
		t.Errorf("totals %+v", got)
	}
	if len(rec.details) != 4 {
		t.Errorf("recorded %d spans, want 4", len(rec.details))
	}
	stats.reset()
	if got := stats.totals(); got != (transportTotals{}) {
		t.Errorf("after reset: %+v", got)
	}
	stats.on.Store(false)
	if _, err := tr.Read(0, 1, "w", []cluster.Region{{Off: 0, Elems: 1}}, dst); err != nil {
		t.Fatal(err)
	}
	if got := stats.totals(); got.readCalls != 0 {
		t.Errorf("counted %d reads while off", got.readCalls)
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	at := func(x int) time.Duration { return time.Duration(x) * time.Millisecond }
	spans := []span{
		{ID: 1, Name: "op", Op: 1, Start: at(0), End: at(100)},
		{ID: 2, Parent: 1, Op: 1, Start: at(10), End: at(40)},
		{ID: 3, Parent: 1, Op: 1, Start: at(30), End: at(60)},  // overlaps 2: counted once
		{ID: 4, Parent: 1, Op: 1, Start: at(70), End: at(120)}, // runs past its parent: clipped
		{ID: 5, Parent: 2, Op: 1, Start: at(15), End: at(35)},  // grandchild: only its parent's business
	}
	self := selfTimes(spans)
	for id, want := range map[int64]time.Duration{1: at(20), 2: at(10), 3: at(30), 4: at(50), 5: at(20)} {
		if self[id] != want {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], want)
		}
	}
}

func TestReconcile(t *testing.T) {
	at := func(x int) time.Duration { return time.Duration(x) * time.Millisecond }
	chain := func(runEnd int) []span {
		return []span{
			{ID: 1, Name: "op", Op: 1, Start: at(0), End: at(100)},
			{ID: 2, Parent: 1, Name: "core.multiply", Op: 1, Start: at(0), End: at(100)},
			{ID: 3, Parent: 2, Name: "core.run", Op: 1, Start: at(5), End: at(runEnd)},
		}
	}
	if rc := reconcile(chain(90)); rc.err() != nil || rc.Ops != 1 || rc.RelErr != 0 {
		t.Errorf("nested chain: %+v", rc)
	}
	// A run reported longer than the call that contained it cannot tile it.
	if rc := reconcile(chain(130)); rc.err() == nil {
		t.Errorf("overlong child reconciled: %+v", rc)
	}
	if rc := reconcile(nil); rc.err() == nil {
		t.Error("an empty trace reconciled")
	}
}

// scripted is an instance whose ops take no time and report prepared samples.
type scripted struct {
	samples []opSample
}

func (s *scripted) clients() int   { return 1 }
func (s *scripted) prepare() error { return nil }
func (s *scripted) period() int    { return 1 }
func (s *scripted) facts() *facts  { return nil }
func (s *scripted) close()         {}
func (s *scripted) do(_, n int) opSample {
	return s.samples[n%len(s.samples)]
}

// TestWindowStatistics checks a window's percentiles against
// internal/harness/stats.go over exactly the correct, timed ops.
func TestWindowStatistics(t *testing.T) {
	var script []opSample
	var want []float64
	for i := 1; i <= 40; i++ {
		d := time.Duration(i*i) * time.Millisecond
		script = append(script, opSample{dur: d, ok: true, timed: true})
		want = append(want, ms(d))
	}
	script = append(script,
		opSample{dur: time.Hour, ok: false, timed: true}, // failed: counted, not timed
		opSample{ok: true, timed: false},                 // verification request: neither
	)
	next := []int{0}
	seg := measure(&scripted{samples: script}, next, 0, len(script))
	st := seg.stats
	if st.Attempted != 42 || st.Failed != 1 || st.Samples != 40 || next[0] != 42 {
		t.Fatalf("window %+v, next %v", st, next)
	}
	if st.P50Ms != harness.Percentile(want, 50) || st.P90Ms != harness.Percentile(want, 90) {
		t.Errorf("p50 %v p90 %v, want %v %v", st.P50Ms, st.P90Ms, harness.Percentile(want, 50), harness.Percentile(want, 90))
	}
	if st.OpsPerS <= 0 {
		t.Errorf("ops/s = %v", st.OpsPerS)
	}
	// The reported value is the median of the windows' values.
	if got := median([]float64{3, 100, 5}); got != 5 {
		t.Errorf("median of windows = %v", got)
	}
}

func TestRotationSchedule(t *testing.T) {
	warm := 0
	for n := 0; n < 60; n++ {
		idx, cold := rotation(n, 2, 3)
		if want := (n / 3) % 2; idx != want {
			t.Fatalf("op %d uses operand %d, want %d", n, idx, want)
		}
		if cold != (n%3 == 0) {
			t.Fatalf("op %d cold = %v", n, cold)
		}
		if !cold {
			warm++
		}
	}
	if warm != 40 {
		t.Errorf("%d of 60 ops warm, want 2 in 3", warm)
	}
	// One operand: only the very first multiply is a first use.
	for n := 0; n < 5; n++ {
		if idx, cold := rotation(n, 1, 1); idx != 0 || cold != (n == 0) {
			t.Errorf("single operand, op %d: operand %d cold %v", n, idx, cold)
		}
	}
}

func TestRequestMixDeterministic(t *testing.T) {
	a, b := requestMix(42, 0, 200), requestMix(42, 0, 200)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed and client, different schedules")
	}
	if reflect.DeepEqual(a, requestMix(43, 0, 200)) || reflect.DeepEqual(a, requestMix(42, 1, 200)) {
		t.Error("schedule does not depend on seed and client")
	}
	if !reflect.DeepEqual(a[:50], requestMix(42, 0, 50)) {
		t.Error("a shorter schedule is not a prefix of a longer one")
	}
	for block := 0; block < len(a); block += mixBlock {
		var count [numClasses]int
		for _, rq := range a[block : block+mixBlock] {
			count[rq.class]++
			if rq.operand < 0 || rq.operand >= classOperands[rq.class] {
				t.Fatalf("operand %d out of range for class %s", rq.operand, classNames[rq.class])
			}
		}
		if count != [numClasses]int{6, 2, 2} {
			t.Fatalf("block at %d holds %v, want 6/2/2", block, count)
		}
	}
	for n, rq := range a {
		if rq.verify != ((n+1)%verifyEvery == 0) {
			t.Fatalf("request %d verify = %v", n, rq.verify)
		}
	}
}
